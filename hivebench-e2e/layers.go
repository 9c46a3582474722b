package main

import (
	"context"
	"sync"
	"time"
)

// gaugeMax holds the largest values the sampler saw of the gauges that
// only exist at scrape time.
type gaugeMax struct {
	pendingEvents, overlayDocs, replicationLag float64
}

// gaugeSampler scrapes every node's /metrics on a fixed period during
// the traced run. It is a monitor, not a load worker: its requests go
// over the control-plane client and are not in any route count the
// cross-check compares.
type gaugeSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	max   gaugeMax
}

const samplePeriod = 200 * time.Millisecond

func startSampler(ctx context.Context, d *deployment) *gaugeSampler {
	g := &gaugeSampler{stopc: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-g.stopc:
				return
			case <-ctx.Done():
				return
			case <-t.C:
			}
			scs, err := scrapeAll(ctx, d)
			if err != nil {
				continue // a missed sample only lowers the observed maximum
			}
			g.mu.Lock()
			for _, sc := range scs {
				g.max.pendingEvents = max(g.max.pendingEvents, sc.maxOf("hive_pending_events"))
				g.max.overlayDocs = max(g.max.overlayDocs, sc.sum("hive_overlay_docs"))
				g.max.replicationLag = max(g.max.replicationLag, sc.maxOf("hive_replication_lag_events"))
			}
			g.mu.Unlock()
		}
	}()
	return g
}

// stop ends the sampler, waits for it, and returns what it saw.
func (g *gaugeSampler) stop() gaugeMax {
	close(g.stopc)
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// layerInputs is what the traced run measured outside the ladder.
type layerInputs struct {
	open, traced  phaseStats
	untracedReads []float64
	gauges        gaugeMax
	journalBytes  [2]int64 // at the start and end of the measured window
	kvBytes       int64
	acked         int     // writes acknowledged in the window
	peak          float64 // closed-loop operations per second
}

// layerMetrics assembles the per-layer metrics of a traced run. Every
// name is reported on every workload; a layer a workload does not
// exercise reads 0.
func (st *runState) layerMetrics(lad *ladder, in layerInputs) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	win := st.win

	// loadgen
	put("loadgen.late_p99_ms", quantile(in.open.late, 0.99), "ms")
	put("loadgen.timer_late_p99_ms", quantile(in.open.timerLate, 0.99), "ms")
	put("loadgen.inflight_max", float64(st.r.inflightMax.Load()), "count")
	put("loadgen.conns_max", float64(st.r.conns.max.Load()), "count")

	// Open-loop tails and closed-loop throughput: too noisy between runs
	// on a 2-vCPU host to carry an end-to-end bound, reported here
	// without one.
	put("client.read_p90_ms", quantile(in.open.reads, 0.9), "ms")
	put("client.write_p75_ms", quantile(in.open.writes, 0.75), "ms")
	put("client.peak_ops_per_s", in.peak, "1/s")

	// client, server, hive and core per class, from the ladder.
	med, _ := lad.medians()
	for k := Kind(0); k < numKinds; k++ {
		if k == KQuestion || k == KAnswer {
			continue // not on the issue's class list; still in the ladder table
		}
		m := med[k]
		self := selfTimes(k, m)
		put("client."+k.String()+".p50_ms", m[layerClient], "ms")
		put("client."+k.String()+".self_ms", self[layerClient], "ms")
		put("hive."+k.String()+".self_ms", self[layerHive], "ms")
		put("server."+k.String()+".mean_ms", win.meanOf("hive_http_request_seconds", 1e-3, "route", routePath(kindRoute[k])), "ms")
	}
	for _, k := range []Kind{KSearch, KCtxSearch, KPeers, KRelationship, KDigest, KSessions} {
		put("core."+k.String()+".mean_ms", med[k][layerCore], "ms")
	}
	var non2xx float64
	for _, class := range []string{"3xx", "4xx", "5xx"} {
		non2xx += win.delta("hive_http_requests_total", "class", class)
	}
	// The gauge sampler's scrapes are not load.
	put("server.requests", win.delta("hive_http_requests_total")-win.delta("hive_http_requests_total", "route", "/metrics"), "count")
	put("server.non2xx", non2xx, "count")

	// hive: delta pipeline, compaction, scatter-gather, replication.
	put("hive.delta_apply.count", win.delta("hive_delta_apply_seconds_count"), "count")
	put("hive.delta_apply.mean_ms", win.meanOf("hive_delta_apply_seconds", 1e-3), "ms")
	put("hive.compaction.count", win.delta("hive_compaction_seconds_count"), "count")
	put("hive.compaction.mean_ms", win.meanOf("hive_compaction_seconds", 1e-3), "ms")
	put("hive.search.mean_us", win.meanOf("hive_search_seconds", 1e-6), "us")
	put("hive.scatter_search.mean_ms", win.meanOf("hive_scatter_fanout_seconds", 1e-3, "op", "search"), "ms")
	put("hive.scatter_feed.mean_ms", win.meanOf("hive_scatter_fanout_seconds", 1e-3, "op", "feed"), "ms")
	put("hive.pending_events.max", in.gauges.pendingEvents, "count")
	var overlayEnd float64
	for _, sc := range win.after {
		overlayEnd += sc.sum("hive_overlay_docs")
	}
	put("hive.overlay_docs.end", overlayEnd, "count")
	put("hive.quorum_wait.mean_ms", win.meanOf("hive_quorum_ack_wait_seconds", 1e-3), "ms")
	put("hive.replication_poll.mean_ms", win.meanOf("hive_replication_poll_seconds", 1e-3), "ms")
	put("hive.replication_lag.max", in.gauges.replicationLag, "count")

	// core, textindex, social, kvstore: from the twin.
	put("core.build_s", lad.buildS, "s")
	put("textindex.search.mean_us", 1000*med[KSearch][layerTextindex], "us")
	put("textindex.overlay_docs", in.gauges.overlayDocs, "count")
	put("social.feed.mean_ms", med[KFeed][layerSocial], "ms")
	put("social.papers_of_author.mean_us", 1000*meanMS(lad.papersOfAuthor), "us")
	put("social.put_paper.mean_us", 1000*med[KPublish][layerSocial], "us")
	put("kvstore.keys", float64(lad.kv.Len()), "count")
	put("kvstore.scan.mean_us", 1000*meanMS(lad.scans), "us")
	var keys float64
	for _, n := range lad.scanKeys {
		keys += float64(n)
	}
	if len(lad.scanKeys) > 0 {
		keys /= float64(len(lad.scanKeys))
	}
	put("kvstore.scan.keys_returned", keys, "count")
	put("kvstore.disk_bytes", float64(in.kvBytes), "bytes")

	// journal and election.
	put("journal.append.count", win.delta("hive_journal_append_seconds_count"), "count")
	put("journal.append.mean_us", win.meanOf("hive_journal_append_seconds", 1e-6), "us")
	put("journal.disk_bytes", float64(in.journalBytes[1]), "bytes")
	perWrite := 0.0
	if in.acked > 0 {
		perWrite = float64(in.journalBytes[1]-in.journalBytes[0]) / float64(in.acked)
	}
	put("journal.bytes_per_write", perWrite, "bytes")
	put("election.promotions", win.delta("hive_election_promotions_total"), "count")
	put("election.demotions", win.delta("hive_election_demotions_total"), "count")

	// tracing overhead: traced vs untraced open-loop read median.
	overhead := 0.0
	if base := quantile(in.untracedReads, 0.5); base > 0 {
		overhead = quantile(append([]float64(nil), in.traced.reads...), 0.5)/base - 1
	}
	put("trace.overhead_frac", overhead, "fraction")
	return out
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}
