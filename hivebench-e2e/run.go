package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Generator-health limits. maxTimerLate bounds how late the generator
// sent an op it was free for before its due time (its own timer and
// scheduling delay); maxBacklog bounds how late the last send of the
// open loop ran, past which the offered rate was not sustained. A run
// beyond either is invalid, not a result.
const (
	maxTimerLate = 20 * time.Millisecond
	maxBacklog   = 2 * time.Second
)

// phaseStats summarizes the results of one phase.
type phaseStats struct {
	reads, writes, visible, late []float64 // ms
	timerLate                    []float64 // ms, ops a worker was free for
	attempted, failed, non2xx    int
	ackedWrites                  int
	lastLate                     time.Duration
	errs                         []string
}

func summarize(ops []Op, res []result) phaseStats {
	var ps phaseStats
	for i := range res {
		r := &res[i]
		ps.attempted++
		ps.non2xx += r.non2xx
		ps.late = append(ps.late, ms(r.late))
		if r.early {
			ps.timerLate = append(ps.timerLate, ms(r.late))
		}
		ps.lastLate = r.late
		switch {
		case !r.done:
			ps.failed++
			ps.errs = append(ps.errs, fmt.Sprintf("%s: not run", ops[i].Kind))
			continue
		case r.err != nil:
			ps.failed++
			ps.errs = append(ps.errs, fmt.Sprintf("%s: %v", ops[i].Kind, r.err))
			continue
		case r.probeErr != nil:
			ps.failed++
			ps.errs = append(ps.errs, fmt.Sprintf("%s probe: %v", ops[i].Kind, r.probeErr))
		}
		if ops[i].Kind.Write() {
			ps.ackedWrites++
			ps.writes = append(ps.writes, ms(r.latency))
		} else {
			ps.reads = append(ps.reads, ms(r.latency))
		}
		if ops[i].Probe && r.probeErr == nil {
			ps.visible = append(ps.visible, ms(r.visible))
		}
	}
	return ps
}

// runState is what one run accumulates for its report.
type runState struct {
	d        *deployment
	r        *runner
	win      window
	faults   []string // benchmark faults: the numbers cannot be trusted
	failed   int
	attempts int
}

func (st *runState) fault(format string, args ...any) {
	st.faults = append(st.faults, fmt.Sprintf(format, args...))
}

// deployRepeated sets up w.SetupReps times and keeps the last deployment.
func deployRepeated(ctx context.Context, w *Workload, bin, runDir string, s *Schedule, reps int) (*deployment, []float64, error) {
	var setups []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		d, dur, err := deploy(ctx, w, bin, dir, s.Dataset)
		if err != nil {
			return nil, nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, dur.Seconds())
		if i == reps-1 {
			d.dir = dir
			return d, setups, nil
		}
		d.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("no setup repetitions")
}

// crossCheck compares the server's per-route request counts and non-2xx
// responses over the measured window with what the client sent and saw.
func (st *runState) crossCheck(sent map[string]int64, clientNon2xx int) {
	for key, n := range sent {
		url, route, _ := strings.Cut(key, " ")
		method, path, _ := strings.Cut(route, " ")
		var got float64
		for i, nd := range st.d.nodes {
			if nd.url == url {
				got = st.win.after[i].sum("hive_http_requests_total", "route", path, "method", method) -
					st.win.before[i].sum("hive_http_requests_total", "route", path, "method", method)
			}
		}
		if got != float64(n) {
			st.fault("cross-check: server counted %v requests on %s %s, client sent %d", got, url, route, n)
		}
	}
	var serverNon2xx float64
	for _, class := range []string{"3xx", "4xx", "5xx"} {
		serverNon2xx += st.win.delta("hive_http_requests_total", "class", class)
	}
	if serverNon2xx != float64(clientNon2xx) {
		st.fault("cross-check: server answered %v non-2xx responses, client saw %d", serverNon2xx, clientNon2xx)
	}
}

// generatorHealth marks the run invalid when the load generator broke
// its own contract: more requests or connections in flight than nproc,
// or an open loop that fell behind its schedule.
func (st *runState) generatorHealth(open phaseStats) {
	if m := st.r.inflightMax.Load(); m > int64(st.r.workers) {
		st.fault("generator: %d requests in flight, cap %d", m, st.r.workers)
	}
	if m := st.r.conns.max.Load(); m > int64(st.r.workers*len(st.d.nodes)) {
		st.fault("generator: %d connections open, cap %d per node", m, st.r.workers)
	}
	if p99 := quantile(open.timerLate, 0.99); p99 > ms(maxTimerLate) {
		st.fault("generator: sends a worker was free for ran %.1f ms late at p99 (limit %v)", p99, maxTimerLate)
	}
	if open.lastLate > maxBacklog {
		st.fault("generator: fell behind its schedule, last open-loop send ran %v late (limit %v)", open.lastLate, maxBacklog)
	}
}

func run(ctx context.Context, w *Workload, s *Schedule, bin, runDir string, traced bool) (*report, error) {
	reps := w.SetupReps
	if traced {
		reps = 1
	}
	d, setups, err := deployRepeated(ctx, w, bin, runDir, s, reps)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	st := &runState{d: d, r: newRunner(d, nproc())}
	// Learn the shard map so owner-routed writes declare their shard
	// (X-Hive-Shard), as a sharded deployment's clients do.
	if _, err := st.r.write.ClusterStatus(ctx); err != nil {
		return nil, fmt.Errorf("cluster status: %w", err)
	}

	var lad *ladder
	if traced {
		if lad, err = newLadder(ctx, w, s, filepath.Join(runDir, "twin")); err != nil {
			return nil, err
		}
		defer lad.close()
	}

	warm, _ := st.r.closedLoop(ctx, s.Warm)
	if ws := summarize(s.Warm, warm); ws.failed > 0 {
		return nil, fmt.Errorf("warm-up failed: %s", ws.errs[0])
	}
	sentBefore := st.r.sentSnapshot()
	journalStart := journalBytes(d)
	before, err := scrapeAll(ctx, d)
	if err != nil {
		return nil, err
	}
	var sampler *gaugeSampler
	if traced {
		sampler = startSampler(ctx, d)
	}

	// Open loop. A traced run measures its first half untraced and
	// its second half with the ladder on sampled operations.
	openRes := make([]result, len(s.Open))
	var untracedReads []float64
	if traced {
		half := len(s.Open) / 2
		res1, _ := st.r.openLoop(ctx, s.Open[:half])
		copy(openRes, res1)
		untracedReads = summarize(s.Open[:half], res1).reads
		st.r.onDone = lad.observe
		res2, _ := st.r.openLoop(ctx, rebase(s.Open[half:]))
		st.r.onDone = nil
		copy(openRes[half:], res2)
	} else {
		openRes, _ = st.r.openLoop(ctx, s.Open)
	}
	closedRes, closedDur := st.r.closedLoop(ctx, s.Closed)

	after, err := scrapeAll(ctx, d)
	if err != nil {
		return nil, err
	}
	var gauges gaugeMax
	if sampler != nil {
		gauges = sampler.stop()
	}
	st.win = window{before: before, after: after}
	mem, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	open := summarize(s.Open, openRes)
	closed := summarize(s.Closed, closedRes)
	st.attempts = open.attempted + closed.attempted
	st.failed = open.failed + closed.failed
	for _, e := range append(open.errs, closed.errs...) {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}

	sent := diffCounts(st.r.sentSnapshot(), sentBefore)
	st.crossCheck(sent, open.non2xx+closed.non2xx)
	st.generatorHealth(open)

	journalEnd := journalBytes(d)
	kvBytes := dirBytes(d.dir, func(p string) bool {
		b := filepath.Base(p)
		return b == "wal.log" || b == "snapshot.db"
	})

	o, err := checkState(ctx, d, s, [][]Op{s.Open, s.Closed}, [][]result{openRes, closedRes})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, m := range o.mismatches {
		fmt.Fprintln(os.Stderr, "oracle mismatch:", m)
	}
	st.failed += len(o.mismatches)

	rep := &report{Attempted: st.attempts, Failed: st.failed, Metrics: map[string]metric{}}
	failFrac := float64(st.failed) / float64(st.attempts)
	e2e := map[string]metric{
		"setup_s":        {quantile(setups, 0.5), "s"},
		"read_p50_ms":    {quantile(open.reads, 0.5), "ms"},
		"write_p50_ms":   {quantile(open.writes, 0.5), "ms"},
		"visible_p50_ms": {quantile(open.visible, 0.5), "ms"},
		"ok_frac":        {1 - failFrac, "fraction"},
		"mem_mb":         {mem, "MB"},
	}
	fmt.Printf("# workload %s: %d users, mode %s, open loop %d ops at %.0f/s (%d reads, %d writes, %d visibility probes), closed loop %d ops on %d workers\n",
		w.Name, w.Users, w.Mode, len(s.Open), w.Rate, len(open.reads), len(open.writes), len(open.visible), len(s.Closed), st.r.workers)
	printClasses(s.Open, openRes)
	peak := float64(len(s.Closed)) / closedDur.Seconds()
	fmt.Printf("# no bound (per-layer client.* in traced runs): read_p90_ms %.4f over %d reads, write_p75_ms %.4f over %d writes, peak_ops_per_s %.4f\n",
		quantile(open.reads, 0.9), len(open.reads), quantile(open.writes, 0.75), len(open.writes), peak)
	fmt.Printf("# server: %v compactions, %v delta applies, %v journal appends in the measured window\n",
		st.win.delta("hive_compaction_seconds_count"), st.win.delta("hive_delta_apply_seconds_count"),
		st.win.delta("hive_journal_append_seconds_count"))
	fmt.Printf("# oracle: %d checks, %d mismatches; fail_frac %.6f (%d of %d)\n", o.checks, len(o.mismatches), failFrac, st.failed, st.attempts)
	fmt.Printf("# generator: late p50 %.3f ms, p99 %.3f ms (timer p99 %.3f ms), in flight max %d, connections max %d (%d dials)\n",
		quantile(open.late, 0.5), quantile(open.late, 0.99), quantile(open.timerLate, 0.99),
		st.r.inflightMax.Load(), st.r.conns.max.Load(), st.r.conns.dials.Load())

	if traced {
		lad.replay()
		second := summarize(s.Open[len(s.Open)/2:], openRes[len(s.Open)/2:])
		layers := st.layerMetrics(lad, layerInputs{
			open: open, traced: second, untracedReads: untracedReads, gauges: gauges,
			journalBytes: [2]int64{journalStart, journalEnd}, kvBytes: kvBytes,
			acked: len(open.writes) + closed.ackedWrites, peak: peak,
		})
		printMetrics("per-layer metrics (traced run)", layers)
		rep.Metrics = layers
		for _, b := range lad.checkSums() {
			st.fault("ladder: %s", b)
		}
	} else {
		printMetrics("end-to-end metrics", e2e)
		rep.Metrics = e2e
	}
	for _, f := range st.faults {
		fmt.Fprintln(os.Stderr, "INVALID:", f)
	}
	rep.Correct = len(o.mismatches) == 0 && len(st.faults) == 0
	return rep, nil
}

// printClasses prints the open loop's latency (from due time) per
// operation class.
func printClasses(ops []Op, res []result) {
	byKind := make([][]float64, numKinds)
	for i := range res {
		if res[i].done && res[i].err == nil {
			byKind[ops[i].Kind] = append(byKind[ops[i].Kind], ms(res[i].latency))
		}
	}
	fmt.Println("# open loop by class (ms from due time)")
	for k, xs := range byKind {
		if len(xs) > 0 {
			fmt.Printf("  %-12s n=%5d p50 %9.3f p90 %9.3f p99 %9.3f\n", Kind(k), len(xs),
				quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99))
		}
	}
}

// journalBytes is the size of every node's change journal.
func journalBytes(d *deployment) int64 {
	sep := string(filepath.Separator)
	return dirBytes(d.dir, func(p string) bool { return strings.Contains(p, sep+"journal"+sep) })
}

// rebase shifts a slice of open-loop ops so the first is due at zero.
func rebase(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	if len(out) == 0 {
		return out
	}
	base := out[0].Due
	for i := range out {
		out[i].Due -= base
	}
	return out
}

func diffCounts(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
