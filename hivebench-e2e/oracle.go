package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"

	"hive"
	"hive/api"
	"hive/client"
	"hive/internal/server"
	"hive/internal/workload/httpload"
)

// reference is the oracle: an unsharded in-memory hive.Platform behind
// server.New, fed the same dataset over the same batch API.
type reference struct {
	p *hive.Platform
	c *client.Client
}

func newReference(ctx context.Context, s *Schedule) (*reference, error) {
	p, err := hive.Open(hive.Options{})
	if err != nil {
		return nil, err
	}
	if err := p.Refresh(); err != nil {
		p.Close()
		return nil, err
	}
	c := client.New("http://reference", client.WithHTTPClient(&http.Client{Transport: &handlerTransport{h: server.New(p)}}))
	if err := httpload.Batch(ctx, c, s.Dataset, 256); err != nil {
		p.Close()
		return nil, fmt.Errorf("reference load: %w", err)
	}
	return &reference{p: p, c: c}, nil
}

// apply replays the acknowledged writes of a phase in schedule order.
func (ref *reference) apply(ctx context.Context, ops []Op, res []result) error {
	r := &runner{write: ref.c, read: ref.c, sent: map[string]int64{}}
	for i := range ops {
		if !ops[i].Kind.Write() || !res[i].done || res[i].err != nil {
			continue
		}
		var scratch result
		if err := r.do(ctx, &ops[i], &scratch); err != nil {
			return fmt.Errorf("reference %s: %w", ops[i].Kind, err)
		}
	}
	return nil
}

// oracle compares two nodes' observable state; every difference is one
// mismatch.
type oracle struct {
	checks     int
	mismatches []string
}

func (o *oracle) fail(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func sameScore(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

// search compares one top-k. Scores must match rank by rank. Documents
// whose scores tie within the tolerance may come in either order: the
// nodes inserted the same documents in different orders (two writes in
// flight commit in either order), which can move a score in its last
// bits. For the same reason a tie that reaches the last rank may be cut
// on different members, so its IDs are not compared.
func (o *oracle) search(ctx context.Context, got, want *client.Client, q, user string) {
	o.checks++
	g, err1 := got.Search(ctx, q, user, "", pageLimit)
	w, err2 := want.Search(ctx, q, user, "", pageLimit)
	if err1 != nil || err2 != nil {
		o.fail("search %q user %q: errors %v / %v", q, user, err1, err2)
		return
	}
	if len(g.Items) != len(w.Items) {
		o.fail("search %q user %q: %d results, want %d", q, user, len(g.Items), len(w.Items))
		return
	}
	for i := range g.Items {
		if !sameScore(g.Items[i].Score, w.Items[i].Score) {
			o.fail("search %q user %q: rank %d scores %.17g, want %.17g", q, user, i, g.Items[i].Score, w.Items[i].Score)
			return
		}
	}
	for lo := 0; lo < len(w.Items); {
		hi := lo + 1
		for hi < len(w.Items) && sameScore(w.Items[hi].Score, w.Items[lo].Score) {
			hi++
		}
		if hi < len(w.Items) { // a tie group inside the page: same members
			ids := map[string]int{}
			for i := lo; i < hi; i++ {
				ids[w.Items[i].DocID]++
				ids[g.Items[i].DocID]--
			}
			for id, n := range ids {
				if n != 0 {
					o.fail("search %q user %q: ranks %d-%d differ at %s", q, user, lo, hi-1, id)
					return
				}
			}
		}
		lo = hi
	}
}

// feedContents is a user's whole feed as a sorted list of
// actor/verb/object triples. Sequence numbers and times are node-local,
// and two writes in flight at once may commit in either order, so the
// contents are compared as a multiset.
func feedContents(ctx context.Context, c *client.Client, user string) ([]string, error) {
	evs, err := client.Collect(ctx, func(cursor string) (api.Page[api.Event], error) {
		return c.Feed(ctx, user, cursor, api.MaxPageSize)
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Actor + " " + ev.Verb + " " + ev.Object
	}
	sort.Strings(out)
	return out, nil
}

func (o *oracle) feed(ctx context.Context, got, want *client.Client, user string) {
	o.checks++
	g, err1 := feedContents(ctx, got, user)
	w, err2 := feedContents(ctx, want, user)
	if err1 != nil || err2 != nil {
		o.fail("feed %s: errors %v / %v", user, err1, err2)
		return
	}
	if len(g) != len(w) {
		o.fail("feed %s: %d events, want %d", user, len(g), len(w))
		return
	}
	for i := range g {
		if g[i] != w[i] {
			o.fail("feed %s: event %q, want %q", user, g[i], w[i])
			return
		}
	}
}

func (o *oracle) users(ctx context.Context, got, want *client.Client) {
	o.checks++
	count := func(c *client.Client) (int, error) {
		ids, err := client.Collect(ctx, func(cursor string) (api.Page[string], error) {
			return c.Users(ctx, cursor, api.MaxPageSize)
		})
		return len(ids), err
	}
	g, err1 := count(got)
	w, err2 := count(want)
	if err1 != nil || err2 != nil || g != w {
		o.fail("users: %d (%v), want %d (%v)", g, err1, w, err2)
	}
}

func (o *oracle) count(what string, got, want float64) {
	o.checks++
	if got != want {
		o.fail("%s: %v, want %v", what, got, want)
	}
}

// reranked checks the documented contract of a sharded context search:
// it re-ranks the exact scatter-gathered base, the top 4k of the plain
// search, with shard-local document vectors, so its scores may differ
// from an unsharded node but every result must come from that base.
func (o *oracle) reranked(ctx context.Context, got, want *client.Client, q, user string) {
	o.checks++
	g, err1 := got.Search(ctx, q, user, "", pageLimit)
	base, err2 := want.Search(ctx, q, "", "", 4*(pageLimit+1))
	if err1 != nil || err2 != nil {
		o.fail("context search %q user %q: errors %v / %v", q, user, err1, err2)
		return
	}
	in := map[string]bool{}
	for _, it := range base.Items {
		in[it.DocID] = true
	}
	for _, it := range g.Items {
		if !in[it.DocID] {
			o.fail("context search %q user %q: %s is not in the plain top %d", q, user, it.DocID, len(base.Items))
			return
		}
	}
}

// compare checks top-k for the probe queries (plain and in the sampled
// users' context), the sampled users' feeds, and the user count. exact
// says whether context search must match too (false when got is
// sharded and want is not).
func (o *oracle) compare(ctx context.Context, got, want *client.Client, s *Schedule, exact bool) {
	for _, q := range s.ProbeQueries {
		o.search(ctx, got, want, q, "")
	}
	for i, u := range s.SampleUsers {
		q := s.ProbeQueries[i%len(s.ProbeQueries)]
		if exact {
			o.search(ctx, got, want, q, u)
		} else {
			o.reranked(ctx, got, want, q, u)
		}
		o.feed(ctx, got, want, u)
	}
	o.users(ctx, got, want)
}

// checkState runs the oracle after a run: the server (every node, on
// replicated) against the reference built from the same seed plus the
// writes the server acknowledged, and on replicated the follower
// against the leader and the commit index against the journal tail.
func checkState(ctx context.Context, d *deployment, s *Schedule, phases [][]Op, results [][]result) (*oracle, error) {
	if err := d.settle(ctx); err != nil {
		return nil, fmt.Errorf("settle before oracle: %w", err)
	}
	ref, err := newReference(ctx, s)
	if err != nil {
		return nil, err
	}
	defer ref.p.Close()
	for i := range phases {
		if err := ref.apply(ctx, phases[i], results[i]); err != nil {
			return nil, err
		}
	}
	if err := ref.p.Refresh(); err != nil {
		return nil, err
	}
	o := &oracle{}
	leader := client.New(d.writer.url, client.WithHTTPClient(ctlClient))
	o.compare(ctx, leader, ref.c, s, s.workload.Mode != modeSharded)

	sc, err := scrapeMetrics(ctx, d.writer.url)
	if err != nil {
		return nil, err
	}
	rh, err := ref.c.Healthz(ctx)
	if err != nil {
		return nil, err
	}
	o.count("indexed documents", sc.sum("hive_shard_docs"), float64(rh.FrozenDocs))

	if d.reader != d.writer {
		follower := client.New(d.reader.url, client.WithHTTPClient(ctlClient))
		o.compare(ctx, follower, leader, s, true)
		cs, err := clusterStatus(ctx, d.writer.url)
		if err != nil {
			return nil, err
		}
		lh, err := health(ctx, d.writer.url)
		if err != nil {
			return nil, err
		}
		o.checks++
		if cs.CommitIndex < lh.Replication.JournalTail {
			o.fail("commit index %d below the last acknowledged seq %d", cs.CommitIndex, lh.Replication.JournalTail)
		}
	}
	return o, nil
}
