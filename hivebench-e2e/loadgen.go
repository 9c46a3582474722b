package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hive"
	"hive/api"
	"hive/client"
)

// Route labels as the server's request metrics name them.
const (
	routeProfile  = "GET /api/v1/users/{id}"
	routeFeed     = "GET /api/v1/users/{id}/feed"
	routeSearch   = "GET /api/v1/search"
	routePeers    = "GET /api/v1/users/{id}/recommendations/peers"
	routeRelation = "GET /api/v1/relationship"
	routeDigest   = "GET /api/v1/users/{id}/digest"
	routeSessions = "GET /api/v1/users/{id}/sessions/suggest"
	routePaper    = "POST /api/v1/papers"
	routeCheckin  = "POST /api/v1/checkins"
	routeFollow   = "POST /api/v1/follows"
	routeComment  = "POST /api/v1/comments"
	routeQuestion = "POST /api/v1/questions"
	routeAnswer   = "POST /api/v1/answers"
)

// routePath is a route's label in the server's latency histogram, which
// carries no method.
func routePath(route string) string {
	_, path, _ := strings.Cut(route, " ")
	return path
}

var kindRoute = [numKinds]string{
	routeProfile, routeFeed, routeSearch, routeSearch, routePeers, routeRelation, routeDigest, routeSessions,
	routePaper, routeCheckin, routeFollow, routeComment, routeQuestion, routeAnswer,
}

const (
	pageLimit   = 10
	digestWords = 60
	// probeTimeout bounds how long a sampled write may take to become
	// visible before it counts as a failure.
	probeTimeout = 5 * time.Second
)

// connCounter is a dialer that tracks open connections.
type connCounter struct {
	open, max, dials atomic.Int64
}

type countedConn struct {
	net.Conn
	cc   *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.cc.open.Add(-1) })
	return c.Conn.Close()
}

func (cc *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	cc.dials.Add(1)
	raiseMax(&cc.max, cc.open.Add(1))
	return &countedConn{Conn: c, cc: cc}, nil
}

func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// result is the outcome of one scheduled operation.
type result struct {
	done bool
	late time.Duration // send time minus due time (open loop)
	// early says a worker was free before the op was due, so its
	// lateness is the generator's own timer and scheduling delay rather
	// than a wait for a busy worker.
	early    bool
	latency  time.Duration // completion minus due time (open loop) or send time
	err      error
	non2xx   int           // typed error responses the client saw
	visible  time.Duration // send until observed by a read (probes only)
	probeErr error
}

// runner drives the SDK against one deployment.
type runner struct {
	workers int
	write   *client.Client // leader, or the only node
	read    *client.Client // follower on replicated
	conns   *connCounter

	inflight, inflightMax atomic.Int64
	// onDone, when set, sees every operation after it completes (the
	// traced run's ladder sampling).
	onDone func(*Op, *result)
	// sent counts requests by "<node URL> <route label>".
	mu   sync.Mutex
	sent map[string]int64
}

func newRunner(d *deployment, workers int) *runner {
	cc := &connCounter{}
	tr := &http.Transport{
		DialContext:         cc.dial,
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		IdleConnTimeout:     time.Minute,
	}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	r := &runner{workers: workers, conns: cc, sent: map[string]int64{}}
	if d.writer == d.reader {
		r.write = client.New(d.writer.url, client.WithHTTPClient(hc))
		r.read = r.write
	} else {
		r.write = client.New(d.writer.url, client.WithHTTPClient(hc), client.WithCluster(d.writer.url, d.reader.url))
		r.read = client.New(d.reader.url, client.WithHTTPClient(hc))
	}
	return r
}

func (r *runner) count(c *client.Client, route string) {
	r.mu.Lock()
	r.sent[c.Base()+" "+route]++
	r.mu.Unlock()
}

func (r *runner) sentSnapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.sent))
	for k, v := range r.sent {
		out[k] = v
	}
	return out
}

// call issues one request and tallies it by route and by outcome.
func (r *runner) call(c *client.Client, route string, res *result, fn func() error) error {
	r.count(c, route)
	err := fn()
	var ae *api.Error
	if errors.As(err, &ae) {
		res.non2xx++
	}
	return err
}

// do executes op's requests. It returns the first error.
func (r *runner) do(ctx context.Context, op *Op, res *result) error {
	rd, wr := r.read, r.write
	route := kindRoute[op.Kind]
	switch op.Kind {
	case KProfile:
		return r.call(rd, route, res, func() error { _, err := rd.GetUser(ctx, op.User); return err })
	case KFeed:
		var page api.Page[api.Event]
		err := r.call(rd, route, res, func() (err error) { page, err = rd.Feed(ctx, op.User, "", pageLimit); return err })
		if err != nil || !op.Page2 || page.NextCursor == "" {
			return err
		}
		return r.call(rd, route, res, func() error { _, err := rd.Feed(ctx, op.User, page.NextCursor, pageLimit); return err })
	case KSearch:
		return r.call(rd, route, res, func() error { _, err := rd.Search(ctx, op.Query, "", "", pageLimit); return err })
	case KCtxSearch:
		return r.call(rd, route, res, func() error { _, err := rd.Search(ctx, op.Query, op.User, "", pageLimit); return err })
	case KPeers:
		return r.call(rd, route, res, func() error { _, err := rd.PeerRecommendations(ctx, op.User, "", pageLimit); return err })
	case KRelationship:
		return r.call(rd, route, res, func() error { _, err := rd.Relationship(ctx, op.User, op.Other); return err })
	case KDigest:
		return r.call(rd, route, res, func() error { _, err := rd.Digest(ctx, op.User, digestWords); return err })
	case KSessions:
		return r.call(rd, route, res, func() error { _, err := rd.SuggestSessions(ctx, op.User, op.Other, "", pageLimit); return err })
	case KPublish:
		return r.call(wr, route, res, func() error { return wr.CreatePaper(ctx, *op.Paper) })
	case KCheckin:
		return r.call(wr, route, res, func() error { return wr.CheckIn(ctx, op.Session, op.User) })
	case KFollow:
		return r.call(wr, route, res, func() error { return wr.Follow(ctx, op.User, op.Other) })
	case KComment:
		return r.call(wr, route, res, func() error { return wr.Comment(ctx, *op.Comment) })
	case KQuestion:
		return r.call(wr, route, res, func() error { return wr.Ask(ctx, *op.Question) })
	case KAnswer:
		return r.call(wr, route, res, func() error { return wr.Answer(ctx, *op.Answer) })
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// observed reports whether a probe's write is visible on the read node.
func (r *runner) observed(ctx context.Context, op *Op, res *result) (bool, error) {
	rd := r.read
	if op.Kind == KPublish {
		var page api.Page[api.SearchResult]
		err := r.call(rd, routeSearch, res, func() (err error) { page, err = rd.Search(ctx, op.Token, "", "", pageLimit); return err })
		if err != nil {
			return false, err
		}
		for _, it := range page.Items {
			if it.DocID == hive.DocPaper+op.Paper.ID {
				return true, nil
			}
		}
		return false, nil
	}
	verb, object := "checkin", op.Session
	if op.Kind == KFollow {
		verb, object = "follow", op.Other
	}
	var page api.Page[api.Event]
	err := r.call(rd, routeFeed, res, func() (err error) { page, err = rd.Feed(ctx, op.Watcher, "", 2*pageLimit); return err })
	if err != nil {
		return false, err
	}
	for _, ev := range page.Items {
		if ev.Actor == op.User && ev.Verb == verb && ev.Object == object {
			return true, nil
		}
	}
	return false, nil
}

// exec runs one operation; due is its scheduled send time (the send time
// itself in the closed loop).
func (r *runner) exec(ctx context.Context, op *Op, due time.Time) result {
	res := result{done: true}
	raiseMax(&r.inflightMax, r.inflight.Add(1))
	sent := time.Now()
	res.late = sent.Sub(due)
	res.err = r.do(ctx, op, &res)
	res.latency = time.Since(due)
	defer r.inflight.Add(-1)
	if res.err == nil && op.Probe {
		for {
			ok, err := r.observed(ctx, op, &res)
			if err != nil || ok {
				res.probeErr = err
				res.visible = time.Since(sent)
				break
			}
			if time.Since(sent) > probeTimeout {
				res.probeErr = fmt.Errorf("%s %s not visible after %v", op.Kind, op.Owner(), probeTimeout)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if r.onDone != nil {
		r.onDone(op, &res)
	}
	return res
}

// openLoop sends ops at their due times from the runner's workers; a
// worker busy past an op's due time sends it late, and the lateness is
// part of that op's latency.
func (r *runner) openLoop(ctx context.Context, ops []Op) ([]result, time.Duration) {
	res := make([]result, len(ops))
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				due := start.Add(ops[i].Due)
				d := time.Until(due)
				if d > 0 {
					time.Sleep(d)
				}
				res[i] = r.exec(ctx, &ops[i], due)
				res[i].early = d > 0
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// closedLoop runs ops from the runner's workers back to back.
func (r *runner) closedLoop(ctx context.Context, ops []Op) ([]result, time.Duration) {
	res := make([]result, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				res[i] = r.exec(ctx, &ops[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
