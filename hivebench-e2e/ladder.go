package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"hive"
	"hive/client"
	"hive/internal/core"
	"hive/internal/kvstore"
	"hive/internal/server"
	"hive/internal/social"
	"hive/internal/workload/httpload"
)

// Ladder layers, top to bottom. Each sampled operation is timed at
// every boundary its class crosses; a layer's self time is its median
// minus the median of the layer below it on the same class.
const (
	layerClient    = "client"
	layerServer    = "server"
	layerHive      = "hive"
	layerCore      = "core"
	layerTextindex = "textindex"
	layerSocial    = "social"
	layerKV        = "kvstore"
)

// ladderTolerance bounds how far the sum of a class's self times may
// exceed its client-side median. Self times are clamped at zero, so a
// lower layer measured slower than the one above inflates the sum.
const ladderTolerance = 0.25

// chainOf lists the layers an operation class is timed at.
func chainOf(k Kind) []string {
	switch k {
	case KProfile, KFeed:
		return []string{layerClient, layerServer, layerHive, layerSocial, layerKV}
	case KSearch:
		return []string{layerClient, layerServer, layerHive, layerCore, layerTextindex}
	case KCtxSearch, KPeers, KRelationship, KDigest, KSessions:
		return []string{layerClient, layerServer, layerHive, layerCore}
	default: // writes: core is the whole Store().Batched call, social the write inside it
		return []string{layerClient, layerServer, layerHive, layerCore, layerSocial}
	}
}

// span is one timed call of one sampled operation.
type span struct {
	op    int64 // shared by every span of one operation
	kind  Kind
	layer string
	dur   time.Duration
}

// handlerTransport is an http.RoundTripper that serves requests from a
// handler in this process, so the SDK can drive an in-process platform.
// It adds up the time spent in ServeHTTP; one goroutine uses it at a time.
type handlerTransport struct {
	h    http.Handler
	busy time.Duration
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t0 := time.Now()
	t.h.ServeHTTP(rec, req)
	t.busy += time.Since(t0)
	return rec.Result(), nil
}

// ladder is the traced run's twin deployment: a platform of the same
// shape as the server under test, behind server.New, plus a bare
// social/kv store, all rebuilt from the same seed in this process.
type ladder struct {
	p      *hive.Platform // unsharded twin (nil when sharded)
	sh     *hive.Sharded  // sharded twin
	th     *handlerTransport
	c      *client.Client // SDK over the timed in-process handler
	kv     *kvstore.Store
	st     *social.Store
	buildS float64

	mu      sync.Mutex // guards sampled, which load workers append to
	sampled []sampledOp

	ids   int64
	spans []span
	errs  []string // operations that failed on the twin
	// Extra store samples not on any ladder chain.
	papersOfAuthor []time.Duration
	scans          []time.Duration
	scanKeys       []int
}

func newLadder(ctx context.Context, w *Workload, s *Schedule, dir string) (*ladder, error) {
	l := &ladder{}
	durable := w.Mode == modeDurable || w.Mode == modeReplicated
	opts := hive.Options{}
	if durable {
		opts.Dir = filepath.Join(dir, "platform")
	}
	var h http.Handler
	var err error
	if w.Mode == modeSharded {
		if l.sh, err = hive.OpenSharded(w.Shards, opts); err != nil {
			return nil, err
		}
		h = server.NewSharded(l.sh, server.Config{})
	} else {
		if l.p, err = hive.Open(opts); err != nil {
			return nil, err
		}
		h = server.New(l.p)
	}
	if err := l.refresh(); err != nil {
		l.close()
		return nil, err
	}
	l.th = &handlerTransport{h: h}
	l.c = client.New("http://twin", client.WithHTTPClient(&http.Client{Transport: l.th}))
	if err := httpload.Batch(ctx, l.c, s.Dataset, 256); err != nil {
		l.close()
		return nil, fmt.Errorf("twin load: %w", err)
	}
	t0 := time.Now()
	if err := l.refresh(); err != nil {
		l.close()
		return nil, err
	}
	l.buildS = time.Since(t0).Seconds()

	kvDir := ""
	if durable {
		kvDir = filepath.Join(dir, "store")
	}
	if l.kv, err = kvstore.Open(kvDir); err != nil {
		l.close()
		return nil, err
	}
	l.st = social.NewStore(l.kv, nil)
	if err := s.Dataset.Load(l.st); err != nil {
		l.close()
		return nil, fmt.Errorf("twin store load: %w", err)
	}
	return l, nil
}

func (l *ladder) refresh() error {
	if l.sh != nil {
		return l.sh.Refresh()
	}
	return l.p.Refresh()
}

func (l *ladder) close() {
	if l.sh != nil {
		l.sh.Close()
	}
	if l.p != nil {
		l.p.Close()
	}
	if l.kv != nil {
		l.kv.Close()
	}
}

// sampledOp is a traced-phase operation with its client-side time.
type sampledOp struct {
	op     *Op
	client time.Duration
}

// observe is called by a load worker after each traced-phase operation.
// It only records; replay walks the ladder after the measured window, so
// the ladder's own work does not load the server during it.
func (l *ladder) observe(op *Op, res *result) {
	if res.err != nil || op.Page2 {
		return // a two-page feed has no single-call ladder
	}
	l.mu.Lock()
	l.sampled = append(l.sampled, sampledOp{op, res.latency - res.late})
	l.mu.Unlock()
}

// replay times every recorded operation at each layer of its chain on
// the twin. The spans of one operation share an id.
func (l *ladder) replay() {
	l.mu.Lock()
	sampled := l.sampled
	l.mu.Unlock()
	for _, so := range sampled {
		if err := l.trace(so.op, so.client); err != nil {
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", so.op.Kind, err))
		}
	}
}

// trace walks one operation down its chain. An error leaves the
// operation's spans incomplete, so medians skips it.
func (l *ladder) trace(op *Op, clientDur time.Duration) error {
	l.ids++
	id := l.ids
	rec := func(layer string, d time.Duration) {
		l.spans = append(l.spans, span{op: id, kind: op.Kind, layer: layer, dur: d})
	}
	ctx := context.Background()
	rec(layerClient, clientDur)

	// server: the same request through server.New(twin).ServeHTTP.
	variant := l.variant(op, "s")
	l.th.busy = 0
	var scratch result
	r := &runner{write: l.c, read: l.c, sent: map[string]int64{}}
	if err := r.do(ctx, variant, &scratch); err != nil {
		return err
	}
	rec(layerServer, l.th.busy)

	// hive: the platform method.
	variant = l.variant(op, "h")
	t0 := time.Now()
	if err := l.hiveCall(ctx, variant); err != nil {
		return err
	}
	rec(layerHive, time.Since(t0))

	// core and below.
	variant = l.variant(op, "c")
	if op.Kind.Write() {
		whole, inner, err := l.batchedWrite(variant)
		if err != nil {
			return err
		}
		rec(layerCore, whole)
		rec(layerSocial, inner)
		return nil
	}
	for _, layer := range chainOf(op.Kind)[3:] {
		t0 := time.Now()
		if err := l.lower(layer, variant); err != nil {
			return err
		}
		rec(layer, time.Since(t0))
	}
	if op.User != "" {
		t0 := time.Now()
		l.st.PapersOfAuthor(op.User)
		l.papersOfAuthor = append(l.papersOfAuthor, time.Since(t0))
	}
	return nil
}

// variant copies op with fresh entity IDs, so each layer's write
// creates its own entity instead of overwriting the previous layer's.
func (l *ladder) variant(op *Op, tag string) *Op {
	v := *op
	switch {
	case op.Paper != nil:
		p := *op.Paper
		p.ID += "-" + tag
		v.Paper = &p
	case op.Comment != nil:
		c := *op.Comment
		c.ID += "-" + tag
		v.Comment = &c
	case op.Question != nil:
		q := *op.Question
		q.ID += "-" + tag
		v.Question = &q
	case op.Answer != nil:
		a := *op.Answer
		a.ID += "-" + tag
		v.Answer = &a
	}
	return &v
}

const searchK = pageLimit + 1 // what the paged handlers ask the engine for

func (l *ladder) hiveCall(ctx context.Context, op *Op) error {
	var err error
	if sh := l.sh; sh != nil {
		switch op.Kind {
		case KProfile:
			_, err = sh.GetUser(op.User)
		case KFeed:
			_, _, err = sh.FeedPage(ctx, op.User, "", searchK)
		case KSearch:
			_, err = sh.Search(ctx, op.Query, searchK)
		case KCtxSearch:
			_, err = sh.SearchWithContext(ctx, op.User, op.Query, searchK)
		case KPeers:
			_, err = sh.RecommendPeers(op.User, searchK)
		case KRelationship:
			_, err = sh.Explain(op.User, op.Other)
		case KDigest:
			_, err = sh.UpdateDigest(op.User, digestWords)
		case KSessions:
			_, err = sh.SuggestSessions(op.User, op.Other, searchK)
		case KPublish:
			err = sh.PublishPaper(*op.Paper)
		case KCheckin:
			err = sh.CheckIn(op.Session, op.User)
		case KFollow:
			err = sh.Follow(op.User, op.Other)
		case KComment:
			err = sh.PostComment(*op.Comment)
		case KQuestion:
			err = sh.Ask(*op.Question)
		case KAnswer:
			err = sh.AnswerQuestion(*op.Answer)
		}
		return err
	}
	p := l.p
	switch op.Kind {
	case KProfile:
		_, err = p.GetUser(op.User)
	case KFeed:
		p.Feed(op.User, searchK)
	case KSearch:
		_, err = p.Search(op.Query, searchK)
	case KCtxSearch:
		_, err = p.SearchWithContext(op.User, op.Query, searchK)
	case KPeers:
		_, err = p.RecommendPeers(op.User, searchK)
	case KRelationship:
		_, err = p.Explain(op.User, op.Other)
	case KDigest:
		_, err = p.UpdateDigest(op.User, digestWords)
	case KSessions:
		_, err = p.SuggestSessions(op.User, op.Other, searchK)
	case KPublish:
		err = p.PublishPaper(*op.Paper)
	case KCheckin:
		err = p.CheckIn(op.Session, op.User)
	case KFollow:
		err = p.Follow(op.User, op.Other)
	case KComment:
		err = p.PostComment(*op.Comment)
	case KQuestion:
		err = p.Ask(*op.Question)
	case KAnswer:
		err = p.AnswerQuestion(*op.Answer)
	}
	return err
}

// engines returns the twin's serving snapshots: the one engine, or on a
// sharded twin the engine of the shard owning user (every shard's when
// user is "", as a scatter-gather search visits them all).
func (l *ladder) engines(user string) ([]*core.Engine, error) {
	if l.sh == nil {
		return []*core.Engine{l.p.Snapshot()}, nil
	}
	if user != "" {
		e, err := l.sh.EngineFor(user)
		return []*core.Engine{e}, err
	}
	var out []*core.Engine
	for _, p := range l.sh.Shards() {
		out = append(out, p.Snapshot())
	}
	return out, nil
}

// storeFor is the twin platform store a write lands in.
func (l *ladder) storeFor(op *Op) *social.Store {
	if l.sh != nil {
		return l.sh.Shard(l.sh.ShardOf(op.Owner())).Store()
	}
	return l.p.Store()
}

// batchedWrite times the store write inside Store().Batched against the
// whole Batched call; the difference is the event delivery, which folds
// the delta into the serving snapshot (and, durably, journals it).
func (l *ladder) batchedWrite(op *Op) (whole, inner time.Duration, err error) {
	st := l.storeFor(op)
	t0 := time.Now()
	err = st.Batched(func() error {
		t1 := time.Now()
		var err error
		switch op.Kind {
		case KPublish:
			err = st.PutPaper(*op.Paper)
		case KCheckin:
			err = st.CheckIn(op.Session, op.User)
		case KFollow:
			err = st.Follow(op.User, op.Other)
		case KComment:
			err = st.PostComment(*op.Comment)
		case KQuestion:
			err = st.AskQuestion(*op.Question)
		case KAnswer:
			err = st.PostAnswer(*op.Answer)
		}
		inner = time.Since(t1)
		return err
	})
	return time.Since(t0), inner, err
}

// lower runs a read at one of the layers below hive.
func (l *ladder) lower(layer string, op *Op) error {
	switch layer {
	case layerCore:
		user := op.User
		if op.Kind == KSearch {
			user = ""
		}
		engs, err := l.engines(user)
		if err != nil {
			return err
		}
		for _, e := range engs {
			switch op.Kind {
			case KSearch:
				e.Search(op.Query, searchK)
			case KCtxSearch:
				e.SearchWithContext(op.User, op.Query, searchK)
			case KPeers:
				_, err = e.RecommendPeers(op.User, searchK)
			case KRelationship:
				_, err = e.Explain(op.User, op.Other)
			case KDigest:
				_, err = e.UpdateDigest(op.User, digestWords)
			case KSessions:
				_, err = e.SuggestSessions(op.User, op.Other, searchK)
			}
		}
		return err
	case layerTextindex:
		engs, err := l.engines("")
		if err != nil {
			return err
		}
		for _, e := range engs {
			e.Segment().Search(op.Query, searchK)
		}
	case layerSocial:
		if op.Kind == KProfile {
			_, err := l.st.User(op.User)
			return err
		}
		l.st.Feed(op.User, searchK)
	case layerKV:
		if op.Kind == KProfile {
			_, err := l.kv.Get("user/" + op.User)
			return err
		}
		// The scans Store.Feed issues: the follow index, then each
		// followee's event index.
		l.scan("follow/" + op.User + "/")
		for _, f := range l.st.Following(op.User) {
			l.scan("evactor/" + f + "/")
		}
	}
	return nil
}

func (l *ladder) scan(prefix string) {
	n := 0
	t0 := time.Now()
	l.kv.Scan(prefix, func(string, []byte) bool { n++; return true })
	l.scans = append(l.scans, time.Since(t0))
	l.scanKeys = append(l.scanKeys, n)
}

// medians returns, per class and layer, the median span in ms and the
// number of complete operations behind it.
func (l *ladder) medians() (map[Kind]map[string]float64, map[Kind]int) {
	byOp := map[int64][]span{}
	for _, s := range l.spans {
		byOp[s.op] = append(byOp[s.op], s)
	}
	samples := map[Kind]map[string][]float64{}
	counts := map[Kind]int{}
	for _, ss := range byOp {
		k := ss[0].kind
		if len(ss) != len(chainOf(k)) {
			continue // incomplete ladder
		}
		if samples[k] == nil {
			samples[k] = map[string][]float64{}
		}
		counts[k]++
		for _, s := range ss {
			samples[k][s.layer] = append(samples[k][s.layer], ms(s.dur))
		}
	}
	out := map[Kind]map[string]float64{}
	for k, layers := range samples {
		out[k] = map[string]float64{}
		for layer, xs := range layers {
			out[k][layer] = quantile(xs, 0.5)
		}
	}
	return out, counts
}

// selfTimes derives per-layer self times from a class's medians.
func selfTimes(k Kind, med map[string]float64) map[string]float64 {
	chain := chainOf(k)
	self := map[string]float64{}
	for i, layer := range chain {
		below := 0.0
		if i+1 < len(chain) {
			below = med[chain[i+1]]
		}
		self[layer] = max(0, med[layer]-below)
	}
	return self
}

// checkSums verifies, for every traced class, that the ladder's self
// times add up to the client-side median within ladderTolerance, and
// prints the layer table.
func (l *ladder) checkSums() []string {
	med, counts := l.medians()
	var bad []string
	if len(l.errs) > 0 {
		bad = append(bad, fmt.Sprintf("%d operations failed on the twin, first: %s", len(l.errs), l.errs[0]))
	}
	fmt.Println("# layer ladder: self time per layer (ms, medians of sampled ops)")
	fmt.Printf("  %-12s %5s %9s %9s %9s %9s %9s %9s %9s %9s %7s\n", "op", "n", "client", "server", "hive", "core", "textidx", "social", "kvstore", "sum", "ratio")
	for k := Kind(0); k < numKinds; k++ {
		m, ok := med[k]
		if !ok {
			continue
		}
		self := selfTimes(k, m)
		var sum float64
		for _, v := range self {
			sum += v
		}
		ratio := sum / m[layerClient]
		cell := func(layer string) string {
			if v, ok := self[layer]; ok {
				return fmt.Sprintf("%9.4f", v)
			}
			return fmt.Sprintf("%9s", "-")
		}
		fmt.Printf("  %-12s %5d %s %s %s %s %s %s %s %9.4f %7.3f\n", k, counts[k],
			cell(layerClient), cell(layerServer), cell(layerHive), cell(layerCore), cell(layerTextindex),
			cell(layerSocial), cell(layerKV), sum, ratio)
		if ratio > 1+ladderTolerance {
			bad = append(bad, fmt.Sprintf("%s: self times sum to %.4f ms, %.0f%% above the client median %.4f ms",
				k, sum, 100*(ratio-1), m[layerClient]))
		}
	}
	return bad
}
