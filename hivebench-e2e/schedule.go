package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hive/api"
	"hive/internal/workload"
)

// Kind is an operation class of the schedule.
type Kind int

const (
	KProfile Kind = iota
	KFeed
	KSearch
	KCtxSearch
	KPeers
	KRelationship
	KDigest
	KSessions
	KPublish
	KCheckin
	KFollow
	KComment
	KQuestion
	KAnswer
	numKinds
)

var kindNames = [numKinds]string{
	"profile", "feed", "search", "ctx_search", "peers", "relationship", "digest", "sessions",
	"publish", "checkin", "follow", "comment", "question", "answer",
}

func (k Kind) String() string { return kindNames[k] }

// Write reports whether the kind mutates the store.
func (k Kind) Write() bool { return k >= KPublish }

// Op is one scheduled operation. Every field is derived from the seed.
type Op struct {
	Kind Kind
	// Due is the open-loop send time, relative to the phase start (zero
	// in the closed loop).
	Due   time.Duration `json:",omitempty"`
	User  string        `json:",omitempty"` // actor or subject
	Other string        `json:",omitempty"` // second user or conference
	Query string        `json:",omitempty"`
	// Page2 fetches a second feed page on the first page's cursor.
	Page2 bool `json:",omitempty"`

	Paper    *api.Paper    `json:",omitempty"`
	Comment  *api.Comment  `json:",omitempty"`
	Question *api.Question `json:",omitempty"`
	Answer   *api.Answer   `json:",omitempty"`
	Session  string        `json:",omitempty"`

	// Probe marks a sampled write whose visibility is timed: a publish
	// is looked up by its unique Token, a check-in or follow in the
	// feed of Watcher (a follower of the actor).
	Probe   bool   `json:",omitempty"`
	Token   string `json:",omitempty"`
	Watcher string `json:",omitempty"`
}

// Owner is the user whose shard owns a write.
func (op *Op) Owner() string {
	if op.Paper != nil {
		return op.Paper.Authors[0]
	}
	return op.User
}

// warmOps is the number of untimed reads that open every run.
const warmOps = 60

// Schedule is everything a run sends, derived from one seed.
type Schedule struct {
	workload *Workload
	Dataset  *workload.Dataset
	Warm     []Op // untimed reads before the first scrape
	Open     []Op // open-loop phase, with due times
	Closed   []Op // closed-loop phase
	// ProbeQueries and SampleUsers drive the correctness oracle.
	ProbeQueries []string
	SampleUsers  []string
}

// weighted is one entry of a traffic mix.
type weighted struct {
	kind   Kind
	weight int
}

// zipfV flattens the head of the popularity curves, P(rank k) ∝
// (zipfV+k)^-s: at s=1.1 the most popular of 256 users draws about 1.6%
// of requests and the ten most popular about 14% (21% and 55% with a
// pure Zipf), so a few users' data do not decide a run's medians.
const zipfV = 32

// gen draws operations for one workload from one random stream.
type gen struct {
	w     *Workload
	rng   *rand.Rand
	ds    *workload.Dataset
	users []string   // popularity order: users[0] is the most popular
	zipf  *rand.Zipf // nil: acting users are uniform
	owner *rand.Zipf

	followers map[string][]string // followee -> followers in the dataset
	follows   map[[2]string]bool
	papers    []string
	questions []string
	n         int // ids minted so far
}

func newGen(w *Workload, seed int64) *gen {
	ds := workload.Generate(workload.Config{Seed: seed, Users: w.Users})
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	g := &gen{w: w, rng: rng, ds: ds, followers: map[string][]string{}, follows: map[[2]string]bool{}}
	for _, u := range ds.Users {
		g.users = append(g.users, u.ID)
	}
	rng.Shuffle(len(g.users), func(i, j int) { g.users[i], g.users[j] = g.users[j], g.users[i] })
	if w.UserZipf > 0 {
		g.zipf = rand.NewZipf(rng, w.UserZipf, zipfV, uint64(len(g.users)-1))
	}
	g.owner = rand.NewZipf(rng, w.OwnerZipf, zipfV, uint64(len(g.users)-1))
	for _, f := range ds.Follows {
		if f[0] != f[1] && !g.follows[f] {
			g.follows[f] = true
			g.followers[f[1]] = append(g.followers[f[1]], f[0])
		}
	}
	for _, p := range ds.Papers {
		g.papers = append(g.papers, p.ID)
	}
	for _, q := range ds.Questions {
		g.questions = append(g.questions, q.ID)
	}
	return g
}

// popular draws an acting user: Zipf-popular, or uniform when the
// workload sets no skew.
func (g *gen) popular() string {
	if g.zipf == nil {
		return g.anyUser()
	}
	return g.users[g.zipf.Uint64()]
}

func (g *gen) anyUser() string { return g.users[g.rng.Intn(len(g.users))] }
func (g *gen) anyPaper() string {
	return g.papers[g.rng.Intn(len(g.papers))]
}

func (g *gen) query() string {
	t := workload.Topics[g.rng.Intn(len(workload.Topics))]
	q := t.Terms[g.rng.Intn(len(t.Terms))]
	if g.rng.Intn(2) == 0 {
		q += " " + t.Terms[g.rng.Intn(len(t.Terms))]
	}
	return q
}

// token mints a word no generated text contains: consonants only,
// prefixed "zq", unique per run by construction of the counter suffix.
func (g *gen) token() string {
	const letters = "bcdfghjklmnpqrtvwxz"
	var b strings.Builder
	b.WriteString("zq")
	for i := 0; i < 5; i++ {
		b.WriteByte(letters[g.rng.Intn(len(letters))])
	}
	for n := g.n; ; n /= len(letters) {
		b.WriteByte(letters[n%len(letters)])
		if n < len(letters) {
			break
		}
	}
	return b.String()
}

// kinds returns n operation kinds in exactly the mix's proportions
// (largest remainders round), in seeded random order. An exact mix keeps
// each percentile at the same rank of the same classes on every seed.
func (g *gen) kinds(n int, keep func(Kind) bool) []Kind {
	var mix []weighted
	total := 0
	for _, m := range g.w.Mix {
		if keep(m.kind) {
			mix = append(mix, m)
			total += m.weight
		}
	}
	counts := make([]int, len(mix))
	type rem struct{ i, frac int }
	var rems []rem
	left := n
	for i, m := range mix {
		counts[i] = n * m.weight / total
		left -= counts[i]
		rems = append(rems, rem{i, n * m.weight % total})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].i]++
	}
	var out []Kind
	for i, m := range mix {
		for j := 0; j < counts[i]; j++ {
			out = append(out, m.kind)
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// watcher returns a dataset follower of u, or "" when u has none.
func (g *gen) watcher(u string) string {
	fs := g.followers[u]
	if len(fs) == 0 {
		return ""
	}
	return fs[g.rng.Intn(len(fs))]
}

func (g *gen) op(k Kind, probes bool) Op {
	op := Op{Kind: k}
	g.n++
	switch k {
	case KProfile, KPeers, KDigest:
		op.User = g.popular()
	case KFeed:
		op.User = g.popular()
		op.Page2 = g.rng.Float64() < g.w.Page2Frac
	case KSearch:
		op.Query = g.query()
	case KCtxSearch:
		op.User, op.Query = g.popular(), g.query()
	case KRelationship:
		op.User = g.popular()
		for op.Other = g.anyUser(); op.Other == op.User; op.Other = g.anyUser() {
		}
	case KSessions:
		op.User = g.popular()
		op.Other = g.ds.Conferences[g.rng.Intn(len(g.ds.Conferences))].ID
	case KPublish:
		owner := g.users[g.owner.Uint64()]
		t := g.rng.Intn(len(workload.Topics))
		terms := workload.Topics[t].Terms
		op.Token = g.token()
		sess := g.ds.Sessions[g.rng.Intn(len(g.ds.Sessions))]
		words := make([]string, 0, 12)
		for i := 0; i < 10; i++ {
			words = append(words, terms[g.rng.Intn(len(terms))])
		}
		op.Paper = &api.Paper{
			ID:           fmt.Sprintf("bp%05d", g.n),
			Title:        fmt.Sprintf("%s %s %s", terms[g.rng.Intn(len(terms))], terms[g.rng.Intn(len(terms))], op.Token),
			Abstract:     strings.Join(words, " "),
			Authors:      []string{owner},
			ConferenceID: sess.ConferenceID,
			SessionID:    sess.ID,
			Citations:    []string{g.anyPaper()},
			Year:         2013,
		}
		op.Probe = probes && g.rng.Float64() < g.w.ProbeFrac
	case KCheckin:
		op.User = g.popular()
		op.Session = g.ds.Sessions[g.rng.Intn(len(g.ds.Sessions))].ID
		op.Watcher = g.watcher(op.User)
		op.Probe = probes && op.Watcher != "" && g.rng.Float64() < g.w.ProbeFrac
	case KFollow:
		for {
			op.User, op.Other = g.popular(), g.anyUser()
			pair := [2]string{op.User, op.Other}
			if op.User != op.Other && !g.follows[pair] {
				g.follows[pair] = true
				break
			}
		}
		op.Watcher = g.watcher(op.User)
		op.Probe = probes && op.Watcher != "" && g.rng.Float64() < g.w.ProbeFrac
	case KComment:
		op.Comment = &api.Comment{ID: fmt.Sprintf("bc%05d", g.n), Author: g.popular(),
			Target: g.anyPaper(), Text: "comment on " + g.query()}
	case KQuestion:
		op.Question = &api.Question{ID: fmt.Sprintf("bq%05d", g.n), Author: g.popular(),
			Target: g.anyPaper(), Text: "how does this handle " + g.query() + "?"}
	case KAnswer:
		op.Answer = &api.Answer{ID: fmt.Sprintf("ba%05d", g.n), Author: g.popular(),
			QuestionID: g.questions[g.rng.Intn(len(g.questions))], Text: "it uses " + g.query()}
	}
	if !op.Kind.Write() || !op.Probe {
		op.Watcher = "" // only probes read a watcher's feed
		if op.Kind != KPublish {
			op.Token = ""
		}
	}
	return op
}

// BuildSchedule derives the dataset and both phases' operations from
// the seed. The open loop holds rate × seconds operations due at evenly
// spaced times, the workload's fixed rate; the closed loop holds the
// workload's fixed operation count.
func BuildSchedule(w *Workload, seed int64, seconds int) *Schedule {
	g := newGen(w, seed)
	s := &Schedule{workload: w, Dataset: g.ds}
	n := int(math.Round(w.Rate * float64(seconds)))
	all := func(Kind) bool { return true }
	for i, k := range g.kinds(n, all) {
		op := g.op(k, true)
		op.Due = time.Duration(float64(i) / w.Rate * float64(time.Second))
		s.Open = append(s.Open, op)
	}
	for _, k := range g.kinds(w.ClosedOps, all) {
		s.Closed = append(s.Closed, g.op(k, false))
	}
	for _, k := range g.kinds(warmOps, func(k Kind) bool { return !k.Write() }) {
		s.Warm = append(s.Warm, g.op(k, false))
	}
	for i := 0; i < 8; i++ {
		s.ProbeQueries = append(s.ProbeQueries, g.query())
	}
	seen := map[string]bool{}
	for len(s.SampleUsers) < 6 {
		if u := g.popular(); !seen[u] {
			seen[u] = true
			s.SampleUsers = append(s.SampleUsers, u)
		}
	}
	return s
}

// Digest fingerprints the schedule: the dataset, every operation with
// its due time, and the oracle's probes.
func (s *Schedule) Digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{s.Dataset, s.Warm, s.Open, s.Closed, s.ProbeQueries, s.SampleUsers} {
		if err := enc.Encode(v); err != nil {
			panic(err) // plain structs of strings and numbers always encode
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
