// Command hivebench-e2e is Hive's end-to-end benchmark. It starts the
// hived binary under test in its own process(es), loads a seeded
// synthetic dataset over the v1 batch API, drives the client SDK over
// real HTTP with an open-loop phase at a fixed rate and a closed-loop
// phase, checks the final state against an in-process reference
// platform, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash hivebench-e2e/run.sh --workload browse --seed 1 --seconds 14 --trace 0
//
// --trace 1 runs the layer ladder instead and reports per-layer metrics.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	modeMemory     = "memory"
	modeDurable    = "durable"
	modeSharded    = "sharded"
	modeReplicated = "replicated"
)

// Workload is one traffic mix over one deployment shape.
type Workload struct {
	Name  string
	Users int
	Mode  string
	// Shards is the shard count of a sharded deployment.
	Shards int
	// CompactInterval is hived's -compact-interval (0 disables the loop).
	CompactInterval time.Duration
	// Rate is the open-loop arrival rate in operations per second: fixed
	// here (about a third of the closed-loop peak measured on a 2-core
	// x86-64 VM) and never derived at run time.
	Rate float64
	// ClosedOps is the fixed operation count of the closed-loop phase.
	ClosedOps int
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median, and the last deployment serves the run.
	SetupReps int
	Mix       []weighted
	UserZipf  float64 // popularity skew of acting users (0 = uniform)
	OwnerZipf float64 // skew of paper owners (shard placement)
	Page2Frac float64 // share of feed reads that fetch a second page
	ProbeFrac float64 // share of eligible writes whose visibility is timed
}

var workloads = []*Workload{
	{
		Name: "browse", Users: 256, Mode: modeMemory, Rate: 55, ClosedOps: 1000, SetupReps: 3,
		Mix: []weighted{
			{KProfile, 20}, {KSearch, 24}, {KCtxSearch, 16}, {KFeed, 48}, {KDigest, 24},
			{KSessions, 22}, {KRelationship, 25}, {KPeers, 1},
			{KCheckin, 8}, {KFollow, 6}, {KComment, 6},
		},
		UserZipf: 1.1, OwnerZipf: 1.1, ProbeFrac: 0.6,
	},
	{
		Name: "ingest", Users: 64, Mode: modeDurable, CompactInterval: 500 * time.Millisecond,
		Rate: 75, ClosedOps: 3000, SetupReps: 5,
		Mix: []weighted{
			{KPublish, 24}, {KComment, 12}, {KQuestion, 10}, {KAnswer, 8}, {KCheckin, 8}, {KFollow, 8},
			{KSearch, 20}, {KFeed, 10},
		},
		OwnerZipf: 1.1, ProbeFrac: 0.5,
	},
	{
		Name: "sharded", Users: 64, Mode: modeSharded, Shards: 4, Rate: 135, ClosedOps: 4000, SetupReps: 5,
		Mix: []weighted{
			{KPublish, 50}, {KSearch, 20}, {KCtxSearch, 10}, {KFeed, 20},
		},
		UserZipf: 1.1, OwnerZipf: 1.2, Page2Frac: 0.5, ProbeFrac: 0.3,
	},
	{
		Name: "replicated", Users: 64, Mode: modeReplicated,
		Rate: 160, ClosedOps: 2500, SetupReps: 3,
		Mix: []weighted{
			{KPublish, 20}, {KCheckin, 5}, {KFollow, 5},
			{KProfile, 10}, {KSearch, 30}, {KCtxSearch, 10}, {KFeed, 20},
		},
		UserZipf: 1.1, OwnerZipf: 1.1, ProbeFrac: 0.5,
	},
}

func findWorkload(name string) (*Workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the dataset and the operation schedule")
	seconds := flag.Int("seconds", 14, "open-loop duration in seconds (sets the open-loop op count)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("hived", filepath.Join(".bench_build", "hived"), "hived binary under test")
	work := flag.String("workdir", ".bench_build", "scratch directory for server data and logs")
	digest := flag.Bool("digest", false, "print the schedule digest and exit")
	flag.Parse()
	// The load generator shares the host's CPUs with the server under
	// test; collecting its garbage less often keeps it out of the
	// server's way.
	debug.SetGCPercent(400)

	w, err := findWorkload(*wname)
	if err != nil {
		fatal(err)
	}
	sched := BuildSchedule(w, *seed, *seconds)
	if *digest {
		fmt.Println(sched.Digest())
		return
	}
	if _, err := os.Stat(*bin); err != nil {
		fatal(fmt.Errorf("hived binary: %w", err))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	runDir, err := os.MkdirTemp(*work, "run-"+w.Name+"-")
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, w, sched, *bin, runDir, *trace == 1)
	stop()
	if rmErr := os.RemoveAll(runDir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hivebench-e2e:", err)
	os.Exit(1)
}

// printMetrics writes the human-readable metric lines, sorted by name.
func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s\n", title)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func nproc() int { return runtime.NumCPU() }
