package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hive/api"
	"hive/client"
	"hive/internal/workload"
	"hive/internal/workload/httpload"
)

// node is one hived process under test.
type node struct {
	cmd  *exec.Cmd
	url  string
	logf *os.File
	done chan struct{} // closed once the process has been reaped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startNode(bin, runDir, name string, port int, args []string) (*node, error) {
	logf, err := os.Create(filepath.Join(runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-quiet"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	n := &node{cmd: cmd, url: url, logf: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(n.done)
	}()
	return n, nil
}

// stop kills the process and waits until it has been reaped.
func (n *node) stop() {
	select {
	case <-n.done:
	default:
		_ = n.cmd.Process.Kill() // fails only if the process already exited
		<-n.done
	}
	n.logf.Close()
}

func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// peakRSSMB reads the kernel's resident-set high-water mark of the
// process (VmHWM).
func (n *node) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// deployment is the set of server processes of one workload: nodes[0]
// takes writes, reads go to reader (the follower on replicated).
type deployment struct {
	dir    string // holds every node's data dir and log
	nodes  []*node
	writer *node
	reader *node
}

func (d *deployment) stop() {
	for _, n := range d.nodes {
		n.stop()
	}
}

func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, n := range d.nodes {
		mb, err := n.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// ctlClient is the benchmark's control-plane client (health polls,
// refreshes, scrapes), separate from the load generator's connections.
var ctlClient = &http.Client{Timeout: 60 * time.Second}

func waitUntil(ctx context.Context, what string, limit time.Duration, nodes []*node, ok func() bool) error {
	deadline := time.Now().Add(limit)
	for !ok() {
		for _, n := range nodes {
			if n.exited() {
				return fmt.Errorf("%s: server exited (see %s)", what, n.logf.Name())
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not reached within %v", what, limit)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

func health(ctx context.Context, url string) (api.Health, error) {
	return client.New(url, client.WithHTTPClient(ctlClient)).Healthz(ctx)
}

func clusterStatus(ctx context.Context, url string) (api.ClusterStatus, error) {
	return client.New(url, client.WithHTTPClient(ctlClient)).ClusterStatus(ctx)
}

// deploy starts the workload's servers, loads the dataset over the v1
// batch API and waits until a full snapshot of it is serving. The
// returned duration is setup_s for this deployment.
func deploy(ctx context.Context, w *Workload, bin, runDir string, ds *workload.Dataset) (*deployment, time.Duration, error) {
	d := &deployment{}
	t0 := time.Now()
	var err error
	if w.Mode == modeReplicated {
		err = deployReplicated(ctx, d, w, bin, runDir, ds)
	} else {
		err = deploySingle(ctx, d, w, bin, runDir, ds)
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// deploySingle brings up one hived: in memory, durable, or sharded.
func deploySingle(ctx context.Context, d *deployment, w *Workload, bin, runDir string, ds *workload.Dataset) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	args := []string{"-compact-interval", fmt.Sprint(w.CompactInterval)}
	if w.Mode == modeDurable {
		args = append(args, "-data", filepath.Join(runDir, "data"))
	}
	if w.Mode == modeSharded {
		args = append(args, "-shards", fmt.Sprint(w.Shards))
	}
	n, err := startNode(bin, runDir, "hived", port, args)
	if err != nil {
		return err
	}
	d.nodes = []*node{n}
	d.writer, d.reader = n, n
	if err := waitUntil(ctx, "hived ready", 30*time.Second, d.nodes, func() bool {
		h, err := health(ctx, n.url)
		return err == nil && h.Snapshot
	}); err != nil {
		return err
	}
	if err := httpload.Batch(ctx, client.New(n.url, client.WithHTTPClient(ctlClient)), ds, 256); err != nil {
		return fmt.Errorf("load dataset: %w", err)
	}
	return d.settle(ctx)
}

// leaseTTL is the replicated cluster's election lease time-to-live.
const leaseTTL = time.Second

// deployReplicated brings up an elected leader with -quorum 1 and one
// follower holding the dataset. A batch under -quorum never completes:
// each entity's quorum wait runs inside the batch's deferred-delivery
// scope, so its sequence is journaled (and can be acknowledged) only
// after the scope ends. The leader's data dir is therefore loaded by a
// standalone durable node first; the cluster leader then reopens it and
// the empty follower bootstraps from the leader's snapshot.
func deployReplicated(ctx context.Context, d *deployment, w *Workload, bin, runDir string, ds *workload.Dataset) error {
	var ports [2]int
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return err
		}
		ports[i] = p
	}
	compact := fmt.Sprint(w.CompactInterval)
	leaderDir := filepath.Join(runDir, "leader")
	loader, err := startNode(bin, runDir, "loader", ports[0], []string{"-data", leaderDir, "-compact-interval", compact})
	if err != nil {
		return err
	}
	err = waitUntil(ctx, "loader ready", 30*time.Second, []*node{loader}, func() bool {
		h, err := health(ctx, loader.url)
		return err == nil && h.Snapshot
	})
	if err == nil {
		err = httpload.Batch(ctx, client.New(loader.url, client.WithHTTPClient(ctlClient)), ds, 256)
	}
	loader.stop()
	if err != nil {
		return fmt.Errorf("load dataset: %w", err)
	}

	urls := [2]string{fmt.Sprintf("http://127.0.0.1:%d", ports[0]), fmt.Sprintf("http://127.0.0.1:%d", ports[1])}
	lease := filepath.Join(runDir, "lease")
	for i, name := range []string{"leader", "follower"} {
		spec := fmt.Sprintf("self=%s,peers=%s,lease=%s,ttl=%v", urls[i], urls[1-i], lease, leaseTTL)
		n, err := startNode(bin, runDir, name, ports[i], []string{
			"-data", filepath.Join(runDir, name), "-compact-interval", compact,
			"-cluster", spec, "-quorum", "1"})
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, n)
		want := api.RoleLeader
		if i == 1 {
			want = api.RoleFollower
		}
		// The leader starts alone so it wins the election; the follower
		// joins once the term is settled.
		if err := waitUntil(ctx, name+" role", 30*time.Second, d.nodes, func() bool {
			cs, err := clusterStatus(ctx, n.url)
			return err == nil && cs.Role == want && cs.LeaderURL == urls[0]
		}); err != nil {
			return err
		}
	}
	d.writer, d.reader = d.nodes[0], d.nodes[1]
	return d.settle(ctx)
}

// settle makes every node serve a full snapshot of everything written so
// far: followers first catch up to the leader's journal tail, then each
// node compacts synchronously.
func (d *deployment) settle(ctx context.Context) error {
	if len(d.nodes) > 1 {
		lh, err := health(ctx, d.writer.url)
		if err != nil {
			return fmt.Errorf("leader health: %w", err)
		}
		tail := lh.Replication.JournalTail
		if err := waitUntil(ctx, "follower catch-up", 30*time.Second, d.nodes, func() bool {
			h, err := health(ctx, d.reader.url)
			return err == nil && h.Replication.AppliedSeq >= tail
		}); err != nil {
			return err
		}
	}
	for _, n := range d.nodes {
		if err := client.New(n.url, client.WithHTTPClient(ctlClient)).Refresh(ctx, true); err != nil {
			return fmt.Errorf("refresh %s: %w", n.url, err)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under root whose path
// passes keep (missing roots count as zero).
func dirBytes(root string, keep func(path string) bool) int64 {
	var total int64
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && keep(path) {
			total += info.Size()
		}
		return nil // a file removed mid-walk (a compacted segment) is skipped
	})
	return total
}
