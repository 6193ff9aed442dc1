package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"amoeba/internal/obs"
	"amoeba/internal/rpc"
)

// closedWorkload is a system under a closed loop: each client sends its
// next operation when the previous one returns.
type closedWorkload interface {
	// setup boots the system and populates it; it is what setup_s times.
	setup(ctx context.Context) error
	clients() int
	// next draws client w's next operation from its generator.
	next(w int) op
	// do performs one operation and checks its reply against the
	// generated input (errMismatch when it disagrees).
	do(ctx context.Context, w int, o op) error
	// check verifies the system's final state after the load.
	check(ctx context.Context) []string
	// read records the system's counters (see layers.go).
	read(c counters) error
	// kind says which network carries the load.
	kind() (simnet, tcp bool)
	// shipLag returns the replication lag in records now, if the
	// system replicates.
	shipLag() (float64, bool)
	// requests dumps up to n of the newest server access-log records.
	requests(n int) ([]obs.ReqRecord, error)
	// ringSize is the access-log capacity requests can reach, and
	// pollEvery how often a traced run must read it so that the ring
	// does not wrap between reads.
	ringSize() int
	pollEvery() time.Duration
	// clientMachines are the machine ids the load comes from.
	clientMachines() map[uint32]bool
	close()
}

// accessLogTraced is the in-process access-log ring size for traced
// runs: large enough that polling every traceEvery misses nothing.
const (
	accessLogTraced = 1 << 16
	traceEvery      = 50 * time.Millisecond
	shipLagEvery    = 20 * time.Millisecond
)

// amoebadTraceEvery is how often tcp_read reads amoebad's 1,024-record
// ring: at about 16,000 operations per second and 1.5 records per
// operation (a ReadAt leaves a nested block record), about 500 records
// arrive in between.
const amoebadTraceEvery = 20 * time.Millisecond

// runClosed drives every client of w in a closed loop for d. With a
// tracer, each call carries a minted request id and leaves a span.
func runClosed(ctx context.Context, w closedWorkload, d time.Duration, tr *tracer) summary {
	n := w.clients()
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		recs[c] = &recorder{lat: make([]int64, 0, 1<<14)}
		wg.Add(1)
		go func(r *recorder, c int) {
			defer wg.Done()
			for {
				o := w.next(c)
				cctx := ctx
				var id uint64
				if tr != nil {
					id = tr.mint()
					cctx = rpc.ContextWithRequestID(ctx, id)
				}
				t0 := time.Now()
				err := w.do(cctx, c, o)
				t1 := time.Now()
				if err != nil {
					r.fail(err)
				} else {
					r.ok(t1.Sub(t0))
				}
				if tr != nil {
					tr.record(c, span{id: id, start: t0.UnixNano(), dur: int64(t1.Sub(t0)), kind: o.kind, ok: err == nil})
				}
				if !t1.Before(deadline) {
					return
				}
			}
		}(recs[c], c)
	}
	wg.Wait()
	return merge(time.Since(start), recs...)
}

// standUp makes a fresh instance of the workload and sets it up; the
// set-up time is what setup_s reports.
func standUp(ctx context.Context, cfg config) (closedWorkload, float64, error) {
	w, err := closedWorkloads[cfg.workload](cfg)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC() // the previous instance's garbage is not this set-up's
	t0 := time.Now()
	if err := w.setup(ctx); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0).Seconds()
	runtime.GC()
	return w, setup, nil
}

// instanceResult is what one instance of an untraced closed-loop run
// reports to the run that started it.
type instanceResult struct {
	Setup     float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Fails     [numFailKinds]int  `json:"fails"`
	FirstErr  string             `json:"first_error,omitempty"`
	Elapsed   time.Duration      `json:"elapsed_ns"`
	Metrics   map[string]float64 `json:"metrics"` // see partMetrics
	Notes     map[string]string  `json:"notes,omitempty"`
	Steal     float64            `json:"steal_pct"`
	Wrong     []string           `json:"wrong,omitempty"`
}

// runInstance stands the workload up in this process, measures it for
// cfg.instance and checks its final state.
func runInstance(ctx context.Context, cfg config) (*instanceResult, error) {
	if closedWorkloads[cfg.workload] == nil {
		return nil, fmt.Errorf("%q is not a closed-loop workload", cfg.workload)
	}
	w, setup, err := standUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	st := readSteal()
	s := runClosed(ctx, w, cfg.instance, nil)
	steal, _ := st.pctSince()
	res := &instanceResult{Setup: setup, Attempted: s.attempted, Fails: s.fails, Elapsed: s.elapsed,
		Notes: map[string]string{}, Steal: steal, Wrong: w.check(ctx)}
	res.Metrics = partMetrics(s, res.Notes)
	if s.firstErr != nil {
		res.FirstErr = s.firstErr.Error()
	}
	return res, nil
}

// unitEnv marks a process started by spawn; a test binary started so
// runs the unit instead of its tests (see TestMain).
const unitEnv = "PERFBENCH_UNIT"

// unitGrace is how long a measured unit may take beyond its measured
// time (set-up, checks, shutdown) before it is killed.
const unitGrace = 60 * time.Second

// spawn runs one measured unit of a run — a closed-loop instance or a
// failover kill cycle — in a fresh process: this program run again
// with args. The process is confined to cpu (when cpu ≥ 0), with any
// daemon it starts; spawn waits for both to end and decodes the JSON
// the unit printed into out.
func spawn(ctx context.Context, args []string, limit time.Duration, cpu int, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, limit+unitGrace)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), unitEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// Its own process group, so that a kill on timeout takes amoebad
	// with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	if cpu >= 0 {
		err = startOn(cpu, cmd.Start)
	} else {
		err = cmd.Start()
	}
	if err != nil {
		return fmt.Errorf("starting unit process: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("unit process: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("unit process printed %q: %w", stdout.Bytes(), err)
	}
	return nil
}

// spawnInstance measures one instance of cfg's workload for d in a
// fresh process on cpu (see spawn).
func spawnInstance(ctx context.Context, cfg config, d time.Duration, cpu int) (*instanceResult, error) {
	var res instanceResult
	err := spawn(ctx, []string{"--workload", cfg.workload, "--seed", strconv.FormatInt(int64(cfg.seed), 10),
		"--instance", d.String(), "--amoebad", cfg.amoebad}, d, cpu, &res)
	return &res, err
}

// addInstance folds instance k's counts, notes and failed checks into
// a run's outcome.
func (out *outcome) addInstance(k int, r *instanceResult) {
	for name, why := range r.Notes {
		out.notes[name] = why
	}
	for _, line := range r.Wrong {
		out.wrong = append(out.wrong, fmt.Sprintf("instance %d: %s", k, line))
	}
	out.sum.attempted += r.Attempted
	for i, f := range r.Fails {
		out.sum.fails[i] += f
	}
	if out.sum.firstErr == nil && r.FirstErr != "" {
		out.sum.firstErr = errors.New(r.FirstErr)
	}
	out.sum.elapsed += r.Elapsed
}

// runClosedWorkload measures instances of the workload one after
// another, each in a fresh process, or, when traced, one instance in
// this process in an untraced and a traced half.
func runClosedWorkload(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
	if !cfg.trace {
		// Each instance runs on one CPU, amoebad included, taking the
		// CPUs in turn. Spread over two vCPUs, tcp_read's client and
		// daemon wake each other across them, and how long a wake-up
		// takes depends on the host's load: its p999 moved by a third
		// between runs made minutes apart, and its instances fell into
		// two modes (p99 about 90 and 160 µs). On one CPU the p99 was
		// 55-110 µs.
		var cpus []int
		if m, err := threadAffinity(); err == nil {
			cpus = m.cpus()
		}
		steal := readSteal()
		n := max(1, int(cfg.seconds/instanceLen))
		var setups, steals []float64
		var parts []map[string]float64
		for k := 0; k < n; k++ {
			cpu := -1
			if len(cpus) > 0 {
				cpu = cpus[k%len(cpus)]
			}
			r, err := spawnInstance(ctx, cfg, cfg.seconds/time.Duration(n), cpu)
			if err != nil {
				return nil, fmt.Errorf("instance %d: %w", k, err)
			}
			out.addInstance(k, r)
			setups = append(setups, r.Setup)
			steals = append(steals, r.Steal)
			parts = append(parts, r.Metrics)
		}
		out.info = append(out.info, steal.since(), fmt.Sprintf("host: vCPU steal %% per instance: %.1f", steals))
		endToEndMetrics(out, parts, setups)
		return out, nil
	}

	w, _, err := standUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Phase A, untraced: counter deltas give the per-layer metrics.
	half := cfg.seconds / 2
	before := counters{}
	before.readProc()
	if err := w.read(before); err != nil {
		return nil, err
	}
	lagMax, haveLag := 0.0, false
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	lagWG.Add(1)
	go func() {
		defer lagWG.Done()
		tk := time.NewTicker(shipLagEvery)
		defer tk.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tk.C:
				if v, ok := w.shipLag(); ok {
					lagMax, haveLag = max(lagMax, v), true
				}
			}
		}
	}()
	out.sum = runClosed(ctx, w, half, nil)
	close(stopLag)
	lagWG.Wait()
	after := counters{}
	after.readProc()
	if err := w.read(after); err != nil {
		return nil, err
	}
	simnet, tcp := w.kind()
	for k, v := range layerMetrics(after.sub(before), float64(len(out.sum.lat)), simnet, tcp) {
		out.metrics[k] = v
	}
	if haveLag {
		out.metrics["repl.ship_lag_max"] = lagMax
	}
	out.metrics["fail_ratio"] = out.sum.failRatio()

	// Phase B, traced: spans joined with the servers' access logs.
	tr := newTracer(w.clients(), w.requests, w.ringSize())
	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() { pollErr <- tr.poll(w.pollEvery(), stop) }()
	traced := runClosed(ctx, w, half, tr)
	close(stop)
	if err := <-pollErr; err != nil {
		return nil, fmt.Errorf("collecting access log: %w", err)
	}
	addTraceMetrics(out, tr, traced, w.clientMachines(), tcp)
	out.wrong = w.check(ctx)
	if traced.failed() > 0 {
		out.wrong = append(out.wrong, fmt.Sprintf("%d of %d traced operations failed: %v", traced.failed(), traced.attempted, traced.firstErr))
	}
	return out, nil
}

// addTraceMetrics joins the traced phase and reports the trace.*
// metrics beside the untraced phase's end-to-end numbers.
func addTraceMetrics(out *outcome, tr *tracer, traced summary, clients map[uint32]bool, nested bool) {
	st := tr.join(clients, opRead, nested)
	st.metrics(out.metrics, out.notes, nested)
	untraced := out.sum.opsPerSec()
	out.metrics["trace.overhead_pct"] = 100 * (1 - traced.opsPerSec()/untraced)
	line := func(name string, s summary) string {
		p50, _ := s.percentileUS(0.50)
		p99, _ := s.percentileUS(0.99)
		return fmt.Sprintf("%s: ops_per_s=%.1f lat_p50_us=%.2f lat_p99_us=%.2f samples=%d", name, s.opsPerSec(), p50, p99, s.attempted)
	}
	out.info = append(out.info, line("untraced half", out.sum), line("traced half", traced),
		fmt.Sprintf("trace join: %d of %d spans joined", st.joined, st.spans))
	if st.missed {
		out.info = append(out.info, "trace join: the access-log ring wrapped between polls; some spans could not be joined")
	}
	if nested && st.nestedSpans > 0 && st.nestedJoin == 0 {
		out.info = append(out.info, fmt.Sprintf("trace join: 0 of %d nested flatfs→blocksvr calls carried the caller's id (unjoined)", st.nestedSpans))
	}
}
