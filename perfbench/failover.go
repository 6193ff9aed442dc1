package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/internal/rpc"
	"amoeba/internal/server/dirsvr"
)

// The failover workload: an open loop of directory Enters at a fixed
// rate against a fresh Cluster{Replicas: 3} per kill. The directory
// primary is killed at a seeded offset into each cycle and nobody calls
// Promote: the standbys' detectors elect a successor and the clients
// re-locate it on their own.
const (
	// failoverRate is the offered load: about 3% of repl_write's
	// capacity, light enough that the outage alone moves the tail. A
	// 20-second run holds the 10,000 samples p999 needs.
	failoverRate = 500
	// failoverCycle is one kill's share of the schedule: the kill lands
	// 20-30% in, leaving at least 1.75 s for detection, election and
	// re-route, and keeping the outage a small share of all requests.
	failoverCycle = 2500 * time.Millisecond
	// failoverFixed is how many entries setup enters before the cycle
	// starts; they too must survive the failover.
	failoverFixed = 2048
	// failoverClients is how many client machines share the load.
	failoverClients = 2
	// failoverOpTimeout bounds one Enter, retries included; it is far
	// above any outage the cluster is built to have.
	failoverOpTimeout = 20 * time.Second
	// The failover clients wait failoverAttempt for each reply and
	// retry up to failoverRetries times, as a latency-sensitive client
	// would (the repository's own E21 benchmark does the same). With
	// the 1 s default, a request caught in flight by the kill waits out
	// a full second before it even starts to re-locate.
	failoverAttempt = 50 * time.Millisecond
	failoverRetries = 400
	// failoverGCPercent is the GOGC the failover run uses (see
	// runFailover).
	failoverGCPercent = 400
)

// failoverShape is the open loop's rate and cycle length.
type failoverShape struct {
	rate  int
	cycle time.Duration
}

// killPlan is one cycle's generated inputs: how long the schedule
// runs, and when into it the primary dies.
type killPlan struct {
	n      int           // operations scheduled
	period time.Duration // between due times
	killAt time.Duration // offset of the kill from the schedule start
}

// planKills derives every cycle's plan from the seed. The schedule
// covers seconds exactly, split into whole cycles; each kill lands
// between 20% and 30% into its cycle, leaving the rest for the
// election, the re-route and a healthy tail.
func planKills(seed uint64, seconds time.Duration, shape failoverShape) []killPlan {
	cycles := max(1, int(seconds/shape.cycle))
	length := seconds / time.Duration(cycles)
	r := newRNG(seed, "failover", 0)
	plans := make([]killPlan, cycles)
	for i := range plans {
		plans[i] = killPlan{
			n:      int(int64(shape.rate) * int64(length) / int64(time.Second)),
			period: time.Second / time.Duration(shape.rate),
			killAt: length/5 + time.Duration(r.intn(int(length/10/time.Millisecond)))*time.Millisecond,
		}
	}
	return plans
}

// cycleResult is what one kill cycle measured.
type cycleResult struct {
	rec                     *recorder
	elapsed                 time.Duration
	setup                   time.Duration
	elect, reroute, unavail time.Duration
	lateMax                 time.Duration
	lost                    int
	dupExists               int // Enters acknowledged by finding their own entry (see enterOnce)
	wrong                   []string
	layers                  counters
	trace                   *traceStats
}

func runFailover(ctx context.Context, cfg config, shape failoverShape) (*outcome, error) {
	// Fewer collections: each cycle boots a fresh cluster, and at the
	// default GOGC the three or four collections per cycle, landing
	// anywhere in a light open loop on one P, moved lat_p50_us by 25%
	// from run to run.
	defer debug.SetGCPercent(debug.SetGCPercent(failoverGCPercent))
	plans := planKills(cfg.seed, cfg.seconds, shape)
	out := &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
	out.info = append(out.info, fmt.Sprintf("failover runs with GOGC=%d", failoverGCPercent))
	var (
		recs                              []*recorder
		elapsed                           time.Duration
		setups, elects, reroutes, unavail []float64
		lateMax                           time.Duration
		lost, dups                        int
		layers                            = counters{}
		untraced, traced                  []*recorder
		untracedT, tracedT                time.Duration
		ts                                traceStats
	)
	// A traced run traces the second half of its cycles.
	tracedFrom := len(plans)
	if cfg.trace {
		tracedFrom = (len(plans) + 1) / 2
	}
	steal := readSteal()
	for i, p := range plans {
		var res *cycleResult
		var err error
		if cfg.trace {
			res, err = runKillCycle(ctx, cfg.seed, i, p, cfg.trace, i >= tracedFrom)
		} else {
			res, err = spawnCycle(ctx, cfg, i, p)
		}
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		recs = append(recs, res.rec)
		elapsed += res.elapsed
		setups = append(setups, res.setup.Seconds())
		elects = append(elects, ms(res.elect))
		reroutes = append(reroutes, ms(res.reroute))
		unavail = append(unavail, ms(res.unavail))
		lateMax = max(lateMax, res.lateMax)
		lost += res.lost
		dups += res.dupExists
		out.wrong = append(out.wrong, res.wrong...)
		p50, _ := merge(res.elapsed, res.rec).percentileUS(0.50)
		out.info = append(out.info, fmt.Sprintf("cycle %d: kill at %v, elected after %.1f ms, first ack after %.1f ms, setup %.3f s, lat_p50_us %.1f, acked_lost %d",
			i, p.killAt, ms(res.elect), ms(res.unavail), res.setup.Seconds(), p50, res.lost))
		if res.trace != nil {
			traced = append(traced, res.rec)
			tracedT += res.elapsed
			ts.merge(*res.trace)
		} else {
			untraced = append(untraced, res.rec)
			untracedT += res.elapsed
			layers.add(res.layers)
		}
	}
	out.info = append(out.info, fmt.Sprintf("acked_lost=%d retry_found_own_entry=%d", lost, dups), steal.since())
	if lost > 0 {
		out.wrong = append(out.wrong, fmt.Sprintf("%d acknowledged Enters missing after the elections", lost))
	}
	if !cfg.trace {
		out.sum = merge(elapsed, recs...)
		endToEndMetrics(out, []map[string]float64{partMetrics(out.sum, out.notes)}, setups)
		return out, nil
	}
	out.sum = merge(untracedT, untraced...)
	for k, v := range layerMetrics(layers, float64(len(out.sum.lat)), true, false) {
		out.metrics[k] = v
	}
	out.metrics["repl.elect_ms"] = median(elects)
	out.metrics["rpc.reroute_ms"] = median(reroutes)
	out.metrics["unavail_ms"] = median(unavail)
	out.metrics["loadgen.late_max_ms"] = ms(lateMax)
	out.metrics["fail_ratio"] = out.sum.failRatio()
	out.metrics["acked_lost"] = float64(lost)
	out.metrics["rpc.retry_found_own_entry"] = float64(dups)
	tsum := merge(tracedT, traced...)
	ts.sort()
	ts.metrics(out.metrics, out.notes, false)
	out.metrics["trace.overhead_pct"] = 100 * (1 - tsum.opsPerSec()/out.sum.opsPerSec())
	out.info = append(out.info, fmt.Sprintf("trace join: %d of %d spans joined", ts.joined, ts.spans))
	if tsum.failed() > 0 {
		out.wrong = append(out.wrong, fmt.Sprintf("%d of %d traced operations failed: %v", tsum.failed(), tsum.attempted, tsum.firstErr))
	}
	return out, nil
}

// cycleSpec names one kill cycle for the process that runs it.
type cycleSpec struct {
	Cycle  int           `json:"cycle"`
	N      int           `json:"n"`
	Period time.Duration `json:"period_ns"`
	KillAt time.Duration `json:"kill_at_ns"`
}

// cycleReport is what an untraced kill cycle run in its own process
// reports: the fields of cycleResult an untraced run uses.
type cycleReport struct {
	Lat       []int64           `json:"lat_ns"` // successful operations
	Attempted int               `json:"attempted"`
	Fails     [numFailKinds]int `json:"fails"`
	FirstErr  string            `json:"first_error,omitempty"`
	Elapsed   time.Duration     `json:"elapsed_ns"`
	Setup     time.Duration     `json:"setup_ns"`
	Elect     time.Duration     `json:"elect_ns"`
	Reroute   time.Duration     `json:"reroute_ns"`
	Unavail   time.Duration     `json:"unavail_ns"`
	LateMax   time.Duration     `json:"late_max_ns"`
	Lost      int               `json:"lost"`
	DupExists int               `json:"dup_exists"`
	Wrong     []string          `json:"wrong,omitempty"`
}

// spawnCycle runs kill cycle i of an untraced failover run in a fresh
// process (see spawn). Run in one process, every cycle shares that
// process's speed: fresh processes fall into speed modes (see
// instanceLen), and with all 12 cycles in one, failover's lat_p50_us
// spread by 0.18 over ten runs.
func spawnCycle(ctx context.Context, cfg config, i int, p killPlan) (*cycleResult, error) {
	spec, err := json.Marshal(cycleSpec{Cycle: i, N: p.n, Period: p.period, KillAt: p.killAt})
	if err != nil {
		return nil, err
	}
	var r cycleReport
	if err := spawn(ctx, []string{"--workload", cfg.workload, "--seed", strconv.FormatInt(int64(cfg.seed), 10),
		"--kill-cycle", string(spec)}, time.Duration(p.n)*p.period, -1, &r); err != nil {
		return nil, err
	}
	res := &cycleResult{
		rec:     &recorder{lat: r.Lat, attempted: r.Attempted, fails: r.Fails},
		elapsed: r.Elapsed, setup: r.Setup, elect: r.Elect, reroute: r.Reroute, unavail: r.Unavail,
		lateMax: r.LateMax, lost: r.Lost, dupExists: r.DupExists, wrong: r.Wrong,
	}
	if r.FirstErr != "" {
		res.rec.firstErr = errors.New(r.FirstErr)
	}
	return res, nil
}

// runCycleUnit is the process spawnCycle starts: it runs the kill cycle
// cfg.killCycle names, untraced.
func runCycleUnit(ctx context.Context, cfg config) (*cycleReport, error) {
	var spec cycleSpec
	if err := json.Unmarshal([]byte(cfg.killCycle), &spec); err != nil {
		return nil, fmt.Errorf("--kill-cycle: %w", err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(failoverGCPercent))
	res, err := runKillCycle(ctx, cfg.seed, spec.Cycle, killPlan{n: spec.N, period: spec.Period, killAt: spec.KillAt}, false, false)
	if err != nil {
		return nil, err
	}
	r := &cycleReport{Lat: res.rec.lat, Attempted: res.rec.attempted, Fails: res.rec.fails,
		Elapsed: res.elapsed, Setup: res.setup, Elect: res.elect, Reroute: res.reroute, Unavail: res.unavail,
		LateMax: res.lateMax, Lost: res.lost, DupExists: res.dupExists, Wrong: res.wrong}
	if res.rec.firstErr != nil {
		r.FirstErr = res.rec.firstErr.Error()
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runKillCycle boots a fresh replicated cluster, offers p's schedule,
// kills the directory primary at p.killAt, and checks afterwards that
// every acknowledged Enter survived the election.
func runKillCycle(ctx context.Context, seed uint64, cycle int, p killPlan, ringBig, traced bool) (*cycleResult, error) {
	res := &cycleResult{}
	var sc simCluster
	defer sc.close()
	cseed := seed*1_000_003 + uint64(cycle)
	runtime.GC() // the previous cycle's garbage is not this set-up's
	t0 := time.Now()
	if err := sc.boot(amoeba.ClusterConfig{Seed: cseed, Replicas: 3}, ringBig); err != nil {
		return nil, err
	}
	var dirs []*dirsvr.Client
	for c := 0; c < failoverClients; c++ {
		rc, err := sc.newClient(&rpc.ClientConfig{
			Timeout: failoverAttempt,
			Retries: failoverRetries,
			Source:  amoeba.NewSeededSource(cseed + uint64(c)),
		})
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dirsvr.NewClient(rc))
	}
	dir, err := dirs[0].CreateDir(ctx, sc.cl.DirPort())
	if err != nil {
		return nil, fmt.Errorf("creating directory: %w", err)
	}
	for i := 0; i < failoverFixed; i++ {
		if err := dirs[i%failoverClients].Enter(ctx, dir, fmt.Sprintf("s%d", i), genCap(cseed, 6, uint64(i))); err != nil {
			return nil, fmt.Errorf("entering s%d: %w", i, err)
		}
	}
	res.setup = time.Since(t0)
	names := make([]string, p.n)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
	}
	runtime.GC()

	var tr *tracer
	if traced {
		tr = newTracer(1, sc.requests, sc.ringSize())
	}
	before := counters{}
	before.readProc()
	if err := sc.read(before); err != nil {
		return nil, err
	}

	primary := sc.cl.Machines().Dirs
	start := time.Now().Add(time.Millisecond)
	// The killer: kill, then watch for the successor.
	var killT, electT time.Time
	killErr := make(chan error, 1)
	go func() {
		time.Sleep(time.Until(start.Add(p.killAt)))
		killT = time.Now()
		if err := sc.cl.Kill(primary); err != nil {
			killErr <- err
			return
		}
		for deadline := killT.Add(failoverOpTimeout); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			if sc.cl.Machines().Dirs != primary {
				electT = time.Now()
				break
			}
		}
		killErr <- nil
	}()
	var stopPoll chan struct{}
	pollErr := make(chan error, 1)
	if tr != nil {
		stopPoll = make(chan struct{})
		go func() { pollErr <- tr.poll(sc.pollEvery(), stopPoll) }()
	}
	var (
		spanMu    sync.Mutex
		dupExists atomic.Int64
	)
	loop := openLoop(start, p.n, p.period, func(i int) error {
		octx, cancel := context.WithTimeout(ctx, failoverOpTimeout)
		defer cancel()
		if tr == nil {
			return enterOnce(octx, dirs[i%failoverClients], dir, names[i], genCap(cseed, 5, uint64(i)), &dupExists)
		}
		id := tr.mint()
		sent := time.Now()
		err := enterOnce(rpc.ContextWithRequestID(octx, id), dirs[i%failoverClients], dir, names[i], genCap(cseed, 5, uint64(i)), &dupExists)
		done := time.Now()
		spanMu.Lock()
		tr.record(0, span{id: id, start: sent.UnixNano(), dur: int64(done.Sub(sent)), kind: opEnter, ok: err == nil})
		spanMu.Unlock()
		return err
	})
	res.dupExists = int(dupExists.Load())
	res.rec, res.lateMax, res.elapsed = loop.rec, loop.lateMax, loop.lastEnd.Sub(start)
	acked := loop.acked
	if err := <-killErr; err != nil {
		return nil, fmt.Errorf("killing primary %v: %w", primary, err)
	}
	if tr != nil {
		close(stopPoll)
		if err := <-pollErr; err != nil {
			return nil, fmt.Errorf("collecting access log: %w", err)
		}
		st := tr.join(sc.clientMachines(), opEnter, false)
		res.trace = &st
	}
	if electT.IsZero() {
		return nil, fmt.Errorf("no successor elected within %v of the kill", failoverOpTimeout)
	}
	after := counters{}
	after.readProc()
	if err := sc.read(after); err != nil {
		return nil, err
	}
	res.layers = after.sub(before)

	// The outage ends with the first acknowledgement of an operation
	// due after the kill.
	var firstAck time.Time
	for i, at := range acked {
		if !at.IsZero() && !start.Add(time.Duration(i)*p.period).Before(killT) {
			if firstAck.IsZero() || at.Before(firstAck) {
				firstAck = at
			}
		}
	}
	if firstAck.IsZero() {
		return nil, fmt.Errorf("no operation due after the kill was acknowledged")
	}
	res.unavail = firstAck.Sub(killT)
	res.elect = electT.Sub(killT)
	res.reroute = firstAck.Sub(electT)

	// Every acknowledged Enter — and every setup entry — must be listed
	// by the successor. The listing is a large reply, so it goes through
	// the cluster's own client, with the default attempt timeout.
	es, err := sc.cl.Dirs().List(ctx, dir)
	if err != nil {
		res.wrong = append(res.wrong, fmt.Sprintf("cycle %d: listing after the election: %v", cycle, err))
		return res, nil
	}
	listed := make(map[string]amoeba.Capability, len(es))
	for _, e := range es {
		listed[e.Name] = e.Cap
	}
	for i, at := range acked {
		if !at.IsZero() && listed[names[i]] != genCap(cseed, 5, uint64(i)) {
			res.lost++
		}
	}
	for i := 0; i < failoverFixed; i++ {
		if listed[fmt.Sprintf("s%d", i)] != genCap(cseed, 6, uint64(i)) {
			res.lost++
		}
	}
	return res, nil
}

// spinWindow is how long before each due time the generator stops
// sleeping and spins instead: Go's timers can wake a millisecond late,
// which the open loop would otherwise charge to every request as
// latency. At failoverRate the generator spins most of the time, so it
// costs up to one CPU.
const spinWindow = 1500 * time.Microsecond

// loopResult is what an open loop measured.
type loopResult struct {
	rec     *recorder
	acked   []time.Time   // per operation: when it was acknowledged (zero if it failed)
	lateMax time.Duration // the generator's worst lag behind the schedule
	lastEnd time.Time     // when the last operation returned
}

// openLoop runs n operations, the i-th due at start + i·period, each
// on its own goroutine so that a stalled request never delays the next
// send. Latency runs from the due time (see dueLatency), and the
// generator's own lateness is reported beside it. It returns when
// every operation has returned.
func openLoop(start time.Time, n int, period time.Duration, do func(i int) error) loopResult {
	res := loopResult{rec: &recorder{lat: make([]int64, 0, n)}, acked: make([]time.Time, n)}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards res.rec and res.lastEnd
	)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		res.lateMax = max(res.lateMax, time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			err := do(i)
			done := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.rec.fail(err)
			} else {
				res.rec.ok(dueLatency(due, done))
				res.acked[i] = done
			}
			if done.After(res.lastEnd) {
				res.lastEnd = done
			}
		}(i, due)
	}
	wg.Wait()
	return res
}

// enterOnce enters name → entry in dir. Each failover operation enters
// a name no other operation uses, so an "exists" reply can only mean
// that an earlier attempt of this same Enter was applied and its reply
// lost — the primary died after committing it, and the client's retry
// reached the successor. RPC retries are at-least-once and the
// directory server keeps no duplicate-request table across a failover.
// The benchmark then looks the name up: if it holds this operation's
// capability, the Enter took effect and counts as acknowledged (and in
// dup); otherwise it failed.
func enterOnce(ctx context.Context, d *dirsvr.Client, dir amoeba.Capability, name string, entry amoeba.Capability, dup *atomic.Int64) error {
	err := d.Enter(ctx, dir, name, entry)
	if err == nil || !amoeba.IsStatus(err, amoeba.StatusServerError) || !strings.Contains(err.Error(), "exists") {
		return err
	}
	got, lerr := d.Lookup(ctx, dir, name)
	if lerr != nil {
		return fmt.Errorf("%w (and looking it up: %v)", err, lerr)
	}
	if got != entry {
		return fmt.Errorf("%w: %q holds another capability", errMismatch, name)
	}
	dup.Add(1)
	return nil
}
