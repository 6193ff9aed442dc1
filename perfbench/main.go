// Command perfbench is the repository's end-to-end benchmark. It stands
// up one workload (see README.md), drives it from this single process,
// checks every output against the generated inputs and prints the
// result as one JSON object on the last line of standard output.
//
//	perfbench --workload dir_read --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from an untraced half-run followed by a traced
// half-run. Run it through run.sh, which builds this command and
// cmd/amoebad from the checkout first.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sync"
	"time"
)

// instanceLen is how long an untraced closed-loop run measures each
// instance of its workload: a run of --seconds stands the workload up
// seconds/instanceLen times (at least once), each time in a fresh
// process (this program run again with --instance), and measures each
// instance alone. The end-to-end metrics, setup_s included, come from
// the instances' values (see bestShare).
//
// A fresh process per instance, because one process drifts: a single
// process that kept booting and measuring repl_write clusters ran at
// 18,000 ops/s for a minute and then at 27,000 for the next, with the
// same allocations per operation and a calibration loop beside it
// running at one speed throughout. Instances in one process shared its
// phase, and the median over them moved by up to 30% from run to run.
// Fresh processes vary independently of each other. At tcp_read's rate an instance holds about 16,000
// operations, enough for a p999.
const instanceLen = 1250 * time.Millisecond

// benchProcs is the GOMAXPROCS of the benchmark process, servers
// included, and of amoebad during tcp_read. With a second P, a request
// often wakes a goroutine on the other, idle vCPU; on a virtual machine
// that wake-up now and then takes about 4 ms, which set the in-process
// workloads' lat_p999_us (3.6-4.1 ms, 400 times lat_p50_us) and moved
// dir_read's medians by 20-25% between sets of runs. With one P, the
// tail is the program's own.
const benchProcs = 1

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	amoebad  string // path to the amoebad binary (tcp_read)
	// instance, when non-zero, makes this process one instance of a
	// closed-loop run: it measures the workload for this long and
	// prints an instanceResult (see spawnInstance).
	instance time.Duration
	// killCycle, when set, makes this process one kill cycle of a
	// failover run, given as a JSON cycleSpec (see spawnCycle).
	killCycle string
}

// outcome is what one workload run produces.
type outcome struct {
	sum     summary            // the measured phase (phase A when traced)
	wrong   []string           // failed output checks
	metrics map[string]float64 // by metric name
	notes   map[string]string  // why a per-layer metric is not reported
	info    []string           // extra human-readable lines
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole program: it parses args, runs the workload (or one
// instance of it) and returns the exit code.
func run(args []string) int {
	var (
		cfg     config
		seed    int64
		seconds int
		trace   int
	)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: dir_read, repl_write, tcp_read or failover")
	fs.Int64Var(&seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	fs.StringVar(&cfg.amoebad, "amoebad", "", "amoebad binary (tcp_read)")
	fs.DurationVar(&cfg.instance, "instance", 0, "measure one closed-loop instance this long and print it (used by the run itself)")
	fs.StringVar(&cfg.killCycle, "kill-cycle", "", "run one failover kill cycle and print it (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seed, cfg.seconds, cfg.trace = uint64(seed), time.Duration(seconds)*time.Second, trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}

	runtime.GOMAXPROCS(benchProcs)
	// The cluster logs failovers and the like through the standard
	// logger. Keep those lines off standard output, where they would
	// split the result, and replay them to standard error at the end.
	sink := &logSink{}
	log.SetOutput(sink)
	log.SetFlags(log.Lmicroseconds)

	if cfg.instance > 0 || cfg.killCycle != "" {
		var res any
		var err error
		if cfg.killCycle != "" {
			res, err = runCycleUnit(context.Background(), cfg)
		} else {
			res, err = runInstance(context.Background(), cfg)
		}
		sink.replay(os.Stderr)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d unit: %v\n", cfg.workload, cfg.seed, err)
			return 1
		}
		return 0
	}
	out, err := runWorkload(context.Background(), cfg)
	sink.replay(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		return 1
	}
	if !report(os.Stdout, cfg, out) {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return run(ctx, cfg)
}

// workloads maps each workload's name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"dir_read":   runClosedWorkload,
	"repl_write": runClosedWorkload,
	"tcp_read":   runClosedWorkload,
	"failover": func(ctx context.Context, cfg config) (*outcome, error) {
		return runFailover(ctx, cfg, failoverShape{rate: failoverRate, cycle: failoverCycle})
	},
}

// closedWorkloads makes a fresh instance of each closed-loop workload.
var closedWorkloads = map[string]func(config) (closedWorkload, error){
	"dir_read":   func(cfg config) (closedWorkload, error) { return newDirRead(cfg.seed, cfg.trace), nil },
	"repl_write": func(cfg config) (closedWorkload, error) { return newReplWrite(cfg.seed, cfg.trace), nil },
	"tcp_read": func(cfg config) (closedWorkload, error) {
		if cfg.amoebad == "" {
			return nil, fmt.Errorf("tcp_read needs --amoebad")
		}
		return newTCPRead(cfg.seed, cfg.amoebad), nil
	},
}

// maxWrongLines bounds how many failed checks are printed.
const maxWrongLines = 20

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and the result object. It
// returns false when any check failed or a required metric is missing.
func report(w io.Writer, cfg config, out *outcome) bool {
	s := out.sum
	ok := len(out.wrong) == 0 && s.failed() == 0
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{Attempted: s.attempted, Failed: s.failed(), Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d trace=%v attempted=%d failed=%d fail_ratio=%g refused=%d timed_out=%d wrong=%d other=%d cpus=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, s.attempted, s.failed(), s.failRatio(),
		s.fails[failRefused], s.fails[failTimedOut], s.fails[failWrong], s.fails[failOther], runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if s.firstErr != nil {
		fmt.Fprintf(w, "# first error: %v\n", s.firstErr)
	}
	for i, line := range out.wrong {
		if i == maxWrongLines {
			fmt.Fprintf(w, "# CHECK FAILED: ... and %d more\n", len(out.wrong)-i)
			break
		}
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", line)
	}
	for _, line := range out.info {
		fmt.Fprintf(w, "# %s\n", line)
	}
	for _, sp := range specs {
		v, have := out.metrics[sp.name]
		switch {
		case have:
			fmt.Fprintf(w, "# %-26s %14.4f %s\n", sp.name, v, sp.unit)
		case cfg.trace:
			reason := out.notes[sp.name]
			if reason == "" {
				reason = naReason[sp.name]
			}
			if reason == "" {
				reason = "not measured"
			}
			fmt.Fprintf(w, "# %-26s %14s (n/a: %s)\n", sp.name, "0", reason)
		default:
			fmt.Fprintf(w, "# %-26s missing: %s\n", sp.name, out.notes[sp.name])
			ok = false
			continue
		}
		res.Metrics[sp.name] = metricValue{Value: v, Unit: sp.unit}
	}
	res.Correct = ok
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", b)
	return ok
}

// latencyMetrics are the end-to-end latency percentiles.
var latencyMetrics = []struct {
	name string
	q    float64
}{{"lat_p50_us", 0.50}, {"lat_p99_us", 0.99}, {"lat_p999_us", 0.999}}

// partMetrics is one measured instance's ops_per_s and latency
// percentiles; a percentile with too few samples beyond it is left out
// and notes says why.
func partMetrics(s summary, notes map[string]string) map[string]float64 {
	m := map[string]float64{"ops_per_s": s.opsPerSec()}
	for _, p := range latencyMetrics {
		if v, ok := s.percentileUS(p.q); ok {
			m[p.name] = v
		} else {
			notes[p.name] = fmt.Sprintf("fewer than %d of %d samples beyond it, or it lands on a failure", minBeyond, s.attempted)
		}
	}
	return m
}

// bestShare picks the instance value a run reports: the one that only
// this share of its instances beat (the 90th percentile of ops_per_s,
// the 10th of each latency and of setup_s). The host only ever slows an
// instance down: when it is busy, more instances run slow, by varying
// amounts, while the fastest stay where they were. Over 110 repl_write
// instances measured across three minutes in which the host drifted,
// runs of 24 made of consecutive instances spread (quartile distance
// over median) 0.17 by their interquartile mean, 0.12 by their 75th
// percentile and 0.06 by their 90th.
const bestShare = 0.1

// endToEndMetrics fills the metrics every untraced run reports from
// its instances' partMetrics and set-up times (see bestShare), taken
// over the instances that have each. An instance slowed below 10,000
// operations has no p999; a metric is reported while at least half of
// the instances have it, and the # lines say how many did.
func endToEndMetrics(out *outcome, parts []map[string]float64, setups []float64) {
	for _, name := range []string{"ops_per_s", "lat_p50_us", "lat_p99_us", "lat_p999_us"} {
		var vs []float64
		for _, p := range parts {
			if v, ok := p[name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 || 2*len(vs) < len(parts) {
			continue
		}
		q := bestShare
		if name == "ops_per_s" {
			q = 1 - bestShare
		}
		out.metrics[name] = quantile(vs, q)
		out.info = append(out.info, fmt.Sprintf("%s per instance (%d of %d have it): %.2f", name, len(vs), len(parts), vs))
	}
	out.metrics["setup_s"] = quantile(setups, bestShare)
	out.info = append(out.info, fmt.Sprintf("samples=%d instances=%d", out.sum.attempted, len(parts)),
		fmt.Sprintf("setup_s each: %.4f", setups))
}

// logSink buffers standard-logger output for replay after the run.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// logSinkMax bounds the buffered log; later lines are dropped.
const logSinkMax = 1 << 20

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len()+len(p) <= logSinkMax {
		l.buf.Write(p)
	}
	return len(p), nil
}

func (l *logSink) replay(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.buf.WriteTo(w)
}
