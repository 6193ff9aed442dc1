package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"amoeba"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
)

func ascending(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{10000, 0.999, 9990, true}, // exactly 10 beyond
		{9999, 0.999, 0, false},    // 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(ascending(tc.n), tc.n, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%g) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.1, 7},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1}, 0.1, 1.2},
		{[]float64{3, 1}, 0.9, 2.8},
		{[]float64{5, 1, 2, 3, 4}, 0.5, 3},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0}, 0.9, 9},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v, %g) = %g; want %g", tc.xs, tc.q, got, tc.want)
		}
	}
}

func TestPercentileRanksFailuresAboveEverySuccess(t *testing.T) {
	// 10,000 attempts, 9,990 successes: p999 is the slowest success.
	if got, ok := percentile(ascending(9990), 10000, 0.999); !ok || got != 9990 {
		t.Errorf("p999 with 10 failures = %d, %v; want 9990, true", got, ok)
	}
	// One more failure pushes p999 onto a failure: not reportable.
	if _, ok := percentile(ascending(9989), 10000, 0.999); ok {
		t.Error("p999 landing on a failure was reported")
	}
}

func TestFailRatioCountsRefusedAndTimedOut(t *testing.T) {
	r := &recorder{}
	for i := 0; i < 6; i++ {
		r.ok(time.Microsecond)
	}
	r.fail(fmt.Errorf("transfer: %w", amoeba.ErrOverload))
	r.fail(&rpc.StatusError{Status: rpc.StatusOverload})
	r.fail(rpc.ErrTimeout)
	r.fail(context.DeadlineExceeded)
	r.fail(fmt.Errorf("lookup: %w", errMismatch))
	r.fail(errors.New("something else"))
	s := merge(time.Second, r)
	if s.attempted != 12 || s.failed() != 6 {
		t.Fatalf("attempted %d failed %d; want 12, 6", s.attempted, s.failed())
	}
	if got := s.failRatio(); got != 0.5 {
		t.Errorf("fail_ratio = %g; want 0.5", got)
	}
	want := [numFailKinds]int{failRefused: 2, failTimedOut: 2, failWrong: 1, failOther: 1}
	if s.fails != want {
		t.Errorf("failure kinds = %v; want %v", s.fails, want)
	}
	if got := s.opsPerSec(); got != 6 {
		t.Errorf("ops_per_s = %g; want 6 (successes only)", got)
	}
}

// TestMain lets spawn's re-run of the test binary measure a unit
// instead of running the tests.
func TestMain(m *testing.M) {
	if os.Getenv(unitEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestInstancesAddUp(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	a.ok(3 * time.Microsecond)
	a.fail(rpc.ErrTimeout)
	b.ok(1 * time.Microsecond)
	b.ok(2 * time.Microsecond)
	b.ok(4 * time.Microsecond)
	out := &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
	var parts []map[string]float64
	for k, r := range []*recorder{a, b} {
		s := merge(time.Second, r)
		res := &instanceResult{Attempted: s.attempted, Fails: s.fails, Elapsed: s.elapsed, Notes: map[string]string{}}
		res.Metrics = partMetrics(s, res.Notes)
		if s.firstErr != nil {
			res.FirstErr = s.firstErr.Error()
		}
		out.addInstance(k, res)
		parts = append(parts, res.Metrics)
	}
	endToEndMetrics(out, parts, []float64{0.3, 0.1})
	if s := out.sum; s.attempted != 5 || s.failed() != 1 || s.fails[failTimedOut] != 1 || s.firstErr == nil {
		t.Fatalf("attempted %d failed %d (%v, %v); want 5, 1 timed out", s.attempted, s.failed(), s.fails, s.firstErr)
	}
	if got := out.metrics["ops_per_s"]; math.Abs(got-2.8) > 1e-9 {
		t.Errorf("ops_per_s = %g; want 2.8, the 90th percentile of 1 and 3 successes per second", got)
	}
	if got := out.metrics["setup_s"]; math.Abs(got-0.12) > 1e-9 {
		t.Errorf("setup_s = %g; want 0.12, the 10th percentile of the set-ups", got)
	}
	if _, ok := out.metrics["lat_p50_us"]; ok || out.notes["lat_p50_us"] == "" {
		t.Error("lat_p50_us reported from instances with fewer than 10 samples beyond it")
	}

	// A percentile that half of the instances have is reported from
	// those; one that fewer have is not.
	out = &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
	endToEndMetrics(out, []map[string]float64{
		{"ops_per_s": 1, "lat_p99_us": 10, "lat_p999_us": 30},
		{"ops_per_s": 1, "lat_p99_us": 20},
		{"ops_per_s": 1},
	}, []float64{1})
	if got, ok := out.metrics["lat_p99_us"]; !ok || math.Abs(got-11) > 1e-9 {
		t.Errorf("lat_p99_us = %g (reported %v); want 11 from the two instances that have it", got, ok)
	}
	if _, ok := out.metrics["lat_p999_us"]; ok {
		t.Error("lat_p999_us reported though only 1 of 3 instances has it")
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	// The schedule started 100ms ago, so every operation is already
	// overdue when the generator sends it. Each takes no time at all;
	// measured from its send it would look instant, measured from its
	// due time it carries the generator's lag.
	const lag = 100 * time.Millisecond
	start := time.Now().Add(-lag)
	res := openLoop(start, 20, time.Millisecond, func(int) error { return nil })
	s := merge(time.Second, res.rec)
	if s.attempted != 20 || s.failed() != 0 {
		t.Fatalf("attempted %d failed %d; want 20, 0", s.attempted, s.failed())
	}
	// Operation i was due at start+i ms and ran no earlier than now, so
	// its latency is at least lag - i ms; the fastest is op 19's.
	if min := time.Duration(s.lat[0]); min < lag-20*time.Millisecond {
		t.Errorf("fastest latency %v; want ≥ %v (timed from send, not due time?)", min, lag-20*time.Millisecond)
	}
	if res.lateMax < lag {
		t.Errorf("generator lateness %v; want ≥ %v", res.lateMax, lag)
	}
	if got := dueLatency(start, start.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("dueLatency = %v; want 3ms", got)
	}
}

func TestOpenLoopFailuresAreNotAcknowledged(t *testing.T) {
	res := openLoop(time.Now(), 4, 0, func(i int) error {
		if i%2 == 1 {
			return rpc.ErrTimeout
		}
		return nil
	})
	for i, at := range res.acked {
		if (i%2 == 0) == at.IsZero() {
			t.Errorf("op %d acknowledged=%v", i, !at.IsZero())
		}
	}
	if res.rec.fails[failTimedOut] != 2 {
		t.Errorf("timed-out count %d; want 2", res.rec.fails[failTimedOut])
	}
}

func scrape(t *testing.T, reg *obs.Registry) promSnap {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(&b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHistogramDeltasAcrossARun(t *testing.T) {
	reg := obs.NewRegistry()
	dir := reg.Histogram("amoeba_request_handle_ns", obs.L("service", "directory"), "")
	bank := reg.Histogram("amoeba_request_handle_ns", obs.L("service", "bank"), "")
	wait := reg.Histogram("amoeba_request_queue_wait_ns", obs.L("service", "bank"), "")
	reqs := reg.Counter("amoeba_requests_total", obs.L("service", "bank", "op", "x", "status", "ok"), "")
	// Before the run: activity that must not count.
	dir.Observe(5_000_000)
	bank.Observe(7)
	wait.Observe(9)
	reqs.Add(40)
	before := counters{}
	before.readProm(scrape(t, reg))

	for _, v := range []uint64{1000, 2000, 3000} {
		dir.Observe(v)
	}
	wait.Observe(400)
	wait.Observe(600)
	reqs.Add(5)
	after := counters{}
	after.readProm(scrape(t, reg))

	d := after.sub(before)
	if h := d.hist("handle.dir"); h.count != 3 || h.mean() != 2000 {
		t.Errorf("directory handle delta = %+v (mean %g); want count 3, mean 2000", h, h.mean())
	}
	if h := d.hist("handle.bank"); h.count != 0 || h.mean() != 0 {
		t.Errorf("bank handle delta = %+v; want empty", h)
	}
	if h := d.hist("queue"); h.count != 2 || h.mean() != 500 {
		t.Errorf("queue-wait delta = %+v; want count 2, mean 500", h)
	}
	m := layerMetrics(d, 5, true, false)
	if m["rpc.server_reqs_per_op"] != 1 {
		t.Errorf("rpc.server_reqs_per_op = %g; want 1", m["rpc.server_reqs_per_op"])
	}
	if m["svc.dir.handle_mean_us"] != 2 || m["rpc.queue_wait_mean_us"] != 0.5 {
		t.Errorf("per-layer means = %v", m)
	}
	if _, ok := m["svc.bank.handle_mean_us"]; ok {
		t.Error("a service that handled nothing during the run was reported")
	}
}

func TestEveryReportedMetricIsDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if declared[s.name] {
			t.Errorf("metric %s declared twice", s.name)
		}
		declared[s.name] = true
	}
	for name := range naReason {
		if !declared[name] {
			t.Errorf("naReason names undeclared metric %s", name)
		}
	}
	d := counters{"cpu_ns": 1, "daemon_cpu_ns": 1, "frames": 1, "tcp_sends": 1, "disk_writes": 1,
		"handle.dir.count": 1, "handle.bank.count": 1, "handle.file.count": 1, "handle.block.count": 1, "wal_sync.count": 1}
	for _, kinds := range [][2]bool{{true, false}, {false, true}} {
		for name := range layerMetrics(d, 1, kinds[0], kinds[1]) {
			if !declared[name] {
				t.Errorf("layerMetrics reports undeclared metric %s", name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json, which the
// benchmark's callers read, in step with the metrics this program
// prints.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module: %v", err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricJSON            `json:"end_to_end"`
		PerLayer  []metricJSON            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricJSON, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not know", w.Name)
		}
	}
}

type metricJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// fakeRing stands in for a server's access-log ring: dump returns the
// newest n records, newest first, as obs.Ring.Dump does.
type fakeRing struct {
	size, pushed int
	asked        []int
}

func (f *fakeRing) push(n int) { f.pushed += n }

func (f *fakeRing) dump(n int) ([]obs.ReqRecord, error) {
	f.asked = append(f.asked, n)
	n = min(n, f.size, f.pushed)
	rs := make([]obs.ReqRecord, n)
	for i := range rs {
		seq := f.pushed - i
		rs[i] = obs.ReqRecord{Time: time.Unix(0, int64(seq)*1000), ReqID: traceIDPrefix<<48 | uint64(seq), From: 9}
	}
	return rs, nil
}

func TestTracerAsksForWhatArrivesAndNotesWraps(t *testing.T) {
	f := &fakeRing{size: 1024}
	tr := newTracer(1, f.dump, f.size)
	f.push(100)
	mustCollect(t, tr) // the first two polls ask for half the ring
	f.push(100)
	mustCollect(t, tr) // 100 new: asks for 200 next
	f.push(100)
	mustCollect(t, tr)
	f.push(500) // a burst: reads of 200 and 400 find no overlap, 800 does
	mustCollect(t, tr)
	if tr.missed {
		t.Fatal("a burst the ring still held was noted as a wrap")
	}
	if want := []int{512, 512, 200, 200, 400, 800}; !slices.Equal(f.asked, want) {
		t.Fatalf("asked for %v; want %v", f.asked, want)
	}
	f.push(1500) // more than the ring holds: 801-1276 are overwritten
	mustCollect(t, tr)
	if !tr.missed {
		t.Fatal("a poll that found no overlap with the whole ring did not note a wrap")
	}
	seen := map[uint64]bool{}
	for _, r := range tr.recs {
		seen[r.id&(1<<48-1)] = true
	}
	if len(seen) != 800+1024 || seen[1276] || !seen[1277] {
		t.Fatalf("kept %d distinct records; want 1-800 and 1277-2300", len(seen))
	}
}

func mustCollect(t *testing.T, tr *tracer) {
	t.Helper()
	if err := tr.collect(); err != nil {
		t.Fatal(err)
	}
}
