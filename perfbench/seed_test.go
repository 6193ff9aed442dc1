package main

import (
	"context"
	"slices"
	"testing"
	"time"
)

// opSeq draws the first n operations each client of a workload would
// send under seed.
func opSeq(seed uint64, workload string, clients, n int) [][]op {
	next := map[string]func(*rng) op{
		"dir_read":   nextDirRead,
		"repl_write": nextReplWrite,
		"tcp_read":   nextTCPRead,
	}[workload]
	out := make([][]op, clients)
	for c := range out {
		r := newRNG(seed, workload, c)
		for i := 0; i < n; i++ {
			out[c] = append(out[c], next(r))
		}
	}
	return out
}

func equalSeqs(a, b [][]op) bool {
	return slices.EqualFunc(a, b, func(x, y []op) bool { return slices.Equal(x, y) })
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range []string{"dir_read", "repl_write", "tcp_read"} {
		a, b := opSeq(7, w, 2, 5000), opSeq(7, w, 2, 5000)
		if !equalSeqs(a, b) {
			t.Errorf("%s: seed 7 drew two different op sequences", w)
		}
		if equalSeqs(a, opSeq(8, w, 2, 5000)) {
			t.Errorf("%s: seeds 7 and 8 drew the same op sequence", w)
		}
		if slices.Equal(a[0], a[1]) {
			t.Errorf("%s: both clients drew the same op sequence", w)
		}
	}
	k7 := planKills(7, 10*time.Second, failoverShape{rate: failoverRate, cycle: failoverCycle})
	if !slices.Equal(k7, planKills(7, 10*time.Second, failoverShape{rate: failoverRate, cycle: failoverCycle})) {
		t.Error("failover: seed 7 planned two different kill schedules")
	}
	if slices.Equal(k7, planKills(8, 10*time.Second, failoverShape{rate: failoverRate, cycle: failoverCycle})) {
		t.Error("failover: seeds 7 and 8 planned the same kill schedule")
	}
	if c7, c8 := genCap(7, 1, 2), genCap(8, 1, 2); c7 == c8 || c7 != genCap(7, 1, 2) {
		t.Error("generated capabilities do not follow the seed")
	}
}

func TestMixesMatchTheirDefinition(t *testing.T) {
	const n = 200000
	count := func(w string, k opKind) float64 {
		c := 0
		for _, o := range opSeq(3, w, 1, n)[0] {
			if o.kind == k {
				c++
			}
		}
		return float64(c) / n
	}
	for _, tc := range []struct {
		w    string
		k    opKind
		want float64
	}{
		{"dir_read", opLookup, 0.95},
		{"repl_write", opToggle, 0.60},
		{"repl_write", opTransfer, 0.40},
		{"tcp_read", opRead, 0.50},
	} {
		if got := count(tc.w, tc.k); got < tc.want-0.01 || got > tc.want+0.01 {
			t.Errorf("%s: %v share %.3f; want %.2f", tc.w, tc.k, got, tc.want)
		}
	}
	for _, o := range opSeq(4, "repl_write", 1, n)[0] {
		if o.kind == opTransfer && (o.a == o.b || o.a >= accounts || o.b >= accounts) {
			t.Fatalf("transfer between accounts %d and %d", o.a, o.b)
		}
	}
}

func TestKillPlanCoversTheRun(t *testing.T) {
	shape := failoverShape{rate: failoverRate, cycle: failoverCycle}
	plans := planKills(1, 20*time.Second, shape)
	total := 0
	for _, p := range plans {
		total += p.n
		length := time.Duration(p.n) * p.period
		if p.killAt < length/5 || p.killAt >= length*3/10 {
			t.Errorf("kill at %v outside [20%%, 30%%) of a %v cycle", p.killAt, length)
		}
	}
	if total != 20*failoverRate || len(plans) != 8 {
		t.Errorf("%d operations in %d cycles scheduled in 20s; want %d in 8", total, len(plans), 20*failoverRate)
	}
}

// TestSecondSeedRunsClean runs the in-process workloads briefly under
// two seeds: each must pass every output check with no failed
// operation. tcp_read needs a built amoebad and is left to run.sh.
func TestSecondSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		for _, tc := range []struct {
			name string
			run  func(context.Context, config) (*outcome, error)
		}{
			{"dir_read", runClosedWorkload},
			{"repl_write", runClosedWorkload},
			{"failover", func(ctx context.Context, cfg config) (*outcome, error) {
				return runFailover(ctx, cfg, failoverShape{rate: 200, cycle: 1500 * time.Millisecond})
			}},
		} {
			out, err := tc.run(ctx, config{workload: tc.name, seed: seed, seconds: 1500 * time.Millisecond})
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if out.sum.failed() > 0 || len(out.wrong) > 0 {
				t.Errorf("%s seed %d: %d of %d failed (%v); checks: %v", tc.name, seed, out.sum.failed(), out.sum.attempted, out.sum.firstErr, out.wrong)
			}
			if out.sum.attempted == 0 {
				t.Errorf("%s seed %d: nothing attempted", tc.name, seed)
			}
		}
	}
}
