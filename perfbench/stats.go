package main

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"amoeba"
	"amoeba/internal/rpc"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p999 over fewer than 10,000 samples would be a
// maximum in disguise.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of n samples of
// which sorted holds the successful ones in ascending order; the
// n-len(sorted) failures rank above every success, since a failed
// request misses any latency limit. ok is false when fewer than
// minBeyond samples lie beyond the quantile, or when the quantile
// lands on a failure.
func percentile(sorted []int64, n int, q float64) (v int64, ok bool) {
	if n <= 0 {
		return 0, false
	}
	// The epsilon keeps 0.999×10000 from rounding up past 9990.
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond || rank > len(sorted) {
		return 0, false
	}
	return sorted[rank-1], true
}

// failKind classifies a failed operation. Every kind counts against
// fail_ratio; the split only says why.
type failKind int

const (
	failRefused  failKind = iota // shed at admission (StatusOverload)
	failTimedOut                 // retries or the deadline ran out
	failWrong                    // the reply disagreed with the generated input
	failOther                    // any other error
	numFailKinds
)

// errMismatch marks an operation whose reply was well-formed but wrong.
var errMismatch = errors.New("output mismatch")

func classify(err error) failKind {
	switch {
	case errors.Is(err, errMismatch):
		return failWrong
	case errors.Is(err, amoeba.ErrOverload), amoeba.IsStatus(err, amoeba.StatusOverload):
		return failRefused
	case errors.Is(err, rpc.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return failTimedOut
	default:
		return failOther
	}
}

// recorder collects one load-generating goroutine's outcomes. It is
// not shared: each goroutine owns one and merge combines them.
type recorder struct {
	lat       []int64 // nanoseconds, successful operations only
	attempted int
	fails     [numFailKinds]int
	firstErr  error
}

func (r *recorder) ok(d time.Duration) {
	r.attempted++
	r.lat = append(r.lat, int64(d))
}

func (r *recorder) fail(err error) {
	r.attempted++
	r.fails[classify(err)]++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// dueLatency is an open-loop request's latency: from when it was due
// to be sent, not from when the generator got round to sending it, so
// a stall that delays later sends is charged to them.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// summary is the merged outcome of one measured phase.
type summary struct {
	lat       []int64 // ascending
	attempted int
	fails     [numFailKinds]int
	firstErr  error
	elapsed   time.Duration
}

func merge(elapsed time.Duration, rs ...*recorder) summary {
	s := summary{elapsed: elapsed}
	for _, r := range rs {
		s.lat = append(s.lat, r.lat...)
		s.attempted += r.attempted
		for k, n := range r.fails {
			s.fails[k] += n
		}
		if s.firstErr == nil {
			s.firstErr = r.firstErr
		}
	}
	slices.Sort(s.lat)
	return s
}

func (s summary) failed() int {
	n := 0
	for _, f := range s.fails {
		n += f
	}
	return n
}

// failRatio is failed or refused operations over attempted ones.
func (s summary) failRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed()) / float64(s.attempted)
}

func (s summary) opsPerSec() float64 {
	return float64(len(s.lat)) / s.elapsed.Seconds()
}

// percentileUS returns the q-quantile in microseconds (see percentile).
func (s summary) percentileUS(q float64) (float64, bool) {
	v, ok := percentile(s.lat, s.attempted, q)
	return float64(v) / 1e3, ok
}

// median of a non-empty slice (mean of the middle two when even).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the q-quantile of a non-empty slice, interpolating
// linearly between the two nearest order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}
