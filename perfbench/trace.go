package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/obs"
)

// traceIDPrefix marks the request ids the benchmark mints (top 16
// bits), so its records can be told apart from ids the program mints
// for its own traffic.
const traceIDPrefix = 0xBE7C

// span is the client-side record of one traced call: the typed-client
// call from entry to return.
type span struct {
	id         uint64
	start, dur int64 // unix ns, ns
	kind       opKind
	ok         bool
}

// srvRec is the part of a server access-log record the join needs.
type srvRec struct {
	id      uint64
	at      int64 // unix ns
	from    uint32
	service string
	qw, h   int64 // queue wait, handle; ns
}

// tracer mints request ids, keeps client spans in memory and gathers
// the servers' access-log records for the join at the end of the run.
type tracer struct {
	n     atomic.Uint64
	spans [][]span // per load-generating goroutine

	// dump returns up to n of the newest server records (the ring
	// keeps only the latest ones, so collect polls it during the run).
	dump    func(n int) ([]obs.ReqRecord, error)
	maxDump int

	mu       sync.Mutex
	recs     []srvRec
	want     int   // records to ask for next poll
	newestAt int64 // newest record time seen so far
	missed   bool  // a poll found no overlap with the previous one
}

func newTracer(workers int, dump func(int) ([]obs.ReqRecord, error), maxDump int) *tracer {
	return &tracer{
		spans:   make([][]span, workers),
		dump:    dump,
		maxDump: maxDump,
		want:    min(4096, maxDump/2),
	}
}

func (t *tracer) mint() uint64 { return traceIDPrefix<<48 | t.n.Add(1) }

func (t *tracer) record(w int, s span) { t.spans[w] = append(t.spans[w], s) }

// minWant is the fewest records a poll asks for.
const minWant = 64

// collect polls the server ring once, keeping records of minted ids.
// Reading records costs the servers CPU time, so each poll asks for
// twice as many as the previous one found new. A burst (the backlog an
// outage releases, say) can bring more: when the oldest record read is
// newer than the newest of the previous poll, collect reads again,
// twice as many each time, until the reads overlap or it has the whole
// ring. Only then, with no overlap, were records overwritten unseen,
// and that is noted.
func (t *tracer) collect() error {
	t.mu.Lock()
	want, since := t.want, t.newestAt
	t.mu.Unlock()
	rs, err := t.dump(want)
	for err == nil && since != 0 && len(rs) == want && want < t.maxDump && rs[len(rs)-1].Time.UnixNano() > since {
		want = min(2*want, t.maxDump)
		rs, err = t.dump(want)
	}
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(rs) == 0 {
		return nil
	}
	if since != 0 {
		fresh := 0
		for fresh < len(rs) && rs[fresh].Time.UnixNano() > since {
			fresh++
		}
		t.want = min(max(2*fresh, minWant), t.maxDump)
		t.missed = t.missed || fresh == len(rs)
	}
	t.newestAt = max(t.newestAt, rs[0].Time.UnixNano())
	for _, r := range rs {
		if r.ReqID>>48 != traceIDPrefix || r.Shed {
			continue
		}
		t.recs = append(t.recs, srvRec{
			id: r.ReqID, at: r.Time.UnixNano(), from: r.From, service: r.Service,
			qw: int64(r.QueueWait), h: int64(r.Handle),
		})
	}
	return nil
}

// poll runs collect, pausing for every after each one, until stop is
// closed, then once more; it returns the first error. Pausing after a
// poll, rather than ticking, keeps the gaps between polls even, so each
// poll's count of new records sizes the next one.
func (t *tracer) poll(every time.Duration, stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return t.collect()
		case <-time.After(every):
			if err := t.collect(); err != nil {
				return err
			}
		}
	}
}

// traceStats is the outcome of joining client spans with server
// records by request id.
type traceStats struct {
	spans, joined           int
	self, queue, handle     []int64 // joined spans; ascending
	nestedSpans, nestedJoin int
	missed                  bool
}

// join matches every successful span with the server records carrying
// its id. The record from a client machine is the served request; a
// record from any other machine is a nested call the server made on
// the request's behalf. With retransmits the last served record wins.
// Client self time is the span minus that record's queue wait and
// handle time: wire, F-box and client stack together.
func (t *tracer) join(clients map[uint32]bool, nestedKind opKind, hasNested bool) traceStats {
	t.mu.Lock()
	recs := t.recs
	st := traceStats{missed: t.missed}
	t.mu.Unlock()
	slices.SortFunc(recs, func(a, b srvRec) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.at, b.at), cmp.Compare(a.from, b.from))
	})
	recs = slices.CompactFunc(recs, func(a, b srvRec) bool {
		return a.id == b.id && a.at == b.at && a.from == b.from && a.service == b.service
	})
	var all []span
	for _, ss := range t.spans {
		all = append(all, ss...)
	}
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.id, b.id) })

	i := 0
	for _, s := range all {
		if !s.ok {
			continue
		}
		st.spans++
		for i < len(recs) && recs[i].id < s.id {
			i++
		}
		var served *srvRec
		nested := false
		for j := i; j < len(recs) && recs[j].id == s.id; j++ {
			if clients[recs[j].from] {
				served = &recs[j]
			} else {
				nested = true
			}
		}
		if hasNested && s.kind == nestedKind {
			st.nestedSpans++
			if nested {
				st.nestedJoin++
			}
		}
		if served == nil {
			continue
		}
		st.joined++
		st.self = append(st.self, s.dur-served.qw-served.h)
		st.queue = append(st.queue, served.qw)
		st.handle = append(st.handle, served.h)
	}
	st.sort()
	return st
}

// metrics adds the trace.* per-layer metrics, or notes why one is
// missing.
func (st traceStats) metrics(m map[string]float64, notes map[string]string, hasNested bool) {
	if st.spans > 0 {
		m["trace.joined_pct"] = 100 * float64(st.joined) / float64(st.spans)
	}
	put := func(name string, xs []int64, q float64) {
		if v, ok := percentile(xs, len(xs), q); ok {
			m[name] = float64(v) / 1e3
		} else {
			notes[name] = "too few requests joined to their server records"
		}
	}
	put("trace.client_self_p50_us", st.self, 0.50)
	put("trace.queue_p99_us", st.queue, 0.99)
	put("trace.handle_p99_us", st.handle, 0.99)
	if hasNested && st.nestedSpans > 0 {
		m["trace.nested_joined_pct"] = 100 * float64(st.nestedJoin) / float64(st.nestedSpans)
	}
}

// merge folds another join's outcome into st (call sort afterwards).
func (st *traceStats) merge(o traceStats) {
	st.spans += o.spans
	st.joined += o.joined
	st.self = append(st.self, o.self...)
	st.queue = append(st.queue, o.queue...)
	st.handle = append(st.handle, o.handle...)
	st.nestedSpans += o.nestedSpans
	st.nestedJoin += o.nestedJoin
	st.missed = st.missed || o.missed
}

func (st *traceStats) sort() {
	slices.Sort(st.self)
	slices.Sort(st.queue)
	slices.Sort(st.handle)
}
