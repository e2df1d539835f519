package obs

import (
	"sync"
	"time"
)

// Operation tracing: a fixed-capacity ring of the most recent operations
// (name, start, duration, outcome) plus a second ring that captures only
// operations slower than a threshold, so a burst of fast ops cannot flush the
// evidence of a slow one out of the window. Recording is mutex-guarded — the
// tracer is for operation-granularity events (flush barriers, rotations,
// segment publishes, snapshots), not per-event hot paths, which belong in counters
// and histograms.

// defaultSlowThreshold is the slow-op capture threshold a NewRegistry tracer
// starts with.
const defaultSlowThreshold = 25 * time.Millisecond

// Op is one recorded operation.
type Op struct {
	// Seq numbers operations in record order across both rings.
	Seq uint64 `json:"seq"`
	// Name identifies the operation ("wal.rotate", "segment.publish", ...).
	Name string `json:"name"`
	// Start is when the operation began.
	Start time.Time `json:"start"`
	// Dur is the measured duration.
	Dur time.Duration `json:"dur_ns"`
	// Err is the failure message, empty on success.
	Err string `json:"err,omitempty"`
}

// Tracer is the ring-buffered recent-operations log. Nil receivers no-op on
// every method, so a disabled pipeline can thread one through unconditionally.
type Tracer struct {
	mu        sync.Mutex
	seq       uint64
	threshold time.Duration
	ring      []Op
	n         int // valid entries in ring
	next      int
	slow      []Op
	slowN     int
	slowNext  int
}

// NewTracer returns a tracer keeping the last capacity operations and, in a
// separate ring of the same capacity, the last capacity operations slower
// than slowThreshold (<= 0 disables slow capture).
func NewTracer(capacity int, slowThreshold time.Duration) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		threshold: slowThreshold,
		ring:      make([]Op, capacity),
		slow:      make([]Op, capacity),
	}
}

// SetSlowThreshold changes the slow-op capture threshold.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threshold = d
	t.mu.Unlock()
}

// Record logs an operation that started at start and just finished; err nil
// means success.
func (t *Tracer) Record(name string, start time.Time, err error) {
	t.RecordDur(name, start, time.Since(start), err)
}

// RecordDur is Record with an explicit duration.
func (t *Tracer) RecordDur(name string, start time.Time, dur time.Duration, err error) {
	if t == nil {
		return
	}
	op := Op{Name: name, Start: start, Dur: dur}
	if err != nil {
		op.Err = err.Error()
	}
	t.mu.Lock()
	t.seq++
	op.Seq = t.seq
	t.ring[t.next] = op
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	if t.threshold > 0 && dur >= t.threshold {
		t.slow[t.slowNext] = op
		t.slowNext = (t.slowNext + 1) % len(t.slow)
		if t.slowN < len(t.slow) {
			t.slowN++
		}
	}
	t.mu.Unlock()
}

// Span is an in-flight operation handle from Start; call End exactly once.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// Start begins a span. On a nil tracer the returned span is inert (End
// no-ops), and time is not read.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// End records the span with its outcome.
func (s Span) End(err error) {
	if s.t == nil {
		return
	}
	s.t.Record(s.name, s.start, err)
}

// Recent returns the retained operations, oldest first.
func (t *Tracer) Recent() []Op {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return unwind(t.ring, t.n, t.next)
}

// Slow returns the retained slow operations, oldest first.
func (t *Tracer) Slow() []Op {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return unwind(t.slow, t.slowN, t.slowNext)
}

// unwind copies a ring's n valid entries ending just before next, in
// chronological order.
func unwind(ring []Op, n, next int) []Op {
	out := make([]Op, 0, n)
	start := (next - n + len(ring)) % len(ring)
	for i := 0; i < n; i++ {
		out = append(out, ring[(start+i)%len(ring)])
	}
	return out
}
