// Package obs is the process-wide observability layer: a low-overhead
// metrics registry (counters, gauges, fixed-bucket histograms — named,
// optionally labeled series with lock-free hot paths), a ring-buffered
// operation tracer (see trace.go), and an HTTP debug handler exposing
// everything as Prometheus text exposition, an expvar-style JSON snapshot,
// and the stdlib pprof endpoints (see handler.go).
//
// Design constraints, in order:
//
//  1. Instrumentation must be safe to leave on. Every handle method is
//     nil-receiver safe and every Registry getter returns a nil handle from a
//     nil Registry, so a disabled pipeline pays one predictable branch per
//     instrumentation point — no build tags, no interface dispatch, no
//     double-wiring. Enabled, the hot-path cost is one atomic add (counters,
//     gauges) or two plus a bit-scan (histograms).
//
//  2. Registration is cold, observation is hot. Series are resolved once at
//     component construction (a mutex-guarded map lookup) and the returned
//     handle is used forever after; nothing on the observation path touches
//     the registry again.
//
//  3. One snapshot API. Snapshot returns every series — kind, labels,
//     counter/gauge value or histogram buckets — in deterministic order; the
//     Prometheus and JSON renderings in handler.go are views over it, and
//     tests assert against it directly.
//
//  4. One count per update. A per-call view is a Child registry: each of its
//     instruments forwards every update to the parent's instrument of the
//     same name, so the call reads its own exact counts from the child while
//     the parent still sees every update live — nothing is copied or rebased
//     afterwards.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; nil receivers no-op, so a handle obtained from a nil
// (disabled) Registry costs one branch per Inc/Add.
type Counter struct {
	v      atomic.Int64
	parent *Counter // a Child registry's forward target; nil otherwise
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Counters are monotone; callers must not pass negative n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
	if c.parent != nil {
		c.parent.Add(n)
	}
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value: queue depths, resident bytes, watermarks.
// The zero value is ready; nil receivers no-op.
//
// A Child registry's gauge forwards Set and Add to its parent as the change
// they make, so the parent reads the sum of its children, and forwards SetMax
// as is, so the parent's high-water mark is the largest of its children's.
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	old := g.v.Swap(v)
	if g.parent != nil {
		g.parent.Add(v - old)
	}
}

// Add adds delta (negative to subtract) — the form shared gauges use, so
// concurrent owners aggregate instead of overwriting each other.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
	if g.parent != nil {
		g.parent.Add(delta)
	}
}

// SetMax raises the gauge to v if v is greater — a lock-free high-water mark.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	if g.parent != nil {
		g.parent.SetMax(v)
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed histogram geometry: bucket i counts observations v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds v <= 0.
// 40 buckets cover 1ns..~9min in nanoseconds and 1..~550G in plain units
// (batch sizes, byte counts); larger observations clamp into the last bucket.
const histBuckets = 40

// Histogram is a fixed-bucket, power-of-two histogram with lock-free
// observation: one bit-scan plus three atomic adds. The zero value is ready;
// nil receivers no-op. Values are unit-free int64s — by convention, series
// named *_ns observe nanoseconds and *_bytes observe bytes.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
	parent  *Histogram
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if h.parent != nil {
		h.parent.Observe(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketBound returns bucket i's inclusive upper bound (2^i - 1); the last
// bucket is unbounded.
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1 // +Inf
	}
	return int64(1)<<uint(i) - 1
}

// Kind discriminates series types in a Snapshot.
type Kind int

const (
	// KindCounter is a monotone counter.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value.
	KindGauge
	// KindHistogram is a fixed-bucket histogram.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Label is one name=value dimension of a series.
type Label struct {
	Key, Value string
}

// Series is one named instrument in a Snapshot.
type Series struct {
	// Name is the registered series name (dotted; the Prometheus view
	// sanitises it).
	Name string
	// Labels are the series dimensions, sorted by key.
	Labels []Label
	// Kind says which of the value fields are meaningful.
	Kind Kind
	// Value carries counter and gauge values.
	Value int64
	// Count, Sum and Buckets carry histogram state; Buckets[i] is the
	// non-cumulative count of bucket i (see BucketBound).
	Count, Sum int64
	Buckets    []int64
}

// entry is a registered instrument; exactly one of c/g/h is non-nil.
type entry struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named series and the process tracer. The zero value is not
// usable — call NewRegistry — but a nil *Registry is: every getter returns a
// nil handle and Snapshot returns nothing, which is how instrumentation is
// disabled.
type Registry struct {
	mu     sync.Mutex
	series map[string]*entry
	order  []*entry // registration order; Snapshot sorts its copy
	tracer *Tracer
	parent *Registry // set by Child: every instrument forwards to parent's
}

// NewRegistry returns an empty registry with a default Tracer (capacity 256,
// slow-op threshold 25ms).
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*entry),
		tracer: NewTracer(256, defaultSlowThreshold),
	}
}

// Child returns a registry for one unit of work — a call, a query — whose
// counters, gauges and histograms forward every update to r's instrument of
// the same name and labels (see Gauge for how gauges forward). The child's
// Snapshot holds only its own updates; r sees them live, as if counted into r
// directly. The child shares r's tracer. On a nil r, Child returns a
// standalone registry, so a caller without a registry still gets its
// per-call counts.
func (r *Registry) Child() *Registry {
	if r == nil {
		return NewRegistry()
	}
	return &Registry{series: make(map[string]*entry), tracer: r.tracer, parent: r}
}

// key renders the unique series identity: name plus sorted labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte('\x00')
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// parseLabels turns variadic "k1", "v1", "k2", "v2" pairs into sorted Labels;
// it panics on an odd count (a wiring bug, not a runtime condition).
func parseLabels(kv []string) []Label {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return labels
}

// get resolves (registering on first use) the series name+labels as kind. A
// kind clash is a wiring bug and panics with both kinds named. A child's new
// instrument is linked to the parent's, registering that one too.
func (r *Registry) get(name string, kind Kind, labels []Label) *entry {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.series[k]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: series %q registered as %v, requested as %v", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: labels, kind: kind}
	var up entry // the parent's instruments; none without a parent
	if r.parent != nil {
		up = *r.parent.get(name, kind, labels)
	}
	switch kind {
	case KindCounter:
		e.c = &Counter{parent: up.c}
	case KindGauge:
		e.g = &Gauge{parent: up.g}
	case KindHistogram:
		e.h = &Histogram{parent: up.h}
	}
	r.series[k] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns the named counter, registering it on first use. Labels are
// "key", "value" pairs. A nil Registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, KindCounter, parseLabels(labelPairs)).c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, KindGauge, parseLabels(labelPairs)).g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, KindHistogram, parseLabels(labelPairs)).h
}

// Ops returns the registry's operation tracer; nil from a nil Registry.
func (r *Registry) Ops() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Snapshot returns every registered series with its current value, sorted by
// name then labels — the one consistent read API every exposition format and
// test is built on. Each series value is read atomically; the snapshot as a
// whole is not a barrier (concurrent updates may land between series), which
// is the standard scrape contract.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]*entry(nil), r.order...)
	r.mu.Unlock()
	out := make([]Series, 0, len(entries))
	for _, e := range entries {
		s := Series{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			s.Value = e.c.Value()
		case KindGauge:
			s.Value = e.g.Value()
		case KindHistogram:
			s.Count = e.h.count.Load()
			s.Sum = e.h.sum.Load()
			s.Buckets = make([]int64, histBuckets)
			for i := range s.Buckets {
				s.Buckets[i] = e.h.buckets[i].Load()
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelString(out[i].Labels) < labelString(out[j].Labels)
	})
	return out
}

// Find returns the snapshot series with the given name and labels, or false.
// Test helper grade: it scans a fresh snapshot.
func (r *Registry) Find(name string, labelPairs ...string) (Series, bool) {
	want := labelString(parseLabels(labelPairs))
	for _, s := range r.Snapshot() {
		if s.Name == name && labelString(s.Labels) == want {
			return s, true
		}
	}
	return Series{}, false
}

// labelString renders labels canonically for sorting and matching.
func labelString(labels []Label) string {
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte(',')
	}
	return sb.String()
}
