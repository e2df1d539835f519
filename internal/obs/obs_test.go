package obs

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	c := new(Counter)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGaugeSetMax(t *testing.T) {
	g := new(Gauge)
	g.Set(10)
	g.SetMax(5)
	if got := g.Value(); got != 10 {
		t.Fatalf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(20)
	if got := g.Value(); got != 20 {
		t.Fatalf("SetMax = %d, want 20", got)
	}
	g.Add(-3)
	if got := g.Value(); got != 17 {
		t.Fatalf("Add(-3) = %d, want 17", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := new(Histogram)
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {1<<62 + 1, histBuckets - 1},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	want := make([]int64, histBuckets)
	var sum int64
	for _, c := range cases {
		want[c.bucket]++
		sum += c.v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
	for i := range want {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	// A value inside bucket i must not exceed the bucket's upper bound.
	if b := BucketBound(3); b != 7 {
		t.Fatalf("BucketBound(3) = %d, want 7", b)
	}
	if b := BucketBound(histBuckets - 1); b != -1 {
		t.Fatalf("last bucket bound = %d, want -1 (+Inf)", b)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	tr := r.Ops()
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	tr.Record("op", time.Now(), nil)
	tr.SetSlowThreshold(time.Millisecond)
	sp := tr.Start("op")
	sp.End(nil)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", s)
	}
	if ops := tr.Recent(); ops != nil {
		t.Fatalf("nil tracer recent = %v, want nil", ops)
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("stream.events", "shard", "0")
	b := r.Counter("stream.events", "shard", "0")
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	other := r.Counter("stream.events", "shard", "1")
	if a == other {
		t.Fatal("different labels must be distinct series")
	}
	a.Add(3)
	other.Add(4)
	r.Gauge("cache.bytes").Set(42)
	r.Histogram("wal.fsync_ns").Observe(1000)

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d series, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q > %q", snap[i-1].Name, snap[i].Name)
		}
	}
	s, ok := r.Find("stream.events", "shard", "1")
	if !ok || s.Value != 4 {
		t.Fatalf("Find shard=1 = %+v ok=%v, want value 4", s, ok)
	}
	if h, ok := r.Find("wal.fsync_ns"); !ok || h.Count != 1 || h.Sum != 1000 {
		t.Fatalf("histogram series = %+v ok=%v", h, ok)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x")
}

// TestChildForwardsToParent is the property test for Child: goroutines drive
// random counter, gauge and histogram updates on several children of one
// parent, resolving series concurrently. Afterwards every child's snapshot
// equals the model of the updates made on it, and the parent's snapshot
// equals the sum of the children's models, series by series.
func TestChildForwardsToParent(t *testing.T) {
	const children, goroutines, ops = 4, 12, 2000
	type series struct {
		name, label string
		kind        Kind
	}
	all := []series{
		{"calls", "", KindCounter},
		{"calls", "a", KindCounter},
		{"calls", "b", KindCounter},
		{"resident", "", KindGauge},
		{"latency_ns", "", KindHistogram},
		{"latency_ns", "a", KindHistogram},
	}
	labels := func(l string) []string {
		if l == "" {
			return nil
		}
		return []string{"k", l}
	}
	// model is the expected snapshot, keyed by series, built with the same
	// instrument types updated single-threaded.
	type model map[series]*Series
	newModel := func() model {
		m := model{}
		for _, sr := range all {
			m[sr] = &Series{Name: sr.name, Kind: sr.kind}
			if sr.kind == KindHistogram {
				m[sr].Buckets = make([]int64, histBuckets)
			}
		}
		return m
	}
	add := func(dst, src model) {
		for sr, x := range src {
			w := dst[sr]
			w.Value += x.Value
			w.Count += x.Count
			w.Sum += x.Sum
			for i := range x.Buckets {
				w.Buckets[i] += x.Buckets[i]
			}
		}
	}
	apply := func(m model, sr series, v int64) {
		x := m[sr]
		switch sr.kind {
		case KindCounter, KindGauge:
			x.Value += v
		case KindHistogram:
			h := new(Histogram)
			h.Observe(v)
			x.Count++
			x.Sum += v
			for i := range x.Buckets {
				x.Buckets[i] += h.buckets[i].Load()
			}
		}
	}

	parent := NewRegistry()
	kids := make([]*Registry, children)
	for i := range kids {
		kids[i] = parent.Child()
	}
	models := make([]model, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		models[g] = newModel()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(7, uint64(g)))
			r := kids[g%children]
			for i := 0; i < ops; i++ {
				sr := all[rng.IntN(len(all))]
				var v int64
				switch sr.kind {
				case KindCounter:
					if rng.IntN(2) == 0 {
						v = 1
						r.Counter(sr.name, labels(sr.label)...).Inc()
					} else {
						v = rng.Int64N(100)
						r.Counter(sr.name, labels(sr.label)...).Add(v)
					}
				case KindGauge:
					v = rng.Int64N(201) - 100
					r.Gauge(sr.name, labels(sr.label)...).Add(v)
				case KindHistogram:
					v = rng.Int64N(1 << 30)
					r.Histogram(sr.name, labels(sr.label)...).Observe(v)
				}
				apply(models[g], sr, v)
			}
		}(g)
	}
	wg.Wait()

	check := func(who string, r *Registry, want model) {
		t.Helper()
		for _, sr := range all {
			got, ok := r.Find(sr.name, labels(sr.label)...)
			w := want[sr]
			if !ok {
				if w.Value != 0 || w.Count != 0 {
					t.Errorf("%s: series %v missing, want %+v", who, sr, *w)
				}
				continue
			}
			if got.Kind != sr.kind || got.Value != w.Value || got.Count != w.Count || got.Sum != w.Sum ||
				(sr.kind == KindHistogram && !reflect.DeepEqual(got.Buckets, w.Buckets)) {
				t.Errorf("%s: series %v = %+v, want %+v", who, sr, got, *w)
			}
		}
	}
	total := newModel()
	for c, kid := range kids {
		want := newModel()
		for g := c; g < goroutines; g += children {
			add(want, models[g])
		}
		check(fmt.Sprintf("child %d", c), kid, want)
		add(total, want)
	}
	check("parent", parent, total)
}

// TestChildGaugesAndTracer pins the rest of the Child contract: Set forwards
// its change, SetMax its value, a child shares the parent's tracer, a
// grandchild forwards through its parent, and a nil parent's child is a
// standalone registry.
func TestChildGaugesAndTracer(t *testing.T) {
	parent := NewRegistry()
	a, b := parent.Child(), parent.Child()
	a.Gauge("used").Set(10)
	b.Gauge("used").Set(5)
	a.Gauge("used").Set(7)
	if got := parent.Gauge("used").Value(); got != 12 {
		t.Fatalf("parent gauge after child Sets = %d, want 12", got)
	}
	a.Gauge("peak").SetMax(9)
	b.Gauge("peak").SetMax(4)
	if got, bp := parent.Gauge("peak").Value(), b.Gauge("peak").Value(); got != 9 || bp != 4 {
		t.Fatalf("peak: parent %d child %d, want 9 and 4", got, bp)
	}
	if a.Ops() != parent.Ops() {
		t.Fatal("child must share its parent's tracer")
	}
	a.Child().Counter("n").Add(3)
	if a.Counter("n").Value() != 3 || parent.Counter("n").Value() != 3 {
		t.Fatal("grandchild update did not reach every ancestor")
	}
	var none *Registry
	solo := none.Child()
	solo.Counter("n").Inc()
	if solo.Counter("n").Value() != 1 || solo.Ops() == nil {
		t.Fatal("a nil parent's child must be a working standalone registry")
	}
}

func TestTracerRings(t *testing.T) {
	tr := NewTracer(4, 10*time.Millisecond)
	base := time.Now()
	for i := 0; i < 6; i++ {
		tr.RecordDur("fast", base, time.Millisecond, nil)
	}
	tr.RecordDur("slow", base, 20*time.Millisecond, errors.New("boom"))
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent = %d ops, want ring capacity 4", len(recent))
	}
	if recent[3].Name != "slow" || recent[3].Err != "boom" {
		t.Fatalf("newest op = %+v, want the slow failure", recent[3])
	}
	for i := 1; i < len(recent); i++ {
		if recent[i-1].Seq >= recent[i].Seq {
			t.Fatal("recent ops not in chronological order")
		}
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].Name != "slow" {
		t.Fatalf("slow ring = %+v, want only the 20ms op", slow)
	}
	// Fast ops after the slow one must not evict it from the slow ring.
	for i := 0; i < 10; i++ {
		tr.RecordDur("fast", base, time.Millisecond, nil)
	}
	if slow := tr.Slow(); len(slow) != 1 {
		t.Fatalf("slow ring lost its entry: %+v", slow)
	}
}

func TestSpan(t *testing.T) {
	tr := NewTracer(8, 0)
	sp := tr.Start("rotate")
	sp.End(nil)
	ops := tr.Recent()
	if len(ops) != 1 || ops[0].Name != "rotate" || ops[0].Err != "" {
		t.Fatalf("span record = %+v", ops)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("stream.events_acked", "shard", "0").Add(7)
	r.Gauge("cache.resident_bytes").Set(1024)
	h := r.Histogram("store.fsync_ns")
	h.Observe(3) // bucket 2, le=3
	h.Observe(3)
	h.Observe(100) // bucket 7, le=127

	var sb strings.Builder
	WritePrometheus(&sb, r)
	out := sb.String()
	for _, want := range []string{
		"# TYPE stream_events_acked counter",
		`stream_events_acked{shard="0"} 7`,
		"# TYPE cache_resident_bytes gauge",
		"cache_resident_bytes 1024",
		"# TYPE store_fsync_ns histogram",
		`store_fsync_ns_bucket{le="3"} 2`,
		`store_fsync_ns_bucket{le="127"} 3`,
		`store_fsync_ns_bucket{le="+Inf"} 3`,
		"store_fsync_ns_sum 106",
		"store_fsync_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Inc()
	r.Ops().RecordDur("flush", time.Now(), time.Millisecond, nil)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/debug/metrics"); code != 200 || !strings.Contains(body, "a_b 1") {
		t.Fatalf("/debug/metrics code=%d body=%q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, `"a.b"`) {
		t.Fatalf("/debug/vars code=%d body=%q", code, body)
	}
	if code, body := get("/debug/ops"); code != 200 || !strings.Contains(body, `"flush"`) {
		t.Fatalf("/debug/ops code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ code=%d", code)
	}
}
