package cache_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/store/cache"
	"specmine/internal/stream"
)

// buildStore ingests traces durable-mode across several sessions — each
// open/close cycle canonicalises the shard WALs into one segment per shard —
// then reopens the store quiescent, the state the pool snapshots. Each
// session's tail is far below the default SegmentBytes, so no barrier writes
// a segment mid-session.
func buildStore(t *testing.T, shards, sessions, tracesPerSession int) *store.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "traces")
	for s := 0; s < sessions; s++ {
		ts, err := store.Open(store.Options{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ing, err := stream.Open(stream.Config{FlushBatch: 4, Store: ts})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tracesPerSession; i++ {
			id := fmt.Sprintf("s%dtr%03d", s, i)
			evs := []string{"open", fmt.Sprintf("op%d", i%7), "use", "close"}
			if err := ing.Ingest(id, evs...); err != nil {
				t.Fatal(err)
			}
			if err := ing.CloseTrace(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// newPool builds a pool counting into a fresh registry and returns both.
func newPool(st *store.Store, budget int64) (*cache.Pool, *obs.Registry) {
	reg := obs.NewRegistry()
	return cache.New(st, cache.Options{BudgetBytes: budget, Obs: reg}), reg
}

// counts is a pool's registry series, read at one moment.
type counts struct {
	Pins, Hits, Evictions, BodiesOpened, SegmentsOpened int64
	CurBytes, PeakBytes                                 int64
}

func read(reg *obs.Registry) counts {
	return counts{
		Pins:           reg.Counter("cache.pins").Value(),
		Hits:           reg.Counter("cache.hits").Value(),
		Evictions:      reg.Counter("cache.evictions").Value(),
		BodiesOpened:   reg.Counter("cache.bodies_opened").Value(),
		SegmentsOpened: reg.Counter("cache.segments_opened").Value(),
		CurBytes:       reg.Gauge("cache.resident_bytes").Value(),
		PeakBytes:      reg.Gauge("cache.peak_bytes").Value(),
	}
}

// TestPoolCatalogOrder decodes every segment through the pool and checks that
// the concatenation in catalog order reproduces the recovered database.
func TestPoolCatalogOrder(t *testing.T) {
	st := buildStore(t, 3, 3, 20)
	want := st.Recovered().Database(st.Dict())
	p := cache.New(st, cache.Options{})
	traces := 0
	for i := 0; i < p.NumSegments(); i++ {
		traces += p.Meta(i).NumTraces()
	}
	if traces != want.NumSequences() {
		t.Fatalf("pool covers %d traces, recovered db has %d", traces, want.NumSequences())
	}
	var got []seqdb.Sequence
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		if sg.Base != len(got) {
			t.Fatalf("segment %d base %d, want %d", i, sg.Base, len(got))
		}
		got = append(got, sg.Seqs...)
		sg.Unpin()
	}
	if len(got) != len(want.Sequences) {
		t.Fatalf("pool decoded %d traces want %d", len(got), len(want.Sequences))
	}
	for i := range got {
		if len(got[i]) != len(want.Sequences[i]) {
			t.Fatalf("trace %d: %d events want %d", i, len(got[i]), len(want.Sequences[i]))
		}
		for j := range got[i] {
			if got[i][j] != want.Sequences[i][j] {
				t.Fatalf("trace %d event %d: %d want %d", i, j, got[i][j], want.Sequences[i][j])
			}
		}
	}
}

// TestPoolHitsAndMisses pins the same segment twice under an unlimited
// budget: one body decode (the miss), one hit, no evictions.
func TestPoolHitsAndMisses(t *testing.T) {
	st := buildStore(t, 2, 2, 12)
	p, reg := newPool(st, 0)
	for round := 0; round < 2; round++ {
		sg, err := p.Pin(0)
		if err != nil {
			t.Fatal(err)
		}
		sg.Unpin()
	}
	m := read(reg)
	if m.BodiesOpened != 1 || m.Hits != 1 {
		t.Fatalf("counts %+v: want 1 body decode, 1 hit", m)
	}
	if m.Evictions != 0 {
		t.Fatalf("unlimited budget evicted %d entries", m.Evictions)
	}
	if m.BodiesOpened != 1 || m.SegmentsOpened != 1 {
		t.Fatalf("counts %+v: want 1 body decode of 1 distinct segment", m)
	}
}

// TestPoolEviction cycles through every segment under a budget that holds
// roughly one of them: later pins evict earlier entries, re-pinning re-decodes,
// and the resident estimate returns to at most the budget once unpinned.
func TestPoolEviction(t *testing.T) {
	st := buildStore(t, 2, 4, 12)
	p, reg := newPool(st, 0)
	if p.NumSegments() < 4 {
		t.Fatalf("fixture sealed only %d segments", p.NumSegments())
	}
	// Size the budget off a real segment so the test tracks the estimator.
	sg, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	sg.Unpin()
	one := read(reg).PeakBytes

	p, reg = newPool(st, one+one/2)
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		sg.Unpin()
	}
	m := read(reg)
	if m.Evictions == 0 {
		t.Fatalf("budget %d never evicted across %d segments: %+v", one+one/2, p.NumSegments(), m)
	}
	if m.CurBytes > one+one/2 {
		t.Fatalf("resident %d bytes exceeds budget %d with nothing pinned", m.CurBytes, one+one/2)
	}
	// Re-pinning an evicted segment is a miss again.
	before := m.BodiesOpened
	sg, err = p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	sg.Unpin()
	if read(reg).BodiesOpened != before+1 {
		t.Fatal("evicted segment was served without a re-decode")
	}
}

// TestPoolPinnedNeverEvicted holds every segment pinned at once under a tiny
// budget: the pool must overshoot rather than evict a pinned entry, and every
// pinned view must stay valid.
func TestPoolPinnedNeverEvicted(t *testing.T) {
	st := buildStore(t, 2, 3, 12)
	p, reg := newPool(st, 1)
	var pins []*cache.Segment
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, sg)
	}
	if m := read(reg); m.Evictions != 0 {
		t.Fatalf("evicted %d entries while everything was pinned", m.Evictions)
	}
	for i, sg := range pins {
		if len(sg.Seqs) != p.Meta(i).NumTraces() {
			t.Fatalf("pinned segment %d shows %d traces want %d", i, len(sg.Seqs), p.Meta(i).NumTraces())
		}
		sg.Unpin()
	}
	// With all pins released the pool must shrink back under the budget (here:
	// evict everything, since no segment fits in one byte).
	if m := read(reg); m.CurBytes > 1 {
		t.Fatalf("resident %d bytes after releasing all pins under a 1-byte budget", m.CurBytes)
	}
}

// TestPoolCloseKeepsLeakedPins: Close gives back the bytes of unpinned
// entries only, so a pin still held at Close stays visible in
// cache.resident_bytes.
func TestPoolCloseKeepsLeakedPins(t *testing.T) {
	st := buildStore(t, 2, 3, 12)
	p, reg := newPool(st, 0)
	last := p.NumSegments() - 1
	if _, err := p.Pin(last); err != nil {
		t.Fatal(err)
	}
	held := read(reg).CurBytes
	for i := 0; i < last; i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		sg.Unpin()
	}
	if m := read(reg); m.CurBytes <= held {
		t.Fatalf("resident %d bytes with every segment decoded, want more than the %d one segment holds", m.CurBytes, held)
	}
	p.Close()
	if m := read(reg); m.CurBytes != held {
		t.Fatalf("resident %d bytes after Close, want the %d bytes the leaked pin holds", m.CurBytes, held)
	}
}

// TestPoolStatsResident loads stats for every segment without ever opening a
// body, then checks stats survive eviction of their data entry.
func TestPoolStatsResident(t *testing.T) {
	st := buildStore(t, 2, 3, 12)
	p, reg := newPool(st, 1)
	for i := 0; i < p.NumSegments(); i++ {
		s, err := p.Stats(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumDistinctEvents() == 0 {
			t.Fatalf("segment %d stats empty", i)
		}
	}
	if m := read(reg); m.BodiesOpened != 0 {
		t.Fatalf("loading stats decoded %d bodies", m.BodiesOpened)
	}
	// Cycle data through the 1-byte budget: every unpin evicts, but stats stay.
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		sg.Unpin()
		if _, err := p.Stats(i); err != nil {
			t.Fatalf("stats for %d lost after eviction: %v", i, err)
		}
	}
}

// TestPoolFragment checks the per-segment index fragment agrees with a fresh
// build and is charged to the budget.
func TestPoolFragment(t *testing.T) {
	st := buildStore(t, 2, 2, 12)
	p, reg := newPool(st, 0)
	sg, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Unpin()
	bare := read(reg).CurBytes
	frag := sg.Fragment()
	if frag2 := sg.Fragment(); frag2 != frag {
		t.Fatal("second Fragment call rebuilt the index")
	}
	if read(reg).CurBytes <= bare {
		t.Fatal("fragment not charged to the budget")
	}
	want := seqdb.BuildPositionIndex(sg.Seqs, st.Dict().Size())
	for e := 0; e < st.Dict().Size(); e++ {
		a, b := frag.SeqsContaining(seqdb.EventID(e)), want.SeqsContaining(seqdb.EventID(e))
		if len(a) != len(b) {
			t.Fatalf("event %d: fragment lists %d seqs want %d", e, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d seq %d: fragment %d want %d", e, i, a[i], b[i])
			}
		}
	}
}

// TestPoolFragmentBuiltOnce: concurrent first users of one pinned segment's
// fragment share a single build — one pointer, one cache.fragments_built, one
// charge to cache.resident_bytes — and an evicted, re-pinned segment builds
// its fragment afresh.
func TestPoolFragmentBuiltOnce(t *testing.T) {
	st := buildStore(t, 2, 2, 12)

	// The charge of one fragment, measured on a pool used serially.
	ref, refReg := newPool(st, 0)
	rs, err := ref.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	bare := read(refReg).CurBytes
	rs.Fragment()
	cost := read(refReg).CurBytes - bare
	rs.Unpin()
	if cost <= 0 {
		t.Fatalf("fragment charged %d bytes", cost)
	}

	// A one-byte budget evicts every segment as soon as it is unpinned.
	p, reg := newPool(st, 1)
	built := reg.Counter("cache.fragments_built")
	sg, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	bare = read(reg).CurBytes
	const users = 8
	frags := make([]*seqdb.PositionIndex, users)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range frags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			frags[g] = sg.Fragment()
		}()
	}
	close(start)
	wg.Wait()
	for g, f := range frags {
		if f == nil || f != frags[0] {
			t.Fatalf("user %d got fragment %p, user 0 %p", g, f, frags[0])
		}
	}
	if n := built.Value(); n != 1 {
		t.Fatalf("%d concurrent users built %d fragments, want 1", users, n)
	}
	if got := read(reg).CurBytes - bare; got != cost {
		t.Fatalf("fragment charged %d bytes, want one charge of %d", got, cost)
	}

	sg.Unpin()
	if c := read(reg); c.Evictions != 1 || c.CurBytes != 0 {
		t.Fatalf("after unpin under a 1-byte budget: %d evictions, %d resident bytes", c.Evictions, c.CurBytes)
	}
	sg, err = p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Unpin()
	if f := sg.Fragment(); f == nil || f == frags[0] {
		t.Fatalf("re-pinned segment reused the evicted fragment %p", f)
	}
	if n := built.Value(); n != 2 {
		t.Fatalf("after an eviction and a re-pin %d fragments built, want 2", n)
	}
}

// TestPoolSingleFlightCountsOneMiss pins one cold segment from many
// goroutines at once: the body is decoded once, the loader's caller counts
// the only miss, and every other caller — waiters on the load included —
// counts a hit.
func TestPoolSingleFlightCountsOneMiss(t *testing.T) {
	st := buildStore(t, 2, 2, 12)
	p, reg := newPool(st, 0)
	const pinners = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < pinners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sg, err := p.Pin(0)
			if err != nil {
				t.Errorf("pin: %v", err)
				return
			}
			if len(sg.Seqs) != p.Meta(0).NumTraces() {
				t.Errorf("segment 0: %d traces want %d", len(sg.Seqs), p.Meta(0).NumTraces())
			}
			sg.Unpin()
		}()
	}
	close(start)
	wg.Wait()
	m := read(reg)
	if m.BodiesOpened != 1 || m.Hits != pinners-1 {
		t.Fatalf("counts %+v: want 1 body decode, %d hits", m, pinners-1)
	}
	if m.BodiesOpened != 1 || m.SegmentsOpened != 1 {
		t.Fatalf("counts %+v: want 1 body decode of 1 distinct segment", m)
	}
}

// TestPoolLoadErrorRetries: a segment whose body cannot be read fails its pin
// as a miss and is not cached, so a later pin retries the load.
func TestPoolLoadErrorRetries(t *testing.T) {
	st := buildStore(t, 2, 2, 12)
	p, reg := newPool(st, 0)
	path := p.Meta(0).Path
	if err := os.Rename(path, path+".moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(0); err == nil {
		t.Fatal("pin of an unreadable segment succeeded")
	}
	if m := read(reg); m.BodiesOpened != 1 || m.Hits != 0 || m.CurBytes != 0 {
		t.Fatalf("counts %+v after a failed load: want 1 body opened, 0 hits, nothing resident", m)
	}
	if err := os.Rename(path+".moved", path); err != nil {
		t.Fatal(err)
	}
	sg, err := p.Pin(0)
	if err != nil {
		t.Fatalf("retry after the segment came back: %v", err)
	}
	if len(sg.Seqs) != p.Meta(0).NumTraces() {
		t.Fatalf("segment 0: %d traces want %d", len(sg.Seqs), p.Meta(0).NumTraces())
	}
	sg.Unpin()
	if m := read(reg); m.BodiesOpened != 2 || m.Hits != 0 {
		t.Fatalf("counts %+v: want the retry to open the body a second time", m)
	}
}

// TestPoolConcurrentPins hammers the pool from several goroutines under a
// small budget; correctness is checked by trace counts and the race detector.
func TestPoolConcurrentPins(t *testing.T) {
	st := buildStore(t, 3, 3, 16)
	p, reg := newPool(st, 4<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				i := rng.Intn(p.NumSegments())
				sg, err := p.Pin(i)
				if err != nil {
					t.Errorf("pin %d: %v", i, err)
					return
				}
				if len(sg.Seqs) != p.Meta(i).NumTraces() {
					t.Errorf("segment %d: %d traces want %d", i, len(sg.Seqs), p.Meta(i).NumTraces())
				}
				if k%3 == 0 {
					sg.Fragment()
				}
				sg.Unpin()
			}
		}(int64(g))
	}
	wg.Wait()
	m := read(reg)
	if m.Pins != 8*200 || m.Hits+m.BodiesOpened != m.Pins {
		t.Fatalf("pins %d, hits %d + bodies opened %d: want %d pins, each a hit or a body opened", m.Pins, m.Hits, m.BodiesOpened, 8*200)
	}
}
