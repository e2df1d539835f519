package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"specmine/internal/mine"
	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/stream"
)

// buildSegmentedStore ingests a clustered workload across several durable
// sessions — each open/close cycle canonicalises the shard WALs into one
// segment per shard — and reopens the store quiescent. Session s's traces mix
// a shared protocol (open/use/close, with occasional missing close) with
// session-local events c{s}_a / c{s}_b, so segments from different sessions
// have provably disjoint cluster alphabets: the raw material for skipping.
func buildSegmentedStore(t *testing.T, shards, sessions, perSession int) *TraceStore {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "traces")
	writeSessions(t, dir, shards, sessions, perSession)
	return reopenStore(t, dir)
}

// writeSessions writes buildSegmentedStore's sessions into dir.
func writeSessions(t *testing.T, dir string, shards, sessions, perSession int) {
	t.Helper()
	for s := 0; s < sessions; s++ {
		ca, cb := fmt.Sprintf("c%d_a", s), fmt.Sprintf("c%d_b", s)
		traces := make([][]string, perSession)
		for i := range traces {
			traces[i] = []string{"open", ca, cb, "use", "close"}
			if i%5 == 4 {
				traces[i] = []string{"open", ca, "use"} // drops cb and close: violations
			}
		}
		ingestSession(t, dir, shards, fmt.Sprintf("s%d", s), traces)
	}
}

// ingestSession runs one durable session over dir that ingests and seals
// traces (ids prefix+"tr"+index) and closes.
func ingestSession(t *testing.T, dir string, shards int, prefix string, traces [][]string) {
	t.Helper()
	ts, err := store.Open(store.Options{Dir: dir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stream.Open(stream.Config{FlushBatch: 4, Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range traces {
		id := fmt.Sprintf("%str%03d", prefix, i)
		if err := st.Ingest(id, evs...); err != nil {
			t.Fatal(err)
		}
		if err := st.CloseTrace(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopenStore opens dir quiescent and closes it when the test ends.
func reopenStore(t *testing.T, dir string) *TraceStore {
	t.Helper()
	ts, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// countingSource counts a Source's views still held: AcquireSeed adds one,
// the view's Release takes it back.
type countingSource struct {
	mine.Source
	live atomic.Int64
}

func (c *countingSource) AcquireSeed(e seqdb.EventID) (*mine.SeedView, error) {
	sv, err := c.Source.AcquireSeed(e)
	if err != nil {
		return nil, err
	}
	c.live.Add(1)
	view := *sv
	view.Release = func() {
		c.live.Add(-1)
		sv.Release()
	}
	return &view, nil
}

// TestOutOfCoreEvictionReleasesViews: with four workers contending for a
// cache far smaller than one segment, seed views that borrow rows from
// pinned fragments still mine exactly the in-memory answer, and every view
// gives its pins back: no view is left held, the cache has evicted down to
// its budget before it closes, and the call's cache.resident_bytes reads 0
// once it has.
func TestOutOfCoreEvictionReleasesViews(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	const budget = 2 << 10
	run := func(name string, mineIt func(mine.Source) (any, error), want any) {
		t.Helper()
		call := (*obs.Registry)(nil).Child()
		src, err := newSegSource(ts, budget, call)
		if err != nil {
			t.Fatal(err)
		}
		counted := &countingSource{Source: src}
		got, err := mineIt(counted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := counted.live.Load(); n != 0 {
			t.Fatalf("%s: %d seed views never released", name, n)
		}
		if call.Counter("cache.evictions").Value() == 0 {
			t.Fatalf("%s: no eviction at a %d-byte budget: the test exercises nothing", name, budget)
		}
		if r := call.Gauge("cache.resident_bytes").Value(); r > budget {
			t.Fatalf("%s: %d bytes resident after mining, over the %d budget: pins leaked", name, r, budget)
		}
		src.pool.Close()
		if r := call.Gauge("cache.resident_bytes").Value(); r != 0 {
			t.Fatalf("%s: cache.resident_bytes = %d after the call, want 0", name, r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: out-of-core result diverges from in-memory mining:\n got %+v\nwant %+v", name, got, want)
		}
	}

	popts := PatternOptions{MinSupportRel: 0.2, MaxPatternLength: 4, IncludeInstances: true, Workers: 4}
	wantP, err := MinePatterns(db, popts)
	if err != nil {
		t.Fatal(err)
	}
	wantP.Stats.Duration = 0
	run("closed patterns", func(src mine.Source) (any, error) {
		res, err := minePatterns(src, popts, nil)
		if err == nil {
			res.Stats.Duration = 0
		}
		return res, err
	}, wantP)

	for _, full := range []bool{false, true} {
		ropts := RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
			MaxPremiseLength: 2, MaxConsequentLength: 2, Workers: 4, Full: full}
		wantR, err := MineRules(db, ropts)
		if err != nil {
			t.Fatal(err)
		}
		wantR.Stats.Duration = 0
		run(fmt.Sprintf("rules full=%v", full), func(src mine.Source) (any, error) {
			res, err := mineRules(src, ropts, nil)
			if err == nil {
				res.Stats.Duration = 0
			}
			return res, err
		}, wantR)
	}
}

// TestMineStoreRulesRebindsAcrossViews: each mining worker keeps one
// extender for the whole run and rebinds it to every seed view it serves.
// With session-local seeds (one view per cluster), longer rules, an
// i-support floor above 1 and a cache far smaller than one segment, the
// out-of-core miner must still equal the resident one at one and at four
// workers.
func TestMineStoreRulesRebindsAcrossViews(t *testing.T) {
	ts := buildSegmentedStore(t, 2, 6, 10)
	db := ts.Recovered().Database(ts.Dict())
	for _, full := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			ropts := RuleOptions{MinSeqSupport: 4, MinInstanceSupport: 2, MinConfidence: 0.6,
				MaxPremiseLength: 3, MaxConsequentLength: 3, Workers: workers, Full: full}
			want, err := MineRules(db, ropts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := MineStoreRules(ts, ropts, OutOfCoreOptions{CacheBytes: 2 << 10})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rules) == 0 {
				t.Fatalf("full=%v: fixture mined no rules", full)
			}
			want.Stats.Duration, got.Stats.Duration = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("full=%v workers=%d: MineStoreRules diverges:\n got %+v\nwant %+v", full, workers, got, want)
			}
		}
	}
}

// TestOutOfCoreLazyOpen: a store opened with store.Options.OutOfCore holds no
// sealed traces in memory, refuses an ingester, and still mines and checks
// byte-identically to an eager open of the same directory.
func TestOutOfCoreLazyOpen(t *testing.T) {
	ts := buildSegmentedStore(t, 2, 3, 20)
	dir := ts.Dir()
	db := ts.Recovered().Database(ts.Dict())

	popts := PatternOptions{MinSupportRel: 0.2, MaxPatternLength: 4}
	wantP, err := MinePatterns(db, popts)
	if err != nil {
		t.Fatal(err)
	}
	ropts := RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
		MaxPremiseLength: 2, MaxConsequentLength: 2}
	wantR, err := MineRules(db, ropts)
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := CheckRules(db, wantR.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	lazy, err := store.Open(store.Options{Dir: dir, OutOfCore: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	if n := lazy.Recovered().NumSealed(); n != 0 {
		t.Fatalf("lazy open materialised %d sealed traces", n)
	}
	if _, err := stream.Open(stream.Config{Store: lazy}); err == nil {
		t.Fatal("lazy-open store accepted an ingester")
	}

	oo := OutOfCoreOptions{CacheBytes: 2 << 10}
	gotP, _, err := MineStore(lazy, popts, oo)
	if err != nil {
		t.Fatal(err)
	}
	wantP.Stats.Duration, gotP.Stats.Duration = 0, 0
	if !reflect.DeepEqual(wantP, gotP) {
		t.Fatalf("lazy MineStore diverges:\n got %+v\nwant %+v", gotP, wantP)
	}
	gotR, _, err := MineStoreRules(lazy, ropts, oo)
	if err != nil {
		t.Fatal(err)
	}
	wantR.Stats.Duration, gotR.Stats.Duration = 0, 0
	if !reflect.DeepEqual(wantR, gotR) {
		t.Fatalf("lazy MineStoreRules diverges:\n got %+v\nwant %+v", gotR, wantR)
	}
	gotC, _, err := CheckStore(lazy, wantR.Rules, oo)
	if err != nil {
		t.Fatal(err)
	}
	if gotC.Render(db.Dict, 5) != wantC.Render(db.Dict, 5) {
		t.Fatalf("lazy CheckStore diverges:\n%s\nvs\n%s",
			gotC.Render(db.Dict, 5), wantC.Render(db.Dict, 5))
	}
}

// TestOutOfCoreSegmentSkipping checks that a rule set touching only one
// session's cluster events opens only that session's segments, and that the
// answers still match the in-memory check exactly.
func TestOutOfCoreSegmentSkipping(t *testing.T) {
	const shards, sessions = 3, 6
	ts := buildSegmentedStore(t, shards, sessions, 20)
	db := ts.Recovered().Database(ts.Dict())

	// Rules over session-0 cluster events only: c0_a -> c0_b (violated by the
	// every-5th truncated trace) plus c0_b -> use.
	selective := []Rule{
		EvaluateRule(db, ParsePattern(db.Dict, "c0_a"), ParsePattern(db.Dict, "c0_b")),
		EvaluateRule(db, ParsePattern(db.Dict, "c0_b"), ParsePattern(db.Dict, "use")),
	}
	want, err := CheckRules(db, selective)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalViolations() == 0 {
		t.Fatal("selective rules produced no violations")
	}
	got, stats, err := CheckStore(ts, selective, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Render(db.Dict, 5) != want.Render(db.Dict, 5) {
		t.Fatalf("skipping check diverges:\n%s\nvs\n%s", got.Render(db.Dict, 5), want.Render(db.Dict, 5))
	}
	// Only session 0's segments (one per shard) contain c0_a/c0_b; everything
	// else must be answered from stats alone.
	if want := stats.SegmentsTotal - shards; stats.SegmentsSkipped < want {
		t.Fatalf("skipped %d of %d segments, want at least %d: %+v",
			stats.SegmentsSkipped, stats.SegmentsTotal, want, stats)
	}
	if opened := stats.Obs.Counter("cache.bodies_opened").Value(); opened > int64(shards) {
		t.Fatalf("opened %d segment bodies, want at most %d", opened, shards)
	}
}

// TestOutOfCoreMiningSkipsSegments mines a store whose sessions share no
// events, with a support threshold only the first (large) session's events
// meet: every seed's view lives in session 0, so the other sessions' segment
// bodies are never decoded — and the result still matches in-memory mining.
func TestOutOfCoreMiningSkipsSegments(t *testing.T) {
	const shards = 2
	dir := filepath.Join(t.TempDir(), "traces")
	sizes := []int{40, 10, 10, 10, 10}
	for s, n := range sizes {
		ts, err := store.Open(store.Options{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		st, err := stream.Open(stream.Config{FlushBatch: 4, Store: ts})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("s%dtr%03d", s, i)
			evs := []string{
				fmt.Sprintf("c%d_open", s), fmt.Sprintf("c%d_op%d", s, i%3),
				fmt.Sprintf("c%d_use", s), fmt.Sprintf("c%d_close", s),
			}
			if err := st.Ingest(id, evs...); err != nil {
				t.Fatal(err)
			}
			if err := st.CloseTrace(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	db := ts.Recovered().Database(ts.Dict())

	// Only session 0's c0_open/c0_use/c0_close reach 20 occurrences.
	popts := PatternOptions{MinInstanceSupport: 20, MaxPatternLength: 4}
	want, err := MinePatterns(db, popts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("fixture mined no patterns")
	}
	got, stats, err := MineStore(ts, popts, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want.Stats.Duration, got.Stats.Duration = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("selective MineStore diverges:\n got %+v\nwant %+v", got, want)
	}
	if skipWant := stats.SegmentsTotal - shards; stats.SegmentsSkipped < skipWant {
		t.Fatalf("skipped %d of %d segments, want at least %d: %+v",
			stats.SegmentsSkipped, stats.SegmentsTotal, skipWant, stats)
	}
}
