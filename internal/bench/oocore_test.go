package bench

import (
	"reflect"
	"testing"

	"specmine/internal/core"
	"specmine/internal/store"
)

// TestOocoreFixture proves the fixture's properties: it builds one
// cluster-pure segment per cluster, out-of-core mining and checking over it
// are equivalent to the in-memory paths at a tight and an unlimited cache
// budget, and at both budgets the selective rule set skips at least 90% of
// segment bodies — the segment-skip floor: a drop means segment statistics
// or the skip predicate regressed.
func TestOocoreFixture(t *testing.T) {
	c := OocoreCases()[0]
	dir := t.TempDir()
	decoded, err := c.BuildStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	eager, err := store.Open(c.OpenOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	db := eager.Recovered().Database(eager.Dict())
	db.FlatIndex()
	popts := core.PatternOptions{MinInstanceSupport: c.MinSupport(), MaxPatternLength: 3}
	ref, err := core.MinePatterns(db, popts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Patterns) == 0 {
		t.Fatal("fixture mines no patterns; the support threshold is off")
	}
	selective := c.SelectiveRules(db)
	refSum, err := core.CheckRules(db, selective)
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.Close(); err != nil {
		t.Fatal(err)
	}

	lazy, err := store.Open(func() store.Options {
		o := c.OpenOptions(dir)
		o.OutOfCore = true
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	if got := len(lazy.Segments()); got != c.Clusters {
		t.Fatalf("%d segments for %d clusters", got, c.Clusters)
	}

	for _, budget := range []int64{decoded / 4, 0} {
		res, stats, err := core.MineStore(lazy, popts, core.OutOfCoreOptions{CacheBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Patterns, ref.Patterns) {
			t.Fatalf("budget %d: MineStore diverges from MinePatterns (%d vs %d patterns)",
				budget, len(res.Patterns), len(ref.Patterns))
		}
		if stats.SegmentsSkipped != 0 {
			t.Errorf("budget %d: full-sweep mining skipped %d segments; every cluster has seeds", budget, stats.SegmentsSkipped)
		}
	}

	for _, budget := range []int64{decoded / 4, 0} {
		sum, stats, err := core.CheckStore(lazy, selective, core.OutOfCoreOptions{CacheBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sum.Render(lazy.Dict(), 10), refSum.Render(db.Dict, 10); got != want {
			t.Errorf("budget %d: selective CheckStore diverges:\n got %q\nwant %q", budget, got, want)
		}
		skip := float64(stats.SegmentsSkipped) / float64(stats.SegmentsTotal)
		if skip < 0.9 {
			t.Errorf("budget %d: selective skip rate %.3f < 0.9 (%d of %d skipped)", budget, skip, stats.SegmentsSkipped, stats.SegmentsTotal)
		}
	}
}
