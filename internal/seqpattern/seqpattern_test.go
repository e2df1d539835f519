package seqpattern

import (
	"math/rand"
	"sort"
	"testing"

	"specmine/internal/seqdb"
)

func mkdb(traces ...[]string) *seqdb.Database {
	db := seqdb.NewDatabase()
	for _, t := range traces {
		db.AppendNames(t...)
	}
	return db
}

func supports(res *Result, dict *seqdb.Dictionary) map[string]int {
	out := make(map[string]int)
	for _, p := range res.Patterns {
		out[p.Pattern.String(dict)] = p.SeqSupport
	}
	return out
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Errorf("zero options accepted")
	}
	if err := (Options{MinSeqSupport: 1}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	if err := (Options{MinSeqSupport: 1, MaxPatternLength: -2}).Validate(); err == nil {
		t.Errorf("negative MaxPatternLength accepted")
	}
	if _, err := Mine(seqdb.NewDatabase(), Options{}); err == nil {
		t.Errorf("Mine must reject invalid options")
	}
	eight := seqdb.NewDatabase()
	for i := 0; i < 8; i++ {
		eight.AppendNames("a")
	}
	res, err := Mine(eight, Options{MinSupportRel: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSupport != 2 {
		t.Errorf("applied support %d want 2", res.MinSupport)
	}
}

func TestMineClassicExample(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "c"},
		[]string{"a", "c"},
		[]string{"b", "c"},
		[]string{"a", "b"},
	)
	res, err := Mine(db, Options{MinSeqSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := supports(res, db.Dict)
	want := map[string]int{
		"<a>":    3,
		"<b>":    3,
		"<c>":    3,
		"<a, b>": 2,
		"<a, c>": 2,
		"<b, c>": 2,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: support %d want %d", k, got[k], v)
		}
	}
}

func TestMineCountsSequencesNotOccurrences(t *testing.T) {
	// A pattern repeated many times inside a single trace counts once:
	// sequence support differs from the instance support of iterative mining.
	db := mkdb(
		[]string{"lock", "unlock", "lock", "unlock", "lock", "unlock"},
		[]string{"idle"},
	)
	res, err := Mine(db, Options{MinSeqSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := supports(res, db.Dict)
	if got["<lock, unlock>"] != 1 {
		t.Errorf("<lock, unlock> seq support = %d want 1", got["<lock, unlock>"])
	}
	if got["<lock, unlock, lock, unlock, lock, unlock>"] != 1 {
		t.Errorf("long repetition should still be found with support 1: %v", got)
	}
}

func TestMaxPatternLength(t *testing.T) {
	db := mkdb([]string{"a", "b", "c", "d"}, []string{"a", "b", "c", "d"})
	res, err := Mine(db, Options{MinSeqSupport: 2, MaxPatternLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if p.Pattern.Len() > 2 {
			t.Errorf("pattern %s exceeds length bound", p.Pattern.String(db.Dict))
		}
	}
}

func TestClosedOnly(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "c"},
		[]string{"a", "b", "c"},
		[]string{"a", "b"},
	)
	res, err := Mine(db, Options{MinSeqSupport: 2, ClosedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	got := supports(res, db.Dict)
	// <a,b> support 3 is closed; <a,b,c> support 2 is closed; <a> (3), <b>
	// (3) are absorbed by <a,b>; <c>, <a,c>, <b,c> (2) are absorbed by <a,b,c>.
	want := map[string]int{"<a, b>": 3, "<a, b, c>": 2}
	if len(got) != len(want) {
		t.Fatalf("closed set %v want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s support %d want %d", k, got[k], v)
		}
	}
}

// bruteMine enumerates frequent sequential patterns by recursive candidate
// generation with direct support counting.
func bruteMine(db *seqdb.Database, minSup, maxLen int) map[string]int {
	events := db.FlatIndex().FrequentEventsBySeqSupport(minSup)
	out := make(map[string]int)
	var grow func(p seqdb.Pattern)
	grow = func(p seqdb.Pattern) {
		sup := SeqSupport(db, p)
		if sup < minSup {
			return
		}
		out[p.Key()] = sup
		if maxLen > 0 && len(p) >= maxLen {
			return
		}
		for _, e := range events {
			grow(p.Append(e))
		}
	}
	for _, e := range events {
		grow(seqdb.Pattern{e})
	}
	return out
}

func TestMineAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 25; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 4; i++ {
			n := 1 + rng.Intn(7)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		minSup := 2
		// Unbounded, and every bound at which a different level of the
		// search is the leaf level emitted straight from counts.
		for _, maxLen := range []int{0, 1, 2, 3} {
			res, err := Mine(db, Options{MinSeqSupport: minSup, MaxPatternLength: maxLen})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMine(db, minSup, maxLen)
			if len(res.Patterns) != len(want) {
				t.Fatalf("iter %d max length %d: miner %d patterns, brute force %d", iter, maxLen, len(res.Patterns), len(want))
			}
			for _, p := range res.Patterns {
				if w, ok := want[p.Pattern.Key()]; !ok || w != p.SeqSupport {
					t.Fatalf("iter %d max length %d: support mismatch for %s: %d vs %d (brute force has it: %v)",
						iter, maxLen, p.Pattern.String(db.Dict), p.SeqSupport, w, ok)
				}
			}
		}
	}
}

func TestClosedOnlyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 15; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 5; i++ {
			n := 1 + rng.Intn(6)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		full, err := Mine(db, Options{MinSeqSupport: 2})
		if err != nil {
			t.Fatal(err)
		}
		closed, err := Mine(db, Options{MinSeqSupport: 2, ClosedOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(closed.Patterns) > len(full.Patterns) {
			t.Fatalf("closed larger than full")
		}
		// Every full pattern must have a closed super-pattern (or itself) with
		// the same support.
		for _, fp := range full.Patterns {
			found := false
			for _, cp := range closed.Patterns {
				if cp.SeqSupport == fp.SeqSupport && fp.Pattern.IsSubsequenceOf(cp.Pattern) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("iter %d: pattern %s (sup %d) not covered by closed set", iter, fp.Pattern.String(db.Dict), fp.SeqSupport)
			}
		}
	}
}

// TestWorkersByteIdentical asserts the parallel miner reproduces the
// sequential result exactly for any worker count.
func TestWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 10; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 6; i++ {
			n := 1 + rng.Intn(8)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(4)))
			}
			db.AppendNames(names...)
		}
		for _, closedOnly := range []bool{false, true} {
			opts := Options{MinSeqSupport: 2, ClosedOnly: closedOnly, Workers: 1}
			seq, err := Mine(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, -1} {
				opts.Workers = workers
				par, err := Mine(db, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(par.Patterns) != len(seq.Patterns) {
					t.Fatalf("iter %d closed=%v workers=%d: %d patterns want %d",
						iter, closedOnly, workers, len(par.Patterns), len(seq.Patterns))
				}
				for k := range seq.Patterns {
					if !par.Patterns[k].Pattern.Equal(seq.Patterns[k].Pattern) ||
						par.Patterns[k].SeqSupport != seq.Patterns[k].SeqSupport {
						t.Fatalf("iter %d closed=%v workers=%d: pattern %d differs", iter, closedOnly, workers, k)
					}
				}
			}
		}
	}
}

// quadraticClosedFilter is the seed's all-pairs closedness filter, kept here
// as the reference the bucketed filter is regression-tested against.
func quadraticClosedFilter(patterns []MinedPattern) []MinedPattern {
	bySupport := make(map[int][]MinedPattern)
	for _, p := range patterns {
		bySupport[p.SeqSupport] = append(bySupport[p.SeqSupport], p)
	}
	var keep []MinedPattern
	for _, p := range patterns {
		closed := true
		for _, q := range bySupport[p.SeqSupport] {
			if len(q.Pattern) > len(p.Pattern) && p.Pattern.IsSubsequenceOf(q.Pattern) {
				closed = false
				break
			}
		}
		if closed {
			keep = append(keep, p)
		}
	}
	return keep
}

// equalSupportWorkload builds the adversarial closedness workload: `groups`
// pairs of identical sequences over disjoint alphabets. Every subsequence of
// every group pattern is frequent with the same sequence support (2), so the
// seed's equal-support all-pairs pass degenerates to a single quadratic
// bucket of thousands of patterns, while the supporting-set buckets stay at
// group size.
func equalSupportWorkload(groups, patternLen int) *seqdb.Database {
	db := seqdb.NewDatabase()
	for g := 0; g < groups; g++ {
		names := make([]string, patternLen)
		for i := range names {
			names[i] = "g" + string(rune('0'+g/10)) + string(rune('0'+g%10)) + "e" + string(rune('a'+i))
		}
		db.AppendNames(names...)
		db.AppendNames(names...)
	}
	return db
}

// TestFilterClosedSupportBuckets is the regression test for the bucketed
// closedness filter on a workload where the seed's quadratic pass is
// measurable (~5k same-support patterns, tens of millions of pair tests):
// the bucketed result must match the all-pairs reference exactly.
func TestFilterClosedSupportBuckets(t *testing.T) {
	db := equalSupportWorkload(40, 7)
	full, err := Mine(db, Options{MinSeqSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Patterns) < 5000 {
		t.Fatalf("workload too small to stress the filter: %d patterns", len(full.Patterns))
	}
	closed, err := Mine(db, Options{MinSeqSupport: 2, ClosedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	want := quadraticClosedFilter(full.Patterns)
	res := Result{Patterns: want}
	res.Sort()
	if len(closed.Patterns) != len(want) {
		t.Fatalf("bucketed filter kept %d patterns, reference kept %d", len(closed.Patterns), len(want))
	}
	for i := range want {
		if !closed.Patterns[i].Pattern.Equal(want[i].Pattern) || closed.Patterns[i].SeqSupport != want[i].SeqSupport {
			t.Fatalf("pattern %d differs from reference: %v vs %v", i,
				closed.Patterns[i].Pattern.String(db.Dict), want[i].Pattern.String(db.Dict))
		}
	}
	// Each group's full-length pattern is the only closed one in its group.
	if len(closed.Patterns) != 40 {
		t.Errorf("closed set size %d, want one pattern per group (40)", len(closed.Patterns))
	}
}

// BenchmarkClosedMiningEqualSupport measures closed mining on the
// equal-support workload; the closedness filter dominates it, so this is the
// regression benchmark for the bucketed filter.
func BenchmarkClosedMiningEqualSupport(b *testing.B) {
	db := equalSupportWorkload(40, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, Options{MinSeqSupport: 2, ClosedOnly: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestResultSortDeterministic(t *testing.T) {
	db := mkdb([]string{"b", "a"}, []string{"a", "b"})
	res, err := Mine(db, Options{MinSeqSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.Patterns, func(i, j int) bool {
		a, b := res.Patterns[i], res.Patterns[j]
		if a.SeqSupport != b.SeqSupport {
			return a.SeqSupport > b.SeqSupport
		}
		return seqdb.ComparePatterns(a.Pattern, b.Pattern) < 0
	}) {
		t.Errorf("result not sorted")
	}
}
