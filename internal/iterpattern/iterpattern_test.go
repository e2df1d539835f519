package iterpattern

import (
	"math/rand"
	"testing"

	"specmine/internal/qre"
	"specmine/internal/seqdb"
)

func mkdb(traces ...[]string) *seqdb.Database {
	db := seqdb.NewDatabase()
	for _, t := range traces {
		db.AppendNames(t...)
	}
	return db
}

func patternSet(res *Result, dict *seqdb.Dictionary) map[string]int {
	out := make(map[string]int)
	for _, p := range res.Patterns {
		out[p.Pattern.String(dict)] = p.Support
	}
	return out
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Errorf("zero options must be invalid")
	}
	if err := (Options{MinInstanceSupport: 1}).Validate(); err != nil {
		t.Errorf("minimal valid options rejected: %v", err)
	}
	if err := (Options{MinInstanceSupport: 2, MaxPatternLength: -1}).Validate(); err == nil {
		t.Errorf("negative MaxPatternLength accepted")
	}
	if err := (Options{MinSupportRel: 1.5}).Validate(); err == nil {
		t.Errorf("MinSupportRel > 1 accepted")
	}
	// The applied threshold: a relative one overrides the absolute one.
	ten := seqdb.NewDatabase()
	for i := 0; i < 10; i++ {
		ten.AppendNames("a")
	}
	for _, c := range []struct {
		name string
		opts Options
		want int
	}{
		{"rel 0.5 of 10", Options{MinSupportRel: 0.5}, 5},
		{"abs 3", Options{MinInstanceSupport: 3}, 3},
		{"tiny rel", Options{MinSupportRel: 0.0001}, 1},
	} {
		res, err := Mine(ten, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.MinSupport != c.want {
			t.Errorf("MinSupport(%s)=%d want %d", c.name, res.MinSupport, c.want)
		}
	}
	if _, err := Mine(seqdb.NewDatabase(), Options{Full: true}); err == nil {
		t.Errorf("the full miner must reject invalid options")
	}
	if _, err := Mine(seqdb.NewDatabase(), Options{}); err == nil {
		t.Errorf("the closed miner must reject invalid options")
	}
}

func TestMineFullLockUnlock(t *testing.T) {
	// Resource-locking behaviour repeated within and across traces (the
	// paper's running example: "whenever a lock is acquired, eventually it is
	// released").
	db := mkdb(
		[]string{"lock", "use", "unlock", "lock", "use", "use", "unlock"},
		[]string{"lock", "read", "unlock"},
		[]string{"idle", "idle"},
	)
	res, err := Mine(db, Options{MinInstanceSupport: 3, IncludeInstances: true, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	got := patternSet(res, db.Dict)
	// lock (3), unlock (3), use (3), <lock,unlock> (3), <lock,use> ...
	if got["<lock>"] != 3 || got["<unlock>"] != 3 {
		t.Errorf("single event supports wrong: %v", got)
	}
	if got["<lock, unlock>"] != 3 {
		t.Errorf("<lock,unlock> support = %d want 3 (repetition within trace must count)", got["<lock, unlock>"])
	}
	if _, ok := got["<unlock, lock>"]; ok {
		// unlock followed by lock occurs only once (inside trace 1), below threshold.
		t.Errorf("<unlock, lock> should not be frequent at support 3")
	}
	// Every reported support must agree with direct QRE instance counting.
	for _, p := range res.Patterns {
		if want := qre.CountInstances(db, p.Pattern); want != p.Support {
			t.Errorf("support mismatch for %s: reported %d, recount %d", p.Pattern.String(db.Dict), p.Support, want)
		}
		if len(p.Instances) != p.Support {
			t.Errorf("instances not included for %s", p.Pattern.String(db.Dict))
		}
	}
}

func TestMineClosedSuppressesAbsorbedSubpatterns(t *testing.T) {
	// A fixed three-event protocol: every sub-pattern that always occurs
	// inside <init, use, close> with the same instances must be suppressed.
	db := mkdb(
		[]string{"init", "use", "close"},
		[]string{"init", "use", "close", "noise"},
		[]string{"noise", "init", "use", "close"},
		[]string{"init", "use", "close"},
	)
	closed, err := Mine(db, Options{MinInstanceSupport: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Mine(db, Options{MinInstanceSupport: 4, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Patterns) <= len(closed.Patterns) {
		t.Errorf("full (%d) should exceed closed (%d)", len(full.Patterns), len(closed.Patterns))
	}
	gotClosed := patternSet(closed, db.Dict)
	if len(gotClosed) != 1 {
		t.Errorf("expected exactly the maximal pattern, got %v", gotClosed)
	}
	if gotClosed["<init, use, close>"] != 4 {
		t.Errorf("closed set should contain <init, use, close> with support 4: %v", gotClosed)
	}
}

func TestMineClosedKeepsDistinctSupports(t *testing.T) {
	// <a,b> occurs more often than <a,b,c>; both are closed.
	db := mkdb(
		[]string{"a", "b", "c"},
		[]string{"a", "b", "c"},
		[]string{"a", "b"},
		[]string{"a", "b"},
	)
	closed, err := Mine(db, Options{MinInstanceSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := patternSet(closed, db.Dict)
	if got["<a, b>"] != 4 {
		t.Errorf("<a, b> must be closed with support 4: %v", got)
	}
	if got["<a, b, c>"] != 2 {
		t.Errorf("<a, b, c> must be closed with support 2: %v", got)
	}
	if _, ok := got["<a>"]; ok {
		t.Errorf("<a> is absorbed by <a, b> and must not be closed: %v", got)
	}
}

func TestMaxPatternLength(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "c", "d"},
		[]string{"a", "b", "c", "d"},
	)
	res, err := Mine(db, Options{MinInstanceSupport: 2, MaxPatternLength: 2, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if p.Pattern.Len() > 2 {
			t.Errorf("pattern %s exceeds MaxPatternLength", p.Pattern.String(db.Dict))
		}
	}
}

func TestResultHelpers(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "c"},
		[]string{"a", "b", "c"},
	)
	res, err := Mine(db, Options{MinInstanceSupport: 2, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	longest, ok := res.Longest()
	if !ok || longest.Pattern.Len() != 3 {
		t.Errorf("Longest=%v ok=%v", longest, ok)
	}
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "a b")); !ok {
		t.Errorf("Find failed for <a, b>")
	}
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "b a")); ok {
		t.Errorf("Find succeeded for absent pattern")
	}
	if s := res.Render(db.Dict, 2); s == "" {
		t.Errorf("Render returned empty string")
	}
	empty := &Result{}
	if _, ok := empty.Longest(); ok {
		t.Errorf("Longest on empty result should report false")
	}
	if s := (MinedPattern{Pattern: seqdb.ParsePattern(db.Dict, "a"), Support: 1, SeqSupport: 1}).String(db.Dict); s == "" {
		t.Errorf("MinedPattern.String empty")
	}
}

// --- brute-force reference implementations -------------------------------

// bruteFrequent enumerates every frequent pattern by growing candidates with
// every frequent event and recounting support via the independent qre
// matcher. It is exponential and only suitable for tiny databases.
func bruteFrequent(db *seqdb.Database, minSup int) map[string]seqdb.Pattern {
	alphabet := db.FlatIndex().FrequentEventsByInstanceCount(minSup)
	out := make(map[string]seqdb.Pattern)
	var grow func(p seqdb.Pattern)
	grow = func(p seqdb.Pattern) {
		if qre.CountInstances(db, p) < minSup {
			return
		}
		out[p.Key()] = p.Clone()
		for _, e := range alphabet {
			grow(p.Append(e))
		}
	}
	for _, e := range alphabet {
		grow(seqdb.Pattern{e})
	}
	return out
}

// bruteClosed filters the brute-force frequent set down to closed patterns by
// checking Definition 4.2 against every frequent super-sequence.
func bruteClosed(db *seqdb.Database, minSup int) map[string]seqdb.Pattern {
	freq := bruteFrequent(db, minSup)
	out := make(map[string]seqdb.Pattern)
	for key, p := range freq {
		pInsts := qre.FindAllInstances(db, p)
		closed := true
		for _, q := range freq {
			if len(q) <= len(p) || !p.IsSubsequenceOf(q) {
				continue
			}
			qInsts := qre.FindAllInstances(db, q)
			if len(qInsts) == len(pInsts) && qre.CorrespondsTo(pInsts, qInsts) {
				closed = false
				break
			}
		}
		if closed {
			out[key] = p
		}
	}
	return out
}

func randomDB(rng *rand.Rand, numSeqs, maxLen, alphabet int) *seqdb.Database {
	db := seqdb.NewDatabase()
	for i := 0; i < alphabet; i++ {
		db.Dict.Intern(string(rune('a' + i)))
	}
	for i := 0; i < numSeqs; i++ {
		n := 1 + rng.Intn(maxLen)
		s := make(seqdb.Sequence, n)
		for j := range s {
			s[j] = seqdb.EventID(rng.Intn(alphabet))
		}
		db.Append(s)
	}
	return db
}

func TestMineFullAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 30; iter++ {
		db := randomDB(rng, 3, 8, 3)
		minSup := 2 + rng.Intn(2)
		res, err := Mine(db, Options{MinInstanceSupport: minSup, Full: true})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteFrequent(db, minSup)
		if len(res.Patterns) != len(want) {
			t.Fatalf("iter %d: full miner found %d patterns, brute force %d (db=%v)", iter, len(res.Patterns), len(want), db.Sequences)
		}
		for _, p := range res.Patterns {
			if _, ok := want[p.Pattern.Key()]; !ok {
				t.Fatalf("iter %d: miner reported %s not in brute-force set", iter, p.Pattern.String(db.Dict))
			}
			if recount := qre.CountInstances(db, p.Pattern); recount != p.Support {
				t.Fatalf("iter %d: support mismatch for %s: %d vs %d", iter, p.Pattern.String(db.Dict), p.Support, recount)
			}
		}
	}
}

func TestMineClosedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 30; iter++ {
		db := randomDB(rng, 3, 8, 3)
		minSup := 2 + rng.Intn(2)
		res, err := Mine(db, Options{MinInstanceSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteClosed(db, minSup)
		got := make(map[string]bool)
		for _, p := range res.Patterns {
			got[p.Pattern.Key()] = true
		}
		for key, p := range want {
			if !got[key] {
				t.Fatalf("iter %d: closed miner missed %s (db=%v minSup=%d)", iter, p.String(db.Dict), db.Sequences, minSup)
			}
		}
		for _, p := range res.Patterns {
			if _, ok := want[p.Pattern.Key()]; !ok {
				t.Fatalf("iter %d: closed miner reported non-closed %s (db=%v minSup=%d)", iter, p.Pattern.String(db.Dict), db.Sequences, minSup)
			}
		}
	}
}

func TestClosedIsSubsetOfFullWithEqualSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 20; iter++ {
		db := randomDB(rng, 4, 10, 4)
		minSup := 3
		full, err := Mine(db, Options{MinInstanceSupport: minSup, Full: true})
		if err != nil {
			t.Fatal(err)
		}
		closed, err := Mine(db, Options{MinInstanceSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		if len(closed.Patterns) > len(full.Patterns) {
			t.Fatalf("closed set larger than full set")
		}
		fullSet := patternSet(full, db.Dict)
		for _, p := range closed.Patterns {
			sup, ok := fullSet[p.Pattern.String(db.Dict)]
			if !ok {
				t.Fatalf("closed pattern %s missing from full set", p.Pattern.String(db.Dict))
			}
			if sup != p.Support {
				t.Fatalf("support mismatch for %s: closed %d full %d", p.Pattern.String(db.Dict), p.Support, sup)
			}
		}
	}
}

func TestMinerStatsArePopulated(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "c", "a", "b", "c"},
		[]string{"a", "b", "c"},
	)
	res, err := Mine(db, Options{MinInstanceSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesExplored == 0 {
		t.Errorf("NodesExplored not recorded")
	}
	if res.Stats.PatternsEmitted != len(res.Patterns) {
		t.Errorf("PatternsEmitted=%d len=%d", res.Stats.PatternsEmitted, len(res.Patterns))
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("Duration not recorded")
	}
	if res.MinSupport != 2 {
		t.Errorf("MinSupport=%d", res.MinSupport)
	}
}

func TestMineDispatch(t *testing.T) {
	db := mkdb([]string{"a", "b"}, []string{"a", "b"})
	full, err := Mine(db, Options{MinInstanceSupport: 2, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := Mine(db, Options{MinInstanceSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Patterns) < len(closed.Patterns) {
		t.Errorf("dispatch wrong: full %d closed %d", len(full.Patterns), len(closed.Patterns))
	}
}

func TestClosedMinerInstancesOnRequest(t *testing.T) {
	db := mkdb([]string{"a", "b"}, []string{"a", "b"})
	noInst, err := Mine(db, Options{MinInstanceSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range noInst.Patterns {
		if p.Instances != nil {
			t.Errorf("instances retained without IncludeInstances")
		}
	}
	withInst, err := Mine(db, Options{MinInstanceSupport: 2, IncludeInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range withInst.Patterns {
		if len(p.Instances) != p.Support {
			t.Errorf("instances missing for %s", p.Pattern.String(db.Dict))
		}
	}
}
