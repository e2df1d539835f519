package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"specmine/internal/seqdb"
	"specmine/internal/verify"
)

// queryRules mines a small rule set from the clustered store fixture's
// recovered database for the predicated-query tests.
func queryRules(t *testing.T, db *Database) []Rule {
	t.Helper()
	res, err := MineRules(db, RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
		MaxPremiseLength: 2, MaxConsequentLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("fixture mined no rules")
	}
	return res.Rules
}

// whereMatches is the per-trace oracle: every predicate of w checked
// directly against trace s of idx, whose ordinal is s.
func whereMatches(idx *seqdb.PositionIndex, w Where, s int) bool {
	if s < w.From || (w.To > 0 && s >= w.To) {
		return false
	}
	if len(w.IDs) > 0 && !slices.Contains(w.IDs, s) {
		return false
	}
	for _, e := range w.HasAll {
		if !idx.SeqContains(s, e) {
			return false
		}
	}
	if len(w.HasAny) == 0 {
		return true
	}
	for _, e := range w.HasAny {
		if idx.SeqContains(s, e) {
			return true
		}
	}
	return false
}

// checkWhereOracle runs the online automaton over exactly the selected
// traces, reporting global ordinals — the ground truth CheckWhere and
// CheckStoreWhere must match byte for byte.
func checkWhereOracle(t *testing.T, db *Database, ruleSet []Rule, where Where) verify.Summary {
	t.Helper()
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	idx := db.FlatIndex()
	reports := engine.NewReports()
	checker := engine.NewChecker()
	var log verify.ViolationLog
	for s := range db.Sequences {
		if !whereMatches(idx, where, s) {
			continue
		}
		for _, ev := range db.Sequences[s] {
			checker.Advance(ev)
		}
		checker.Close(s, reports, &log)
		log.AppendTo(reports)
	}
	return verify.NewSummary(reports)
}

func queryPredicates(db *Database) map[string]Where {
	open := db.Dict.Lookup("open")
	c0a := db.Dict.Lookup("c0_a")
	c2b := db.Dict.Lookup("c2_b")
	n := db.NumSequences()
	return map[string]Where{
		"all":      {},
		"window":   {From: n / 4, To: 3 * n / 4},
		"cluster0": {HasAll: []seqdb.EventID{c0a}},
		"c0-or-c2": {HasAny: []seqdb.EventID{c0a, c2b}},
		"open+c2b": {HasAll: []seqdb.EventID{open, c2b}, From: 5},
		"ids":      {IDs: []int{0, 1, n / 2, n - 1, n + 7}},
		"nothing":  {From: n, To: n},
		"no-event": {HasAll: []seqdb.EventID{seqdb.EventID(db.Dict.Size() + 3)}},
	}
}

func TestCheckWhereMatchesOracle(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)

	for name, w := range queryPredicates(db) {
		want := checkWhereOracle(t, db, ruleSet, w)
		got, ex, err := CheckWhere(db, ruleSet, w)
		if err != nil {
			t.Fatalf("%s: CheckWhere: %v", name, err)
		}
		if got.Render(db.Dict, 5) != want.Render(db.Dict, 5) {
			t.Fatalf("%s: CheckWhere diverges from oracle:\n%s\nvs\n%s",
				name, got.Render(db.Dict, 5), want.Render(db.Dict, 5))
		}
		if ex == nil || ex.Obs == nil {
			t.Fatalf("%s: missing explain or its registry", name)
		}
		checked, skipped := ex.Obs.Counter("verify.traces_checked").Value(), ex.Obs.Counter("verify.traces_skipped").Value()
		if int64(ex.Selected) != checked+skipped {
			t.Fatalf("%s: selected %d but checked %d + skipped %d", name, ex.Selected, checked, skipped)
		}
		if out := ex.Render(db.Dict); out == "" {
			t.Fatalf("%s: empty explain render", name)
		}
	}
}

// TestCheckWhereZeroEqualsCheckRules: with a zero Where the segment loop is
// byte-identical to the batched facade path over the whole database.
func TestCheckWhereZeroEqualsCheckRules(t *testing.T) {
	ts := buildSegmentedStore(t, 2, 3, 16)
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)
	want, err := CheckRules(db, ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := CheckWhere(db, ruleSet, Where{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Render(db.Dict, 10) != want.Render(db.Dict, 10) {
		t.Fatalf("zero-Where CheckWhere diverges from CheckRules:\n%s\nvs\n%s",
			got.Render(db.Dict, 10), want.Render(db.Dict, 10))
	}
	if ex.Selected != db.NumSequences() {
		t.Fatalf("zero Where selected %d of %d traces", ex.Selected, db.NumSequences())
	}
}

func TestCheckStoreWhereMatchesInMemory(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)

	for _, budget := range []int64{0, 2 << 10} {
		for name, w := range queryPredicates(db) {
			label := fmt.Sprintf("%s/budget=%d", name, budget)
			want := checkWhereOracle(t, db, ruleSet, w)
			got, ooStats, ex, err := CheckStoreWhere(ts, ruleSet, w, OutOfCoreOptions{CacheBytes: budget})
			if err != nil {
				t.Fatalf("%s: CheckStoreWhere: %v", label, err)
			}
			if got.Render(db.Dict, 5) != want.Render(db.Dict, 5) {
				t.Fatalf("%s: CheckStoreWhere diverges from in-memory oracle:\n%s\nvs\n%s",
					label, got.Render(db.Dict, 5), want.Render(db.Dict, 5))
			}
			if ex == nil || ex.SegmentsTotal != ooStats.SegmentsTotal {
				t.Fatalf("%s: explain/segment mismatch: %+v vs %+v", label, ex, ooStats)
			}
		}
	}

	// A cluster-local predicate must prune foreign segments at the catalog
	// level: session 0's events appear only in session 0's segments.
	w := Where{HasAll: []seqdb.EventID{db.Dict.Lookup("c0_a")}}
	_, _, ex, err := CheckStoreWhere(ts, ruleSet, w, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.SegmentsPruned == 0 {
		t.Fatalf("selective predicate pruned no segments: %+v", ex)
	}
}

// TestCheckStoreVerifyMetrics: CheckStore populates the verifier work
// counters, and its trace accounting covers the whole store.
func TestCheckStoreVerifyMetrics(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)
	_, ooStats, err := CheckStore(ts, ruleSet, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := func(name string) int64 { return ooStats.Obs.Counter(name).Value() }
	tracesChecked, tracesSkipped := c("verify.traces_checked"), c("verify.traces_skipped")
	segsChecked, segsSkipped := c("verify.segments_checked"), c("verify.segments_skipped")
	if tracesChecked+tracesSkipped != int64(db.NumSequences()) {
		t.Fatalf("trace accounting %d+%d != %d", tracesChecked, tracesSkipped, db.NumSequences())
	}
	if segsChecked+segsSkipped != int64(ooStats.SegmentsTotal) {
		t.Fatalf("segment accounting %d+%d != %d", segsChecked, segsSkipped, ooStats.SegmentsTotal)
	}
	if tracesChecked == 0 {
		t.Fatal("no trace of the clustered fixture went through the automaton")
	}
}

func TestMineWhereMatchesFilteredMine(t *testing.T) {
	ts := buildSegmentedStore(t, 2, 3, 16)
	db := ts.Recovered().Database(ts.Dict())
	idx := db.FlatIndex()

	predicates := queryPredicates(db)
	for name, w := range predicates {
		// Oracle: a database holding exactly the selected traces.
		sub := seqdb.NewDatabaseWithDict(db.Dict)
		for s := range db.Sequences {
			if whereMatches(idx, w, s) {
				sub.Append(db.Sequences[s])
			}
		}

		popts := PatternOptions{MinSupportRel: 0.4, MaxLength: 3}
		want, err := MinePatterns(sub, popts)
		if err != nil {
			t.Fatal(err)
		}
		got, ex, err := MineWhere(db, popts, w)
		if err != nil {
			t.Fatalf("%s: MineWhere: %v", name, err)
		}
		want.Stats.Duration, got.Stats.Duration = 0, 0
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: MineWhere diverges from mining the filtered database:\n got %+v\nwant %+v", name, got, want)
		}
		if ex.Selected != sub.NumSequences() {
			t.Fatalf("%s: selected %d want %d", name, ex.Selected, sub.NumSequences())
		}

		ropts := RuleOptions{MinSeqSupportRel: 0.5, MinConfidence: 0.7,
			MaxPremiseLength: 2, MaxConsequentLength: 2}
		wantR, err := MineRules(sub, ropts)
		if err != nil {
			t.Fatal(err)
		}
		gotR, _, err := MineRulesWhere(db, ropts, w)
		if err != nil {
			t.Fatalf("%s: MineRulesWhere: %v", name, err)
		}
		wantR.Stats.Duration, gotR.Stats.Duration = 0, 0
		if !reflect.DeepEqual(wantR, gotR) {
			t.Fatalf("%s: MineRulesWhere diverges:\n got %+v\nwant %+v", name, gotR, wantR)
		}
	}
}
