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
		log.Cut(len(reports), 0)
	}
	verify.AssembleViolations(reports, log.Parts(len(reports), 0))
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
			got, ex, err := CheckStoreWhere(ts, ruleSet, w, OutOfCoreOptions{CacheBytes: budget})
			if err != nil {
				t.Fatalf("%s: CheckStoreWhere: %v", label, err)
			}
			if got.Render(db.Dict, 5) != want.Render(db.Dict, 5) {
				t.Fatalf("%s: CheckStoreWhere diverges from in-memory oracle:\n%s\nvs\n%s",
					label, got.Render(db.Dict, 5), want.Render(db.Dict, 5))
			}
			if ex == nil || ex.SegmentsTotal != len(ts.Segments()) {
				t.Fatalf("%s: explain/segment mismatch: %+v vs %d catalog segments", label, ex, len(ts.Segments()))
			}
		}
	}

	// A cluster-local predicate must prune foreign segments at the catalog
	// level: session 0's events appear only in session 0's segments.
	w := Where{HasAll: []seqdb.EventID{db.Dict.Lookup("c0_a")}}
	_, ex, err := CheckStoreWhere(ts, ruleSet, w, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.SegmentsSkipped == 0 {
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

// TestExplainSkippedIsUnopened: every out-of-core call reports as skipped
// exactly the catalog segments whose bodies its cache never opened —
// SegmentsSkipped == SegmentsTotal − cache.segments_opened — for checks
// under every predicate and for both miners, at an unlimited and a one-byte
// cache budget. The check loop counts skips from its plan and the miners
// from the cache, so this pins that the two agree.
func TestExplainSkippedIsUnopened(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)
	// Cluster 0's own rule: every other session's segments lack its premise,
	// so a check answers them from statistics.
	selective := []Rule{EvaluateRule(db, ParsePattern(db.Dict, "c0_a"), ParsePattern(db.Dict, "c0_b"))}
	partial := false
	for _, budget := range []int64{0, 1} {
		oo := OutOfCoreOptions{CacheBytes: budget}
		calls := map[string]func() (*Explain, error){
			"CheckStore": func() (*Explain, error) {
				_, ex, err := CheckStore(ts, ruleSet, oo)
				return ex, err
			},
			"CheckStore/selective": func() (*Explain, error) {
				_, ex, err := CheckStore(ts, selective, oo)
				return ex, err
			},
			"MineStore": func() (*Explain, error) {
				_, ex, err := MineStore(ts, PatternOptions{MinSupportRel: 0.2, MaxPatternLength: 3}, oo)
				return ex, err
			},
			"MineStore/no-seed": func() (*Explain, error) {
				_, ex, err := MineStore(ts, PatternOptions{MinInstanceSupport: 1 << 20}, oo)
				return ex, err
			},
			"MineStoreRules": func() (*Explain, error) {
				_, ex, err := MineStoreRules(ts, RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
					MaxPremiseLength: 2, MaxConsequentLength: 2}, oo)
				return ex, err
			},
		}
		for name, where := range queryPredicates(db) {
			calls["CheckStoreWhere/"+name] = func() (*Explain, error) {
				_, ex, err := CheckStoreWhere(ts, ruleSet, where, oo)
				return ex, err
			}
		}
		for name, call := range calls {
			label := fmt.Sprintf("%s/budget=%d", name, budget)
			ex, err := call()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if ex.SegmentsTotal != len(ts.Segments()) {
				t.Fatalf("%s: SegmentsTotal %d, catalog %d", label, ex.SegmentsTotal, len(ts.Segments()))
			}
			opened := ex.Obs.Counter("cache.segments_opened").Value()
			if int64(ex.SegmentsSkipped) != int64(ex.SegmentsTotal)-opened {
				t.Fatalf("%s: skipped %d of %d segments, but the cache opened %d", label, ex.SegmentsSkipped, ex.SegmentsTotal, opened)
			}
			partial = partial || (ex.SegmentsSkipped > 0 && opened > 0)
		}
	}
	if !partial {
		t.Fatal("no call both skipped and opened segments; the fixture is too uniform")
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

		popts := PatternOptions{MinSupportRel: 0.4, MaxPatternLength: 3}
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
