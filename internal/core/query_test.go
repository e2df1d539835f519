package core

import (
	"fmt"
	"reflect"
	"testing"

	"specmine/internal/seqdb"
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

// TestCheckStoreVerifyMetrics: CheckStore populates the verifier work
// counters, and its trace accounting covers the whole store.
func TestCheckStoreVerifyMetrics(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)
	got, ooStats, err := CheckStore(ts, ruleSet, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := checkOracle(t, db, ruleSet, Where{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("CheckStore diverges from the oracle:\n%s\nwant\n%s", got.Render(db.Dict, 3), want.Render(db.Dict, 3))
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
// from the cache, so this pins that the two agree. Every check answers what
// the oracle does, and a predicate on one session's event prunes the other
// sessions' segments without opening them.
func TestExplainSkippedIsUnopened(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)
	// Cluster 0's own rule: every other session's segments lack its premise,
	// so a check answers them from statistics.
	selective := []Rule{EvaluateRule(db, ParsePattern(db.Dict, "c0_a"), ParsePattern(db.Dict, "c0_b"))}
	// check runs one check and compares it with the oracle.
	check := func(rs []Rule, where Where, oo OutOfCoreOptions) (*Explain, error) {
		got, ex, err := CheckStoreWhere(ts, rs, where, oo)
		if want := checkOracle(t, db, rs, where); err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("CheckStoreWhere(%+v) diverges from the oracle:\n%s\nwant\n%s", where, got.Render(db.Dict, 3), want.Render(db.Dict, 3))
		}
		return ex, err
	}
	partial := false
	for _, budget := range []int64{0, 1} {
		oo := OutOfCoreOptions{CacheBytes: budget}
		calls := map[string]func() (*Explain, error){
			"CheckStore": func() (*Explain, error) {
				_, ex, err := CheckStore(ts, ruleSet, oo)
				return ex, err
			},
			"CheckStore/selective": func() (*Explain, error) { return check(selective, Where{}, oo) },
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
			calls["CheckStoreWhere/"+name] = func() (*Explain, error) { return check(ruleSet, where, oo) }
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
			if name == "CheckStoreWhere/cluster0" && ex.SegmentsSkipped == 0 {
				t.Fatalf("%s: the session-local predicate pruned no segment", label)
			}
		}
	}
	if !partial {
		t.Fatal("no call both skipped and opened segments; the fixture is too uniform")
	}
}
