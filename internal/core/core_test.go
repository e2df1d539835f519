package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"specmine/internal/iterpattern"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
)

func TestLoadAndSaveTraces(t *testing.T) {
	db, err := LoadTraces(strings.NewReader("lock use unlock\nlock unlock\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 2 {
		t.Fatalf("NumSequences=%d", db.NumSequences())
	}
	dir := t.TempDir()
	path := dir + "/t.txt"
	if err := SaveTraceFile(path, db); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEvents() != db.NumEvents() {
		t.Errorf("round trip mismatch")
	}
}

func TestMinePatternsFacade(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("lock", "use", "unlock")
	db.AppendNames("lock", "read", "unlock")
	db.AppendNames("lock", "unlock")

	closed, err := MinePatterns(db, PatternOptions{MinInstanceSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The zero Full is the closed miner's output.
	closedRef, err := iterpattern.Mine(db, iterpattern.Options{MinInstanceSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	if closed.MinSupport != 3 || !reflect.DeepEqual(closed.Patterns, closedRef.Patterns) {
		t.Errorf("default result is not the closed miner's: %+v vs %+v", closed, closedRef)
	}
	foundLockUnlock := false
	for _, p := range closed.Patterns {
		if p.Pattern.String(db.Dict) == "<lock, unlock>" && p.Support == 3 {
			foundLockUnlock = true
		}
	}
	if !foundLockUnlock {
		t.Errorf("<lock, unlock> not mined by facade")
	}

	full, err := MinePatterns(db, PatternOptions{MinInstanceSupport: 3, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(full.Patterns, closed.Patterns) {
		t.Errorf("Full result equals the closed miner's: %+v", full)
	}
	if len(full.Patterns) < len(closed.Patterns) {
		t.Errorf("full smaller than closed")
	}
	if _, err := MinePatterns(db, PatternOptions{}); err == nil {
		t.Errorf("invalid options accepted")
	}
}

// TestRelativeSupportRange runs one set of threshold inputs through all three
// miners that take a relative support: a relative threshold outside [0, 1] is
// rejected whether or not an absolute one is set beside it.
func TestRelativeSupportRange(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("lock", "use", "unlock")
	db.AppendNames("lock", "unlock")
	for _, c := range []struct {
		name string
		abs  int
		rel  float64
		ok   bool
	}{
		{"rel above 1", 0, 1.5, false},
		{"negative rel", 0, -0.1, false},
		{"negative rel beside abs", 1, -0.1, false},
		{"NaN rel beside abs", 1, math.NaN(), false},
		{"rel 1", 0, 1.0, true},
		{"rel 0 beside abs", 1, 0, true},
	} {
		_, perr := MinePatterns(db, PatternOptions{MinInstanceSupport: c.abs, MinSupportRel: c.rel})
		_, rerr := MineRules(db, RuleOptions{MinSeqSupport: c.abs, MinSeqSupportRel: c.rel, MinInstanceSupport: 1, MinConfidence: 0.5})
		_, serr := MineSequential(db, SeqPatternOptions{MinSeqSupport: c.abs, MinSupportRel: c.rel})
		for miner, err := range map[string]error{"patterns": perr, "rules": rerr, "sequential": serr} {
			if (err == nil) != c.ok {
				t.Errorf("%s: %s miner: err = %v, want ok=%v", c.name, miner, err, c.ok)
			}
		}
	}
}

func TestMineRulesFacadeAndLTL(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("lock", "use", "unlock")
	db.AppendNames("lock", "write", "unlock")
	db.AppendNames("lock", "unlock")

	res, err := MineRules(db, RuleOptions{MinSeqSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The defaults are the non-redundant miner at i-support 1, confidence 0.9.
	nrRef, err := rules.Mine(db, rules.Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rules, nrRef.Rules) {
		t.Errorf("default rules are not the non-redundant miner's:\n%s\nvs\n%s", res.Render(db.Dict, 0), nrRef.Render(db.Dict, 0))
	}
	var lockRule *Rule
	for i, r := range res.Rules {
		if r.Pre.String(db.Dict) == "<lock>" && r.Post.String(db.Dict) == "<unlock>" {
			lockRule = &res.Rules[i]
		}
	}
	if lockRule == nil {
		t.Fatalf("lock -> unlock not mined; rules: %d", len(res.Rules))
	}
	formula, err := RuleToLTL(db.Dict, *lockRule)
	if err != nil {
		t.Fatal(err)
	}
	if formula != "G(lock -> XF(unlock))" {
		t.Errorf("LTL translation %q", formula)
	}
	desc, err := DescribeRule(db.Dict, *lockRule)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "whenever lock is called") {
		t.Errorf("description %q", desc)
	}
	if _, err := MineRules(db, RuleOptions{MinSeqSupport: -5}); err == nil {
		t.Errorf("invalid options accepted")
	}
	_, ltlErr := RuleToLTL(db.Dict, Rule{})
	if ltlErr == nil {
		t.Errorf("RuleToLTL accepted empty rule")
	}
	if _, err := DescribeRule(db.Dict, Rule{}); err == nil || ltlErr == nil || err.Error() != ltlErr.Error() {
		t.Errorf("DescribeRule on an empty rule: error %v, want RuleToLTL's %v", err, ltlErr)
	}
}

func TestCheckRulesFacade(t *testing.T) {
	training := NewDatabase()
	training.AppendNames("lock", "use", "unlock")
	training.AppendNames("lock", "unlock")
	res, err := MineRules(training, RuleOptions{MinSeqSupport: 2, MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	fresh := seqdb.NewDatabaseWithDict(training.Dict.Clone())
	fresh.AppendNames("lock", "use")
	fresh.AppendNames("lock", "unlock")
	summary, err := CheckRules(fresh, res.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if summary.TotalViolations() == 0 {
		t.Errorf("expected at least one violation in the fresh traces")
	}
	if out := summary.Render(fresh.Dict, 3); out == "" {
		t.Errorf("empty render")
	}
}

func TestRankingFacade(t *testing.T) {
	db := tracesim.LockingComponent().MustGenerate(30, 5)
	pats, err := MinePatterns(db, PatternOptions{MinInstanceSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	ranked := RankPatterns(db, pats.Patterns, 3)
	if len(ranked) == 0 || len(ranked) > 3 {
		t.Errorf("RankPatterns returned %d", len(ranked))
	}
	rulesRes, err := MineRules(db, RuleOptions{MinSeqSupport: 10, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rankedRules := RankRules(db, rulesRes.Rules, 5)
	if len(rankedRules) == 0 {
		t.Errorf("RankRules returned nothing")
	}
	for i := 1; i < len(rankedRules); i++ {
		if rankedRules[i-1].Score < rankedRules[i].Score {
			t.Errorf("rules not sorted by score")
		}
	}
}

func TestEvaluateRuleAndParsePattern(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b")
	db.AppendNames("a", "c")
	r := EvaluateRule(db, ParsePattern(db.Dict, "a"), ParsePattern(db.Dict, "b"))
	if r.SeqSupport != 2 || r.Confidence != 0.5 {
		t.Errorf("EvaluateRule wrong: %+v", r)
	}
}

func TestEndToEndJBossSecurityRule(t *testing.T) {
	// Integration: mine the Figure 5 rule from simulated security traces via
	// the facade, then confirm it verifies cleanly on a fresh batch.
	db := tracesim.SecurityComponent().MustGenerate(60, 21)
	res, err := MineRules(db, RuleOptions{MinSeqSupportRel: 0.3, MinConfidence: 0.9, MaxPremiseLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	pre := ParsePattern(db.Dict, strings.Join(tracesim.SecurityRulePremise(), " "))
	post := ParsePattern(db.Dict, strings.Join(tracesim.SecurityRuleConsequent(), " "))
	want := EvaluateRule(db, pre, post)
	covered := false
	for _, r := range res.Rules {
		if r.SeqSupport == want.SeqSupport && r.InstanceSupport == want.InstanceSupport &&
			pre.Concat(post).IsSubsequenceOf(r.Concat()) {
			covered = true
			break
		}
	}
	if !covered {
		t.Errorf("mined NR rule set does not cover the Figure 5 rule (%d rules)", len(res.Rules))
	}
}

func TestComparatorMinersFacade(t *testing.T) {
	db := tracesim.LockingComponent().MustGenerate(30, 5)

	seqRes, err := MineSequential(db, SeqPatternOptions{MinSupportRel: 0.8, MaxPatternLength: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes.Patterns) == 0 || seqRes.MinSupport != 24 {
		t.Fatalf("MineSequential: %d patterns, minsup %d", len(seqRes.Patterns), seqRes.MinSupport)
	}
	closedRes, err := MineSequential(db, SeqPatternOptions{MinSupportRel: 0.8, MaxPatternLength: 3, ClosedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(closedRes.Patterns) == 0 || len(closedRes.Patterns) > len(seqRes.Patterns) {
		t.Fatalf("closed set size %d vs full %d", len(closedRes.Patterns), len(seqRes.Patterns))
	}

	epiRes, err := MineEpisodes(db, EpisodeOptions{WindowWidth: 4, MinFrequency: 0.05, MaxEpisodeLength: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(epiRes.Episodes) == 0 || epiRes.TotalWindows == 0 {
		t.Fatalf("MineEpisodes: %d episodes, %d windows", len(epiRes.Episodes), epiRes.TotalWindows)
	}

	rankedSeq := RankSequential(db, seqRes.Patterns, 5)
	if len(rankedSeq) == 0 || len(rankedSeq) > 5 {
		t.Errorf("RankSequential returned %d", len(rankedSeq))
	}
	rankedEpi := RankEpisodes(db, epiRes.Episodes, 5)
	if len(rankedEpi) == 0 || len(rankedEpi) > 5 {
		t.Errorf("RankEpisodes returned %d", len(rankedEpi))
	}
	for i := 1; i < len(rankedEpi); i++ {
		if rankedEpi[i-1].Score < rankedEpi[i].Score {
			t.Errorf("episodes not sorted by score")
		}
	}
}
