package verify_test

import (
	"strings"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/verify"
)

func mkdb(traces ...[]string) *seqdb.Database {
	db := seqdb.NewDatabase()
	for _, t := range traces {
		db.AppendNames(t...)
	}
	return db
}

// check compiles ruleSet and checks db with it.
func check(t *testing.T, db *seqdb.Database, ruleSet []rules.Rule) []verify.RuleReport {
	t.Helper()
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Check(db)
}

func lockRule(db *seqdb.Database) rules.Rule {
	return rules.Rule{
		Pre:  seqdb.ParsePattern(db.Dict, "lock"),
		Post: seqdb.ParsePattern(db.Dict, "unlock"),
	}
}

func TestCheckRuleFindsViolations(t *testing.T) {
	db := mkdb(
		[]string{"lock", "use", "unlock"},
		[]string{"lock", "use"},            // violation at position 0
		[]string{"lock", "unlock", "lock"}, // violation at position 2
		[]string{"idle"},
	)
	rep, err := baseline.CheckRule(db, lockRule(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTemporalPoints != 4 {
		t.Errorf("TotalTemporalPoints=%d want 4", rep.TotalTemporalPoints)
	}
	if rep.SatisfiedTemporalPoints != 2 {
		t.Errorf("SatisfiedTemporalPoints=%d want 2", rep.SatisfiedTemporalPoints)
	}
	if len(rep.Violations) != 2 {
		t.Fatalf("violations=%d want 2", len(rep.Violations))
	}
	if rep.Violations[0].Seq != 1 || rep.Violations[0].TemporalPoint != 0 {
		t.Errorf("first violation wrong: %+v", rep.Violations[0])
	}
	if rep.Violations[1].Seq != 2 || rep.Violations[1].TemporalPoint != 2 {
		t.Errorf("second violation wrong: %+v", rep.Violations[1])
	}
	if rep.SatisfiedTraces != 2 || rep.ViolatedTraces != 2 {
		t.Errorf("trace counts wrong: sat=%d vio=%d", rep.SatisfiedTraces, rep.ViolatedTraces)
	}
	if rep.HoldRate() != 0.5 {
		t.Errorf("HoldRate=%v want 0.5", rep.HoldRate())
	}
	if rep.Formula == nil {
		t.Errorf("formula not attached")
	}
	if s := rep.Violations[0].String(rep.Rule, db.Dict); !strings.Contains(s, "trace 1") {
		t.Errorf("violation rendering wrong: %q", s)
	}
}

func TestCheckRuleVacuousHoldRate(t *testing.T) {
	db := mkdb([]string{"idle", "idle"})
	rep, err := baseline.CheckRule(db, lockRule(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HoldRate() != 1.0 {
		t.Errorf("vacuous hold rate should be 1.0, got %v", rep.HoldRate())
	}
	if rep.ViolatedTraces != 0 || rep.SatisfiedTraces != 1 {
		t.Errorf("trace counts wrong: %+v", rep)
	}
}

func TestCheckRuleRejectsEmptySides(t *testing.T) {
	db := mkdb([]string{"a"})
	if _, err := baseline.CheckRule(db, rules.Rule{}); err == nil {
		t.Errorf("empty rule accepted")
	}
}

func TestCheckRulesAndSummary(t *testing.T) {
	db := mkdb(
		[]string{"lock", "unlock", "open", "close"},
		[]string{"lock", "open"},
		[]string{"open", "close"},
	)
	ruleSet := []rules.Rule{
		lockRule(db),
		{Pre: seqdb.ParsePattern(db.Dict, "open"), Post: seqdb.ParsePattern(db.Dict, "close")},
	}
	reports := check(t, db, ruleSet)
	if len(reports) != 2 {
		t.Fatalf("reports=%d", len(reports))
	}
	sum := verify.NewSummary(reports)
	if sum.TotalViolations() != 2 {
		t.Errorf("TotalViolations=%d want 2", sum.TotalViolations())
	}
	// Most violated rule first: both have 1 violation, order stable.
	text := sum.Render(db.Dict, 1)
	if !strings.Contains(text, "conformance summary: 2 rules checked, 2 violations") {
		t.Errorf("summary header wrong:\n%s", text)
	}
	if !strings.Contains(text, "hold rate") {
		t.Errorf("summary missing hold rate:\n%s", text)
	}
}

func TestSummaryOrdering(t *testing.T) {
	db := mkdb(
		[]string{"a", "a", "a"},
		[]string{"b", "c"},
	)
	often := rules.Rule{Pre: seqdb.ParsePattern(db.Dict, "a"), Post: seqdb.ParsePattern(db.Dict, "z")}
	rarely := rules.Rule{Pre: seqdb.ParsePattern(db.Dict, "b"), Post: seqdb.ParsePattern(db.Dict, "z")}
	sum := verify.NewSummary(check(t, db, []rules.Rule{rarely, often}))
	if len(sum.Reports[0].Violations) < len(sum.Reports[1].Violations) {
		t.Errorf("summary not sorted by violations")
	}
}
