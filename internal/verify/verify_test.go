package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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

// referenceRanking is the ranking NewSummary must produce, as a
// reflection-based stable sort of whole reports: violation count
// descending, input order among equal counts.
func referenceRanking(reports []verify.RuleReport) []verify.RuleReport {
	sorted := slices.Clone(reports)
	sort.SliceStable(sorted, func(i, j int) bool {
		return len(sorted[i].Violations) > len(sorted[j].Violations)
	})
	return sorted
}

// TestNewSummaryRanksLikeStableSort compares NewSummary's ranking element by
// element with referenceRanking: every report must land where the stable
// sort puts it, with its nil or empty list kept as it was and the input
// left in its order. Report i carries i as its SatisfiedTraces, so a report
// moved past an equal-count neighbour shows.
func TestNewSummaryRanksLikeStableSort(t *testing.T) {
	report := func(i, violations int, empty bool) verify.RuleReport {
		rep := verify.RuleReport{
			Rule:            rules.Rule{Pre: seqdb.Pattern{seqdb.EventID(i)}, Post: seqdb.Pattern{0}},
			SatisfiedTraces: i,
		}
		if violations > 0 || empty {
			rep.Violations = make([]verify.RuleViolation, violations)
			for k := range rep.Violations {
				rep.Violations[k] = verify.RuleViolation{Seq: i, TemporalPoint: k}
			}
		}
		return rep
	}
	cases := map[string][]verify.RuleReport{
		"no reports":    nil,
		"empty":         {},
		"single":        {report(0, 2, false)},
		"single nil":    {report(0, 0, false)},
		"nil and empty": {report(0, 0, false), report(1, 0, true), report(2, 1, false), report(3, 0, true), report(4, 0, false)},
	}
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 200; iter++ {
		reports := make([]verify.RuleReport, rng.Intn(300))
		maxCount := 1 + rng.Intn(4) // few distinct counts: long runs of ties
		for i := range reports {
			reports[i] = report(i, rng.Intn(maxCount+1), rng.Intn(2) == 0)
		}
		cases[fmt.Sprintf("random/%d", iter)] = reports
	}
	for name, reports := range cases {
		before := slices.Clone(reports)
		got := verify.NewSummary(reports).Reports
		want := referenceRanking(reports)
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports ranked, want %d", name, len(got), len(want))
		}
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("%s: rank %d holds report %d (%d violations), want report %d (%d violations)",
					name, k, got[k].SatisfiedTraces, len(got[k].Violations), want[k].SatisfiedTraces, len(want[k].Violations))
			}
		}
		if !reflect.DeepEqual(reports, before) {
			t.Fatalf("%s: NewSummary reordered its input", name)
		}
	}
}
