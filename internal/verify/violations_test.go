package verify_test

import (
	"reflect"
	"slices"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/verify"
)

// TestAssembledListsAreExactWindows: every list a batch check returns is an
// exact-size window of one backing array. Lists are nil for rules without
// violations and have cap == len otherwise, so appending to one rule's list
// never writes into the next rule's. The database holds enough violations
// for Check to cut its log into several parts, and the result still equals
// the per-rule oracle.
func TestAssembledListsAreExactWindows(t *testing.T) {
	d := seqdb.NewDictionary()
	a, b, x, never := d.Intern("a"), d.Intern("b"), d.Intern("x"), d.Intern("never")
	db := seqdb.NewDatabaseWithDict(d)
	for i := 0; i < 3000; i++ {
		s := make(seqdb.Sequence, 0, 81)
		for j := 0; j < 40; j++ {
			s = append(s, a, b)
		}
		if i%3 == 0 {
			s = append(s, x)
		}
		db.Append(s)
	}
	ruleSet := []rules.Rule{
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{b}},     // fires everywhere, never violated
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{x}},     // violated everywhere x is missing
		{Pre: seqdb.Pattern{never}, Post: seqdb.Pattern{x}}, // never fires
		{Pre: seqdb.Pattern{b}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{a, b}, Post: seqdb.Pattern{a}}, // satisfied at all but the last point
	}
	checkEngineMatchesPerRule(t, "many-parts", db, ruleSet)

	reports, err := verify.CheckRules(db, ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, rep := range reports {
		total += len(rep.Violations)
		if len(rep.Violations) == 0 && rep.Violations != nil {
			t.Fatalf("rule %d: empty list is not nil", i)
		}
		if cap(rep.Violations) != len(rep.Violations) {
			t.Fatalf("rule %d: cap %d != len %d", i, cap(rep.Violations), len(rep.Violations))
		}
	}
	if total < 1<<17 {
		t.Fatalf("only %d violations; the log must span several parts", total)
	}
	for i := 0; i+1 < len(reports); i++ {
		next := slices.Clone(reports[i+1].Violations)
		reports[i].Violations = append(reports[i].Violations, verify.RuleViolation{Seq: -1, TemporalPoint: -1})
		if !reflect.DeepEqual(reports[i+1].Violations, next) {
			t.Fatalf("appending to rule %d's list changed rule %d's", i, i+1)
		}
	}
}

// TestAssembleRebasesPartsInOrder: parts cut from separately checked
// segments, each with segment-local sequence numbers, assemble into exactly
// what one Check over the concatenated segments returns, whether each part
// is cut at its segment's base or cut at base 0 and then rebased by it, as a
// stream snapshot rebases its shards' parts.
func TestAssembleRebasesPartsInOrder(t *testing.T) {
	d := seqdb.NewDictionary()
	a, x := d.Intern("a"), d.Intern("x")
	ruleSet := []rules.Rule{
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{x}, Post: seqdb.Pattern{a}},
		{Pre: seqdb.Pattern{a, a}, Post: seqdb.Pattern{x}},
	}
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	segments := [][]seqdb.Sequence{
		{{a, x, a}, {x}, {a, a}},
		{},
		{{x, a}, {a, x}},
		{{a}, {a, a, x, a}},
	}
	all := seqdb.NewDatabaseWithDict(d)
	reports, rebased := engine.NewReports(), engine.NewReports()
	c := engine.NewChecker()
	var log, log0 verify.ViolationLog
	var parts, parts0 []verify.ViolationPart
	for _, seg := range segments {
		base := all.NumSequences()
		for l, s := range seg {
			all.Append(s)
			for _, ev := range s {
				c.Advance(ev)
			}
			c.Close(l, reports, &log)
			for _, ev := range s {
				c.Advance(ev)
			}
			c.Close(l, rebased, &log0)
		}
		parts = append(parts, log.Parts(engine.NumRules(), base)...)
		for _, p := range log0.Parts(engine.NumRules(), 0) {
			parts0 = append(parts0, p.Rebase(base))
		}
	}
	verify.AssembleViolations(reports, parts)
	verify.AssembleViolations(rebased, parts0)
	want := engine.Check(all)
	if !reflect.DeepEqual(reports, want) {
		t.Fatalf("assembled parts differ from one Check:\n got %+v\nwant %+v", reports, want)
	}
	if !reflect.DeepEqual(rebased, want) {
		t.Fatalf("rebased parts differ from one Check:\n got %+v\nwant %+v", rebased, want)
	}
}
