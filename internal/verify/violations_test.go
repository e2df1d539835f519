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

	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	reports := engine.Check(db)
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

// TestAssembleRebasesPartsInOrder: the tallies of separately checked
// segments build, through one Engine.Reports, exactly what one Check over the
// concatenated segments returns, and what the per-rule oracle returns. It
// drives the tallies the two ways the checks do:
//
//   - as the store's segment fan-out does: two worker tallies take the
//     segments in turn, close every trace under its global ordinal and hand
//     over each segment's parts, while a third tally skips the segments on
//     which every rule is statically dead;
//   - as the stream's shards do: one tally per segment closes its traces
//     under segment-local numbers, skips when its segment is dead, and its
//     parts are rebased by the segment's first ordinal; the reports are
//     built from frozen clones of the tallies, which later counting leaves
//     alone.
//
// One segment's traces log exactly 65,536 violations, the bound at which
// Close cuts a part, before its last trace logs one more: its tally must
// hand over two parts.
func TestAssembleRebasesPartsInOrder(t *testing.T) {
	d := seqdb.NewDictionary()
	a, x, z := d.Intern("a"), d.Intern("x"), d.Intern("z")
	ruleSet := []rules.Rule{
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{x}, Post: seqdb.Pattern{a}},
		{Pre: seqdb.Pattern{a, a}, Post: seqdb.Pattern{x}},
	}
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	// A trace of k a's logs 2k-1 violations: k of rule 0, k-1 of rule 2. So
	// 128 traces of 256 a's and one each of 32 and 33 log 128*511 + 63 + 65
	// = 65,536, and a last trace of one a logs one more.
	run := func(k int) seqdb.Sequence { return slices.Repeat(seqdb.Sequence{a}, k) }
	var bound []seqdb.Sequence
	for range 128 {
		bound = append(bound, run(256))
	}
	bound = append(bound, run(32), run(33), run(1))
	segments := [][]seqdb.Sequence{
		{{a, x, a}, {x}, {a, a}},
		{},
		{{z}, {z, z}}, // no premise event: skipped
		{{x, a}, {a, x}},
		bound,
		{{z}},
		{{a}, {a, a, x, a}},
	}
	const atBound = 4

	all := seqdb.NewDatabaseWithDict(d)
	c := engine.NewChecker()
	closeAll := func(tally *verify.Tally, seg []seqdb.Sequence, base int) {
		for l, s := range seg {
			for _, ev := range s {
				c.Advance(ev)
			}
			c.Close(base+l, tally)
		}
	}
	workers := []*verify.Tally{engine.NewTally(), engine.NewTally()}
	skipped := engine.NewTally()
	var fanParts, shardParts []verify.ViolationPart
	var shards []*verify.Tally
	for i, seg := range segments {
		base := all.NumSequences()
		for _, s := range seg {
			all.Append(s)
		}
		dead := engine.SegmentSkippable(func(e seqdb.EventID) bool {
			return slices.ContainsFunc(seg, func(s seqdb.Sequence) bool { return slices.Contains(s, e) })
		})
		shard := engine.NewTally()
		shards = append(shards, shard)
		if dead {
			skipped.Skip(len(seg))
			shard.Skip(len(seg))
			continue
		}
		w := workers[i%len(workers)]
		closeAll(w, seg, base)
		parts := w.Parts()
		if i == atBound && len(parts) != 2 {
			t.Fatalf("segment %d: %d parts, want one cut at the bound and one for the rest", i, len(parts))
		}
		fanParts = append(fanParts, parts...)
		closeAll(shard, seg, 0)
		for _, p := range shard.Parts() {
			shardParts = append(shardParts, p.Rebase(base))
		}
	}
	frozen := make([]*verify.Tally, len(shards))
	for i, sh := range shards {
		frozen[i] = sh.Clone()
		sh.Skip(1)
	}

	want := engine.Check(all)
	matchesPerRule(t, "check", all, ruleSet, want)
	for _, tc := range []struct {
		name string
		got  []verify.RuleReport
	}{
		{"fan-out", engine.Reports(append(workers, skipped), fanParts)},
		{"shards", engine.Reports(frozen, shardParts)},
	} {
		for r := range want {
			if g, w := tc.got[r], want[r]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: rule %d differs from one Check: got %d violations over %d traces, want %d over %d",
					tc.name, r, len(g.Violations), g.ViolatedTraces, len(w.Violations), w.ViolatedTraces)
			}
		}
		matchesPerRule(t, tc.name, all, ruleSet, tc.got)
	}
}
