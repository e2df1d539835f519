package verify_test

import (
	"math/rand"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/synth"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// checkOnlineMatchesBatch feeds every trace through a single reused Checker,
// event by event, into one Tally, and asserts the reports built from it and
// their summary are identical to the batch Engine.Check result.
func checkOnlineMatchesBatch(t *testing.T, label string, db *seqdb.Database, ruleSet []rules.Rule) {
	t.Helper()
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	tally := engine.NewTally()
	c := engine.NewChecker()
	for si, s := range db.Sequences {
		for _, ev := range s {
			c.Advance(ev)
		}
		c.Close(si, tally)
	}
	online := engine.Reports([]*verify.Tally{tally}, tally.Parts())

	batch := engine.Check(db)
	if len(online) != len(batch) {
		t.Fatalf("%s: %d online reports want %d", label, len(online), len(batch))
	}
	for i := range batch {
		g, w := online[i], batch[i]
		if g.TotalTemporalPoints != w.TotalTemporalPoints ||
			g.SatisfiedTemporalPoints != w.SatisfiedTemporalPoints ||
			g.SatisfiedTraces != w.SatisfiedTraces ||
			g.ViolatedTraces != w.ViolatedTraces {
			t.Fatalf("%s: rule %d counters differ:\n got %+v\nwant %+v", label, i, g, w)
		}
		if len(g.Violations) != len(w.Violations) {
			t.Fatalf("%s: rule %d violations %d want %d", label, i, len(g.Violations), len(w.Violations))
		}
		for k := range w.Violations {
			if g.Violations[k].Seq != w.Violations[k].Seq ||
				g.Violations[k].TemporalPoint != w.Violations[k].TemporalPoint {
				t.Fatalf("%s: rule %d violation %d: got %+v want %+v", label, i, k, g.Violations[k], w.Violations[k])
			}
		}
	}
	gs, ws := verify.NewSummary(online), verify.NewSummary(batch)
	if gs.TotalViolations() != ws.TotalViolations() {
		t.Fatalf("%s: summary violations %d want %d", label, gs.TotalViolations(), ws.TotalViolations())
	}
	if gs.Render(db.Dict, 3) != ws.Render(db.Dict, 3) {
		t.Fatalf("%s: rendered summaries differ", label)
	}
}

func TestOnlineMatchesBatchOnWorkloads(t *testing.T) {
	for name, w := range tracesim.Workloads() {
		train := w.MustGenerate(30, 7)
		ruleSet := minedRules(t, train)
		if len(ruleSet) == 0 {
			t.Fatalf("%s: no rules mined", name)
		}
		checkOnlineMatchesBatch(t, name+"/train", train, ruleSet)

		fresh := w
		fresh.ViolationRate = 0.3
		db2 := fresh.MustGenerate(40, 99)
		merged := seqdb.NewDatabaseWithDict(train.Dict)
		for _, s := range db2.Sequences {
			names := make([]string, len(s))
			for i, ev := range s {
				names[i] = db2.Dict.Name(ev)
			}
			merged.AppendNames(names...)
		}
		checkOnlineMatchesBatch(t, name+"/fresh", merged, ruleSet)
	}
}

func TestOnlineMatchesBatchOnQuest(t *testing.T) {
	db := synth.MustGenerate(synth.Config{
		NumSequences: 40, AvgSequenceLength: 25, NumEvents: 40, AvgPatternLength: 5, Seed: 13,
	})
	ruleSet := minedRules(t, db)
	if len(ruleSet) == 0 {
		t.Skip("no rules mined from this configuration")
	}
	checkOnlineMatchesBatch(t, "quest", db, ruleSet)
}

func TestOnlineMatchesBatchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 60; iter++ {
		db := seqdb.NewDatabase()
		alphabet := 2 + rng.Intn(5)
		for i := 0; i < alphabet; i++ {
			db.Dict.Intern(string(rune('a' + i)))
		}
		for i := 0; i < 2+rng.Intn(5); i++ {
			s := make(seqdb.Sequence, 1+rng.Intn(16))
			for j := range s {
				s[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			db.Append(s)
		}
		var ruleSet []rules.Rule
		for r := 0; r < 1+rng.Intn(6); r++ {
			pre := make(seqdb.Pattern, 1+rng.Intn(3))
			for j := range pre {
				pre[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			post := make(seqdb.Pattern, 1+rng.Intn(3))
			for j := range post {
				post[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			ruleSet = append(ruleSet, rules.Rule{Pre: pre, Post: post})
		}
		checkOnlineMatchesBatch(t, "random", db, ruleSet)
	}
}

// unresolved returns the number of (rule, temporal point) pairs whose
// outcome is still open after a checker consumed prefix: each will either
// turn satisfied when its rule's consequent completes once more, or surface
// as a violation at Close. It replays prefix on a fresh checker and counts
// the temporal points that closing there leaves unsatisfied.
func unresolved(engine *verify.Engine, prefix []seqdb.EventID) int {
	c, tally := engine.NewChecker(), engine.NewTally()
	for _, ev := range prefix {
		c.Advance(ev)
	}
	c.Close(0, tally)
	n := 0
	for _, rep := range engine.Reports([]*verify.Tally{tally}, tally.Parts()) {
		n += rep.TotalTemporalPoints - rep.SatisfiedTemporalPoints
	}
	return n
}

// TestCheckerRetiresSatisfiedPoints pins the online-specific behaviour: a
// pending temporal point retires as soon as the consequent completes, and
// points still pending at Close become violations.
func TestCheckerRetiresSatisfiedPoints(t *testing.T) {
	d := seqdb.NewDictionary()
	a, b, x := d.Intern("a"), d.Intern("b"), d.Intern("x")
	engine, err := verify.NewEngine([]rules.Rule{{
		Pre:  seqdb.Pattern{a, b},
		Post: seqdb.Pattern{x},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := engine.NewChecker()
	tally := engine.NewTally()

	// Trace <a b x b>: tp at 1 retires when x arrives at 2; tp at 3 stays
	// open through Close and becomes the sole violation.
	trace := []seqdb.EventID{a, b, x, b}
	for _, ev := range trace {
		c.Advance(ev)
	}
	for _, tc := range []struct {
		prefix int
		want   int
		what   string
	}{
		{2, 1, "after premise"},
		{3, 0, "after consequent (first should have retired)"},
		{4, 1, "after second premise"},
	} {
		if got := unresolved(engine, trace[:tc.prefix]); got != tc.want {
			t.Fatalf("%s: %d unresolved want %d", tc.what, got, tc.want)
		}
	}
	c.Close(0, tally)
	rep := engine.Reports([]*verify.Tally{tally}, tally.Parts())[0]
	if rep.TotalTemporalPoints != 2 || rep.SatisfiedTemporalPoints != 1 ||
		rep.ViolatedTraces != 1 || len(rep.Violations) != 1 ||
		rep.Violations[0].TemporalPoint != 3 {
		t.Fatalf("unexpected report: %+v", rep)
	}

	// The checker reset on Close: a clean satisfied trace follows.
	c.Advance(a)
	c.Advance(b)
	c.Advance(x)
	c.Close(1, tally)
	if parts := tally.Parts(); len(parts) != 0 {
		t.Fatalf("satisfied trace logged violations: %d parts", len(parts))
	}
	if rep := engine.Reports([]*verify.Tally{tally}, nil)[0]; rep.SatisfiedTraces != 1 || rep.ViolatedTraces != 1 {
		t.Fatalf("after reuse: %+v", rep)
	}
}

// TestCheckerIgnoresForeignEvents feeds event ids outside the compiled
// alphabet; they must advance the position counter without disturbing state.
func TestCheckerIgnoresForeignEvents(t *testing.T) {
	d := seqdb.NewDictionary()
	a, x := d.Intern("a"), d.Intern("x")
	noise := seqdb.EventID(1000)
	engine, err := verify.NewEngine([]rules.Rule{{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{x}}})
	if err != nil {
		t.Fatal(err)
	}
	c := engine.NewChecker()
	tally := engine.NewTally()
	for _, ev := range []seqdb.EventID{noise, a, noise, noise, x} {
		c.Advance(ev)
	}
	c.Close(0, tally)
	rep := engine.Reports([]*verify.Tally{tally}, tally.Parts())[0]
	if rep.SatisfiedTraces != 1 || rep.TotalTemporalPoints != 1 ||
		rep.SatisfiedTemporalPoints != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	// The violation position reflects the absolute trace position, noise
	// included: premise at 1, consequent at 4.
	c2 := engine.NewChecker()
	tally2 := engine.NewTally()
	for _, ev := range []seqdb.EventID{noise, a, noise} {
		c2.Advance(ev)
	}
	c2.Close(0, tally2)
	rep2 := engine.Reports([]*verify.Tally{tally2}, tally2.Parts())[0]
	if len(rep2.Violations) != 1 || rep2.Violations[0].TemporalPoint != 1 {
		t.Fatalf("unexpected violations: %+v", rep2.Violations)
	}
}
