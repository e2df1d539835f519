package verify_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/ltl"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/synth"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// checkEngineMatchesPerRule asserts that the batched engine produces reports
// byte-identical to the per-rule baseline.CheckRule oracle on the given database.
func checkEngineMatchesPerRule(t *testing.T, label string, db *seqdb.Database, ruleSet []rules.Rule) {
	t.Helper()
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	matchesPerRule(t, label, db, ruleSet, engine.Check(db))
}

// matchesPerRule asserts that got, one report per rule of ruleSet, is
// byte-identical to the per-rule baseline.CheckRule oracle on db.
func matchesPerRule(t *testing.T, label string, db *seqdb.Database, ruleSet []rules.Rule, got []verify.RuleReport) {
	t.Helper()
	if len(got) != len(ruleSet) {
		t.Fatalf("%s: %d reports for %d rules", label, len(got), len(ruleSet))
	}
	for i, r := range ruleSet {
		want, err := baseline.CheckRule(db, r)
		if err != nil {
			t.Fatalf("%s: baseline.CheckRule: %v", label, err)
		}
		g := got[i]
		// The report is the only place a violation's rule lives.
		if !g.Rule.Pre.Equal(want.Rule.Pre) || !g.Rule.Post.Equal(want.Rule.Post) ||
			g.Rule.SeqSupport != want.Rule.SeqSupport ||
			g.Rule.InstanceSupport != want.Rule.InstanceSupport ||
			math.Float64bits(g.Rule.Confidence) != math.Float64bits(want.Rule.Confidence) {
			t.Fatalf("%s: rule %d differs:\n got %+v\nwant %+v", label, i, g.Rule, want.Rule)
		}
		if g.TotalTemporalPoints != want.TotalTemporalPoints ||
			g.SatisfiedTemporalPoints != want.SatisfiedTemporalPoints ||
			g.SatisfiedTraces != want.SatisfiedTraces ||
			g.ViolatedTraces != want.ViolatedTraces {
			t.Fatalf("%s: rule %d counters differ:\n got %+v\nwant %+v", label, i, g, want)
		}
		if len(g.Violations) != len(want.Violations) {
			t.Fatalf("%s: rule %d violations %d want %d", label, i, len(g.Violations), len(want.Violations))
		}
		for k := range want.Violations {
			if g.Violations[k].Seq != want.Violations[k].Seq ||
				g.Violations[k].TemporalPoint != want.Violations[k].TemporalPoint {
				t.Fatalf("%s: rule %d violation %d: got %+v want %+v",
					label, i, k, g.Violations[k], want.Violations[k])
			}
		}
		if g.HoldRate() != want.HoldRate() {
			t.Fatalf("%s: rule %d hold rate %v want %v", label, i, g.HoldRate(), want.HoldRate())
		}
	}
}

// minedRules mines a non-redundant rule set from the workload so the engine
// is exercised with realistic premises and consequents, including shared
// premise prefixes and duplicated consequents.
func minedRules(t *testing.T, db *seqdb.Database) []rules.Rule {
	t.Helper()
	for _, opts := range []rules.Options{
		{MinSeqSupportRel: 0.9, MinInstanceSupport: 1, MinConfidence: 0.9,
			MaxPremiseLength: 2, MaxConsequentLength: 2},
		{MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 0.8,
			MaxPremiseLength: 2, MaxConsequentLength: 2},
	} {
		res, err := rules.Mine(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rules) > 0 {
			return res.Rules
		}
	}
	return nil
}

func TestEngineMatchesPerRuleOnWorkloads(t *testing.T) {
	for name, w := range tracesim.Workloads() {
		train := w.MustGenerate(30, 7)
		ruleSet := minedRules(t, train)
		if len(ruleSet) == 0 {
			t.Fatalf("%s: no rules mined", name)
		}
		// Check against the training traces and against fresh traffic with a
		// raised violation rate, sharing the training dictionary.
		checkEngineMatchesPerRule(t, name+"/train", train, ruleSet)
		fresh := w
		fresh.ViolationRate = 0.3
		db2, err := fresh.Generate(40, 99)
		if err != nil {
			t.Fatal(err)
		}
		merged := seqdb.NewDatabaseWithDict(train.Dict)
		for _, s := range db2.Sequences {
			names := make([]string, len(s))
			for i, ev := range s {
				names[i] = db2.Dict.Name(ev)
			}
			merged.AppendNames(names...)
		}
		checkEngineMatchesPerRule(t, name+"/fresh", merged, ruleSet)
	}
}

func TestEngineMatchesPerRuleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		db := seqdb.NewDatabase()
		alphabet := 3 + rng.Intn(4)
		for i := 0; i < alphabet; i++ {
			db.Dict.Intern(string(rune('a' + i)))
		}
		for i := 0; i < 2+rng.Intn(5); i++ {
			n := 1 + rng.Intn(14)
			s := make(seqdb.Sequence, n)
			for j := range s {
				s[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			db.Append(s)
		}
		var ruleSet []rules.Rule
		for r := 0; r < 1+rng.Intn(8); r++ {
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
		checkEngineMatchesPerRule(t, "random", db, ruleSet)
	}
}

func TestEngineOnSynthQuest(t *testing.T) {
	db := synth.MustGenerate(synth.Config{
		NumSequences: 40, AvgSequenceLength: 25, NumEvents: 40, AvgPatternLength: 5, Seed: 13,
	})
	ruleSet := minedRules(t, db)
	if len(ruleSet) == 0 {
		t.Skip("no rules mined from this configuration")
	}
	checkEngineMatchesPerRule(t, "quest", db, ruleSet)
}

// TestEngineSharesTrieAndPosts: rules sharing premise prefixes (three share
// "a b") and a consequent ("x", deduplicated) are answered like the per-rule
// oracle, rule by rule.
func TestEngineSharesTrieAndPosts(t *testing.T) {
	db := seqdb.NewDatabase()
	d := db.Dict
	mk := func(pre, post string) rules.Rule {
		return rules.Rule{Pre: seqdb.ParsePattern(d, pre), Post: seqdb.ParsePattern(d, post)}
	}
	ruleSet := []rules.Rule{
		mk("a b c", "x"),
		mk("a b d", "x"),
		mk("a b", "y"),
		mk("q", "x"),
	}
	for _, trace := range []string{"a b c x", "a b d", "a b c d y x", "q a b", "x q", "b a"} {
		db.AppendNames(strings.Fields(trace)...)
	}
	checkEngineMatchesPerRule(t, "shared", db, ruleSet)
}

// TestEngineRejectsEmptySides: NewEngine rejects the first rule with an
// empty side with exactly the error its LTL translation gives.
func TestEngineRejectsEmptySides(t *testing.T) {
	if _, err := verify.NewEngine([]rules.Rule{{}}); err == nil {
		t.Errorf("engine accepted an empty rule")
	}
	ok := rules.Rule{Pre: seqdb.Pattern{0}, Post: seqdb.Pattern{1}}
	noPost := rules.Rule{Pre: seqdb.Pattern{0, 1}}
	noPre := rules.Rule{Post: seqdb.Pattern{2}}
	_, want := ltl.FromRule(noPost.Pre, noPost.Post)
	_, err := verify.NewEngine([]rules.Rule{ok, noPost, noPre})
	if want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("NewEngine error %v, want the translation's %v", err, want)
	}
}
