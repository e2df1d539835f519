package ltl

import (
	"math/rand"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
)

func dictWith(names ...string) *seqdb.Dictionary {
	d := seqdb.NewDictionary()
	for _, n := range names {
		d.Intern(n)
	}
	return d
}

// TestTable1 reproduces Table 1: the example formulas and their English
// meanings.
func TestTable1(t *testing.T) {
	d := dictWith("lock", "unlock", "main", "end")
	unlock := Atom{Event: d.Lookup("unlock")}

	// Rule rows are read from the rule itself (DescribeRule); pre is empty
	// for the plain formula rows.
	cases := []struct {
		pre, post   string
		formula     Formula
		wantString  string
		wantMeaning string
	}{
		{
			formula:     Finally{Body: unlock},
			wantString:  "F(unlock)",
			wantMeaning: "Eventually unlock is called",
		},
		{
			formula:     Next{Body: Finally{Body: unlock}},
			wantString:  "XF(unlock)",
			wantMeaning: "From the next event onwards, eventually unlock is called",
		},
		{
			pre: "lock", post: "unlock",
			wantString:  "G(lock -> XF(unlock))",
			wantMeaning: "Globally whenever lock is called, then from the next event onwards, eventually unlock is called",
		},
		{
			pre: "main lock", post: "unlock end",
			wantString:  "G(main -> XG(lock -> XF(unlock /\\ XF(end))))",
			wantMeaning: "Globally whenever main followed by lock are called, then from the next event onwards, eventually unlock followed by end are called",
		},
	}
	for i, c := range cases {
		f, meaning := c.formula, ""
		if c.pre != "" {
			f = mustRule(t, d, c.pre, c.post)
			meaning = DescribeRule(seqdb.ParsePattern(d, c.pre), seqdb.ParsePattern(d, c.post), d)
		} else {
			meaning = Describe(f, d)
		}
		if got := f.String(d); got != c.wantString {
			t.Errorf("case %d: String=%q want %q", i, got, c.wantString)
		}
		if meaning != c.wantMeaning {
			t.Errorf("case %d: meaning=%q want %q", i, meaning, c.wantMeaning)
		}
	}
}

// TestTable2 reproduces Table 2: rules and their LTL equivalences.
func TestTable2(t *testing.T) {
	d := dictWith("a", "b", "c", "d")
	cases := []struct {
		pre, post string
		want      string
	}{
		{"a", "b", "G(a -> XF(b))"},
		{"a b", "c", "G(a -> XG(b -> XF(c)))"},
		{"a", "b c", "G(a -> XF(b /\\ XF(c)))"},
		{"a b", "c d", "G(a -> XG(b -> XF(c /\\ XF(d))))"},
	}
	for _, c := range cases {
		f := mustRule(t, d, c.pre, c.post)
		if got := f.String(d); got != c.want {
			t.Errorf("%s -> %s: %q want %q", c.pre, c.post, got, c.want)
		}
	}
}

func mustRule(t *testing.T, d *seqdb.Dictionary, pre, post string) Formula {
	t.Helper()
	f, err := FromRule(seqdb.ParsePattern(d, pre), seqdb.ParsePattern(d, post))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFromRuleRejectsEmptySides(t *testing.T) {
	d := dictWith("a")
	if _, err := FromRule(nil, seqdb.ParsePattern(d, "a")); err == nil {
		t.Errorf("empty premise accepted")
	}
	if _, err := FromRule(seqdb.ParsePattern(d, "a"), nil); err == nil {
		t.Errorf("empty consequent accepted")
	}
}

func TestHoldsOperators(t *testing.T) {
	d := dictWith("a", "b", "c")
	a, b := Atom{Event: d.Lookup("a")}, Atom{Event: d.Lookup("b")}
	s := seqdb.Sequence{d.Lookup("a"), d.Lookup("c"), d.Lookup("b")}

	if !Holds(a, s) {
		t.Errorf("atom at position 0 should hold")
	}
	if Holds(b, s) {
		t.Errorf("atom b should not hold at position 0")
	}
	if !Holds(Finally{Body: b}, s) {
		t.Errorf("F(b) should hold")
	}
	if Holds(Globally{Body: a}, s) {
		t.Errorf("G(a) should not hold")
	}
	if !Holds(Globally{Body: Implies{Left: b, Right: Atom{Event: d.Lookup("b")}}}, s) {
		t.Errorf("G(b -> b) should hold vacuously/trivially")
	}
	if !Holds(Next{Body: Atom{Event: d.Lookup("c")}}, s) {
		t.Errorf("X(c) should hold")
	}
	if Holds(Next{Body: Next{Body: Next{Body: a}}}, s) {
		t.Errorf("XXX(a) runs off the trace and must not hold")
	}
	if !Holds(And{Left: a, Right: Finally{Body: b}}, s) {
		t.Errorf("a /\\ F(b) should hold")
	}
	if got := (And{Left: a, Right: b}).String(d); got != "a /\\ b" {
		t.Errorf("And.String=%q", got)
	}
	if got := (Implies{Left: a, Right: And{Left: a, Right: b}}).String(d); got != "a -> (a /\\ b)" {
		t.Errorf("Implies.String=%q", got)
	}
	if got := (Next{Body: a}).String(d); got != "X(a)" {
		t.Errorf("Next.String=%q", got)
	}
}

func TestRuleFormulaMatchesTemporalSemantics(t *testing.T) {
	// G(pre -> ... XF(post)) must hold on a trace exactly when every temporal
	// point of the premise is followed by the consequent — the semantics the
	// rule miner uses. Cross-validate on random traces.
	d := dictWith("a", "b", "c")
	rng := rand.New(rand.NewSource(97))
	prePatterns := []string{"a", "b", "a b", "b a"}
	postPatterns := []string{"c", "a", "b c", "c a"}
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(10)
		s := make(seqdb.Sequence, n)
		for i := range s {
			s[i] = seqdb.EventID(rng.Intn(3))
		}
		pre := seqdb.ParsePattern(d, prePatterns[rng.Intn(len(prePatterns))])
		post := seqdb.ParsePattern(d, postPatterns[rng.Intn(len(postPatterns))])
		f, err := FromRule(pre, post)
		if err != nil {
			t.Fatal(err)
		}
		want := true
		for _, tp := range rules.TemporalPoints(s, pre) {
			if !seqdb.Sequence(s[tp+1:]).ContainsSubsequence(post) {
				want = false
				break
			}
		}
		if got := Holds(f, s); got != want {
			t.Fatalf("iter %d: formula %s on %s: got %v want %v", iter, f.String(d), s.String(d), got, want)
		}
	}
}

func TestDescribeFallback(t *testing.T) {
	d := dictWith("a", "b")
	for _, f := range []Formula{
		And{Left: Atom{Event: d.Lookup("a")}, Right: Atom{Event: d.Lookup("b")}},
		mustRule(t, d, "a", "b"), // rule formulas are read by DescribeRule
	} {
		if got := Describe(f, d); got != f.String(d) {
			t.Errorf("Describe fallback should render symbolically: %q", got)
		}
	}
}
