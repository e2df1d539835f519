package rules

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
)

func mkdb(traces ...[]string) *seqdb.Database {
	db := seqdb.NewDatabase()
	for _, t := range traces {
		db.AppendNames(t...)
	}
	return db
}

func TestOptionsValidate(t *testing.T) {
	valid := Options{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 0.5}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := []Options{
		{},
		{MinSeqSupport: 1, MinInstanceSupport: 0, MinConfidence: 0.5},
		{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 0},
		{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 1.5},
		{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 0.5, MaxPremiseLength: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	ten := seqdb.NewDatabase()
	for i := 0; i < 10; i++ {
		ten.AppendNames("a")
	}
	res, err := Mine(ten, Options{MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSeqSup != 5 {
		t.Errorf("applied s-support %d want 5", res.MinSeqSup)
	}
	if _, err := mineFull(seqdb.NewDatabase(), Options{}); err == nil {
		t.Errorf("the full miner accepted invalid options")
	}
	if _, err := Mine(seqdb.NewDatabase(), Options{}); err == nil {
		t.Errorf("the non-redundant miner accepted invalid options")
	}
}

// mineFull mines every significant rule under opts.
func mineFull(db *seqdb.Database, opts Options) (*Result, error) {
	opts.Full = true
	return Mine(db, opts)
}

func TestEvaluateRuleLockUnlock(t *testing.T) {
	// "Whenever a lock is acquired, eventually it is released."
	db := mkdb(
		[]string{"lock", "use", "unlock"},
		[]string{"lock", "use", "unlock", "lock", "unlock"},
		[]string{"lock", "use"}, // violating trace
		[]string{"idle"},
	)
	pre := seqdb.ParsePattern(db.Dict, "lock")
	post := seqdb.ParsePattern(db.Dict, "unlock")
	r := EvaluateRule(db, pre, post)
	if r.SeqSupport != 3 {
		t.Errorf("s-sup=%d want 3", r.SeqSupport)
	}
	// Temporal points of <lock>: 4 (one in trace 1, two in trace 2, one in
	// trace 3). Satisfied: 3 (trace 3's is not followed by unlock).
	if math.Abs(r.Confidence-0.75) > 1e-9 {
		t.Errorf("conf=%v want 0.75", r.Confidence)
	}
	// Temporal points of <lock, unlock>: trace1: unlock@2 -> 1; trace2:
	// unlock@2, unlock@4 -> 2; total 3.
	if r.InstanceSupport != 3 {
		t.Errorf("i-sup=%d want 3", r.InstanceSupport)
	}
}

func TestTemporalPointsDefinition(t *testing.T) {
	db := mkdb([]string{"a", "b", "a", "b", "b"})
	s := db.Sequences[0]
	pre := seqdb.ParsePattern(db.Dict, "a b")
	got := TemporalPoints(s, pre)
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("temporal points %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("temporal points %v want %v", got, want)
		}
	}
}

func TestMineFullSimpleRule(t *testing.T) {
	db := mkdb(
		[]string{"lock", "use", "unlock"},
		[]string{"lock", "write", "unlock"},
		[]string{"lock", "read", "unlock"},
	)
	res, err := Mine(db, Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := res.Find(seqdb.ParsePattern(db.Dict, "lock"), seqdb.ParsePattern(db.Dict, "unlock"))
	if !ok {
		t.Fatalf("lock -> unlock not mined; got:\n%s", res.Render(db.Dict, 0))
	}
	if rule.SeqSupport != 3 || rule.InstanceSupport != 3 || rule.Confidence != 1.0 {
		t.Errorf("lock -> unlock stats wrong: %+v", rule)
	}
	// unlock -> lock must not appear at confidence 1.0.
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "unlock"), seqdb.ParsePattern(db.Dict, "lock")); ok {
		t.Errorf("unlock -> lock mined despite zero confidence")
	}
}

func TestMinedRuleStatisticsMatchEvaluateRule(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 10; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 5; i++ {
			n := 2 + rng.Intn(8)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		opts := Options{MinSeqSupport: 2, MinInstanceSupport: 1, MinConfidence: 0.5, MaxPremiseLength: 3, MaxConsequentLength: 3}
		res, err := mineFull(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rules {
			want := EvaluateRule(db, r.Pre, r.Post)
			if want.SeqSupport != r.SeqSupport || want.InstanceSupport != r.InstanceSupport ||
				math.Abs(want.Confidence-r.Confidence) > 1e-9 {
				t.Fatalf("iter %d: stats mismatch for %s: mined %+v direct %+v", iter, r.String(db.Dict), r, want)
			}
			if r.Confidence+1e-9 < opts.MinConfidence {
				t.Fatalf("iter %d: rule below confidence threshold emitted: %s", iter, r.String(db.Dict))
			}
			if r.SeqSupport < opts.MinSeqSupport || r.InstanceSupport < opts.MinInstanceSupport {
				t.Fatalf("iter %d: rule below support thresholds emitted: %s", iter, r.String(db.Dict))
			}
		}
	}
}

// bruteRules enumerates every significant rule by generating all premise and
// consequent combinations up to the given lengths and scoring them with
// EvaluateRule.
func bruteRules(db *seqdb.Database, opts Options, maxPre, maxPost int) map[string]Rule {
	events := db.FlatIndex().FrequentEventsBySeqSupport(1)
	var patterns []seqdb.Pattern
	var gen func(p seqdb.Pattern, maxLen int)
	gen = func(p seqdb.Pattern, maxLen int) {
		if len(p) > 0 {
			patterns = append(patterns, p.Clone())
		}
		if len(p) >= maxLen {
			return
		}
		for _, e := range events {
			gen(p.Append(e), maxLen)
		}
	}
	maxLen := maxPre
	if maxPost > maxLen {
		maxLen = maxPost
	}
	gen(nil, maxLen)

	minSeqSup := opts.MinSeqSupport
	if opts.MinSeqSupportRel > 0 {
		minSeqSup = seqdb.AbsoluteSupport(opts.MinSeqSupportRel, db.NumSequences())
	}
	out := make(map[string]Rule)
	for _, pre := range patterns {
		if len(pre) > maxPre {
			continue
		}
		for _, post := range patterns {
			if len(post) > maxPost {
				continue
			}
			r := EvaluateRule(db, pre, post)
			if r.SeqSupport >= minSeqSup && r.InstanceSupport >= opts.MinInstanceSupport &&
				r.Confidence+1e-12 >= opts.MinConfidence {
				out[r.Key()] = r
			}
		}
	}
	return out
}

// insertionDominated reports, by brute force over TemporalPoints, whether
// inserting one event of alphabet somewhere before p's last event leaves the
// temporal points of p unchanged in every trace — the premise-level
// redundancy the non-redundant miner's premise walk prunes on.
func insertionDominated(db *seqdb.Database, p seqdb.Pattern, alphabet []seqdb.EventID) bool {
	for i := 0; i < len(p); i++ {
		for _, x := range alphabet {
			d := append(append(append(seqdb.Pattern{}, p[:i]...), x), p[i:]...)
			same := true
			for _, s := range db.Sequences {
				if !slices.Equal(TemporalPoints(s, p), TemporalPoints(s, d)) {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
	}
	return false
}

// TestMineFullAgainstBruteForce sweeps both length bounds and the i-support
// floor over {1, 2, 3}: the full miner must equal exhaustive enumeration,
// and the non-redundant
// miner must equal FilterRedundant of the full set once the rules its
// premise walk never reaches are set aside. The consequent search stops
// extending exactly at MaxConsequentLength, where the redundancy check also
// stops looking for a longer consequent, so every bound pair is checked.
//
// The set-aside rules: the walk skips the whole subtree of a premise that
// has an equivalent single insertion within MaxPremiseLength. Below the
// bound each skipped premise pre ++ X is dominated by the insertion's D ++ X,
// but at the bound D ++ X is one event too long, so a rule there can be
// non-redundant within the bounds and still go unmined. FilterRedundant(full)
// keeps such rules; the miner does not (a known gap of the bounded premise
// walk).
func TestMineFullAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 12; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 4; i++ {
			n := 2 + rng.Intn(6)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		for maxPre := 1; maxPre <= 3; maxPre++ {
			for maxPost := 1; maxPost <= 3; maxPost++ {
				for minISup := 1; minISup <= 3; minISup++ {
					opts := Options{
						MinSeqSupport:       2,
						MinInstanceSupport:  minISup,
						MinConfidence:       0.6,
						MaxPremiseLength:    maxPre,
						MaxConsequentLength: maxPost,
					}
					res, err := mineFull(db, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteRules(db, opts, maxPre, maxPost)
					got := make(map[string]Rule)
					for _, r := range res.Rules {
						got[r.Key()] = r
					}
					for key, w := range want {
						g, ok := got[key]
						if !ok {
							t.Fatalf("iter %d pre<=%d post<=%d isup>=%d: full miner missed rule %s -> %s (db=%v)",
								iter, maxPre, maxPost, minISup, w.Pre.String(db.Dict), w.Post.String(db.Dict), db.Sequences)
						}
						if g.SeqSupport != w.SeqSupport || g.InstanceSupport != w.InstanceSupport || math.Abs(g.Confidence-w.Confidence) > 1e-9 {
							t.Fatalf("iter %d pre<=%d post<=%d isup>=%d: stats mismatch for %s: %+v vs %+v", iter, maxPre, maxPost, minISup, key, g, w)
						}
					}
					for key := range got {
						if _, ok := want[key]; !ok {
							t.Fatalf("iter %d pre<=%d post<=%d isup>=%d: full miner emitted unexpected rule %s", iter, maxPre, maxPost, minISup, key)
						}
					}

					nr, err := Mine(db, opts)
					if err != nil {
						t.Fatal(err)
					}
					var reached []Rule
					for _, r := range res.Rules {
						if !walkSkips(db, r.Pre, maxPre) {
							reached = append(reached, r)
						}
					}
					if filtered := FilterRedundant(reached); !reflect.DeepEqual(nr.Rules, filtered) {
						t.Fatalf("iter %d pre<=%d post<=%d isup>=%d: non-redundant miner differs from FilterRedundant(full rules the premise walk reaches)\nnr:\n%sfiltered:\n%s",
							iter, maxPre, maxPost, minISup, nr.Render(db.Dict, 0), (&Result{Rules: filtered}).Render(db.Dict, 0))
					}
				}
			}
		}
	}
}

// walkSkips reports whether the non-redundant premise walk never reaches a
// rule with premise pre under MaxPremiseLength maxPre: some prefix of pre
// shorter than maxPre has an equivalent single insertion, so its subtree is
// skipped (see TestMineFullAgainstBruteForce).
func walkSkips(db *seqdb.Database, pre seqdb.Pattern, maxPre int) bool {
	for k := 1; k <= len(pre) && k < maxPre; k++ {
		if insertionDominated(db, pre[:k], db.FlatIndex().FrequentEventsBySeqSupport(1)) {
			return true
		}
	}
	return false
}

// TestMineNonRedundantCoversFullSet: every non-redundant rule is a
// significant rule with the same statistics, and every significant rule is
// covered by a non-redundant one with equal statistics and a super-sequence
// concatenation — except a rule the premise walk never reaches at the bound
// (walkSkips; the known gap of Options.Full), which is set aside and counted.
func TestMineNonRedundantCoversFullSet(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	setAside := 0
	for iter := 0; iter < 30; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 4; i++ {
			n := 2 + rng.Intn(6)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		for minISup := 1; minISup <= 3; minISup++ {
			opts := Options{
				MinSeqSupport:       2,
				MinInstanceSupport:  minISup,
				MinConfidence:       0.6,
				MaxPremiseLength:    2,
				MaxConsequentLength: 2,
			}
			full, err := mineFull(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			nr, err := Mine(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(nr.Rules) > len(full.Rules) {
				t.Fatalf("iter %d isup>=%d: NR set (%d) larger than full set (%d)", iter, minISup, len(nr.Rules), len(full.Rules))
			}
			fullByKey := make(map[string]Rule)
			for _, r := range full.Rules {
				fullByKey[r.Key()] = r
			}
			// 1. Every NR rule is a significant rule with identical statistics.
			for _, r := range nr.Rules {
				f, ok := fullByKey[r.Key()]
				if !ok {
					t.Fatalf("iter %d isup>=%d: NR rule %s not in full set", iter, minISup, r.String(db.Dict))
				}
				if f.SeqSupport != r.SeqSupport || f.InstanceSupport != r.InstanceSupport || math.Abs(f.Confidence-r.Confidence) > 1e-9 {
					t.Fatalf("iter %d isup>=%d: NR stats differ from full for %s", iter, minISup, r.Key())
				}
			}
			// 2. Every full rule is either in the NR set or redundant with respect
			//    to it: some NR rule with identical statistics has a super-sequence
			//    concatenation.
			for _, f := range full.Rules {
				covered := false
				fc := f.Concat()
				for _, r := range nr.Rules {
					if r.SeqSupport == f.SeqSupport && r.InstanceSupport == f.InstanceSupport &&
						math.Abs(r.Confidence-f.Confidence) < 1e-9 && fc.IsSubsequenceOf(r.Concat()) {
						covered = true
						break
					}
				}
				if !covered && walkSkips(db, f.Pre, opts.MaxPremiseLength) {
					setAside++
					continue
				}
				if !covered {
					t.Fatalf("iter %d isup>=%d: full rule %s not covered by NR set\nfull:\n%snr:\n%s",
						iter, minISup, f.String(db.Dict), full.Render(db.Dict, 0), nr.Render(db.Dict, 0))
				}
			}
			// 3. No rule in the NR set is redundant with respect to the NR set.
			for _, r := range nr.Rules {
				if pairwiseRedundant(r, nr.Rules) {
					t.Fatalf("iter %d isup>=%d: NR set still contains redundant rule %s", iter, minISup, r.String(db.Dict))
				}
			}
		}
	}
	t.Logf("%d uncovered full rules set aside: the premise walk skips them at the bound", setAside)
}

func TestInitTerminationMultiEventRule(t *testing.T) {
	// "Whenever a series of initialization events is performed, eventually a
	// series of termination events is also performed." — a multi-event rule
	// that two-event miners (Section 2's discussion of Perracotta) cannot
	// express.
	db := mkdb(
		[]string{"init_cfg", "init_net", "work", "work", "stop_net", "stop_cfg"},
		[]string{"init_cfg", "init_net", "work", "stop_net", "stop_cfg"},
		[]string{"init_cfg", "init_net", "stop_net", "stop_cfg"},
		[]string{"noise", "noise"},
	)
	opts := Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0}
	res, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The maximal initialization/termination behaviour must be captured. Per
	// Definition 5.2's tie-break, among the equal-concatenation variants the
	// one with the shortest premise is retained.
	pre := seqdb.ParsePattern(db.Dict, "init_cfg")
	post := seqdb.ParsePattern(db.Dict, "init_net stop_net stop_cfg")
	rule, ok := res.Find(pre, post)
	if !ok {
		t.Fatalf("initialization -> termination rule not found:\n%s", res.Render(db.Dict, 0))
	}
	if rule.SeqSupport != 3 || rule.Confidence != 1.0 {
		t.Errorf("unexpected stats: %+v", rule)
	}
	// The equal-concatenation variant with the longer premise is redundant.
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "init_cfg init_net"), seqdb.ParsePattern(db.Dict, "stop_net stop_cfg")); ok {
		t.Errorf("longer-premise variant should have been removed by the tie-break:\n%s", res.Render(db.Dict, 0))
	}
	// The full miner, by contrast, reports both variants.
	full, err := mineFull(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := full.Find(seqdb.ParsePattern(db.Dict, "init_cfg init_net"), seqdb.ParsePattern(db.Dict, "stop_net stop_cfg")); !ok {
		t.Errorf("full miner should report the longer-premise variant:\n%s", full.Render(db.Dict, 0))
	}
}

func TestNonRedundantSuppressesShorterConsequents(t *testing.T) {
	db := mkdb(
		[]string{"a", "x", "y", "z"},
		[]string{"a", "x", "y", "z"},
		[]string{"a", "x", "y", "z"},
	)
	res, err := Mine(db, Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// a -> <x> and a -> <x,y> are redundant with respect to a -> <x,y,z>.
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "a"), seqdb.ParsePattern(db.Dict, "x")); ok {
		t.Errorf("a -> x should be redundant:\n%s", res.Render(db.Dict, 0))
	}
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "a"), seqdb.ParsePattern(db.Dict, "x y z")); !ok {
		t.Errorf("a -> x y z missing:\n%s", res.Render(db.Dict, 0))
	}
	full, err := Mine(db, Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rules) <= len(res.Rules) {
		t.Errorf("full (%d) should exceed NR (%d)", len(full.Rules), len(res.Rules))
	}
}

func TestRuleHelpers(t *testing.T) {
	d := seqdb.NewDictionary()
	r := Rule{
		Pre:             seqdb.ParsePattern(d, "a b"),
		Post:            seqdb.ParsePattern(d, "c"),
		SeqSupport:      2,
		InstanceSupport: 3,
		Confidence:      0.5,
	}
	if r.Concat().String(d) != "<a, b, c>" {
		t.Errorf("Concat=%s", r.Concat().String(d))
	}
	if r.String(d) == "" || r.Key() == "" {
		t.Errorf("String/Key empty")
	}
	res := &Result{Rules: []Rule{r}}
	if out := res.Render(d, 0); out == "" {
		t.Errorf("Render empty")
	}
	if _, ok := res.Find(r.Pre, r.Post); !ok {
		t.Errorf("Find failed")
	}
}

func TestFilterRedundant(t *testing.T) {
	d := seqdb.NewDictionary()
	short := Rule{Pre: seqdb.ParsePattern(d, "a"), Post: seqdb.ParsePattern(d, "b"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	long := Rule{Pre: seqdb.ParsePattern(d, "a"), Post: seqdb.ParsePattern(d, "b c"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	other := Rule{Pre: seqdb.ParsePattern(d, "x"), Post: seqdb.ParsePattern(d, "y"), SeqSupport: 3, InstanceSupport: 3, Confidence: 1}
	out := FilterRedundant([]Rule{short, long, other})
	if len(out) != 2 {
		t.Fatalf("FilterRedundant kept %d rules, want 2", len(out))
	}
	for _, r := range out {
		if r.Key() == short.Key() {
			t.Errorf("short rule should have been removed")
		}
	}
	// Same concatenation: prefer the shorter premise.
	a := Rule{Pre: seqdb.ParsePattern(d, "a b"), Post: seqdb.ParsePattern(d, "c"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	b := Rule{Pre: seqdb.ParsePattern(d, "a"), Post: seqdb.ParsePattern(d, "b c"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	out2 := FilterRedundant([]Rule{a, b})
	if len(out2) != 1 || out2[0].Key() != b.Key() {
		t.Errorf("tie-break should keep the shorter premise: %v", out2)
	}
}

// pairwiseRedundant is Definition 5.2 read literally over the whole set: r
// is redundant when another rule with the same s-support, i-support and
// confidence (within 1e-9) has a concatenation that properly
// super-sequences r's, or the same concatenation with a shorter premise.
func pairwiseRedundant(r Rule, set []Rule) bool {
	rc := r.Concat()
	for _, o := range set {
		if o.SeqSupport != r.SeqSupport || o.InstanceSupport != r.InstanceSupport ||
			math.Abs(o.Confidence-r.Confidence) >= 1e-9 {
			continue
		}
		if o.Pre.Equal(r.Pre) && o.Post.Equal(r.Post) {
			continue
		}
		oc := o.Concat()
		if oc.Equal(rc) && len(o.Pre) < len(r.Pre) {
			return true
		}
		if len(oc) > len(rc) && rc.IsSubsequenceOf(oc) {
			return true
		}
	}
	return false
}

// TestFilterRedundantMatchesPairwise: the bucketed, signature-gated filter
// keeps exactly the rules the whole-set pairwise definition keeps, in input
// order. The random sets collide heavily on supports, carry confidences
// within and just beyond 1e-9 of each other, and split equal concatenations
// at different points. A first round draws events from {0, 1, 2}; a second
// draws each set's events from ids in 0..200 of which two or three share
// their low six bits, so distinct events collide in the 64-bit signature.
func TestFilterRedundantMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ids := []seqdb.EventID{0, 1, 2}
	pattern := func(n int) seqdb.Pattern {
		p := make(seqdb.Pattern, n)
		for i := range p {
			p[i] = ids[rng.Intn(len(ids))]
		}
		return p
	}
	for _, wide := range []bool{false, true} {
		for iter := 0; iter < 300; iter++ {
			if wide {
				b := seqdb.EventID(rng.Intn(73)) // b+128 <= 200
				ids = []seqdb.EventID{b, b + 64, seqdb.EventID(rng.Intn(201))}
				if rng.Intn(2) == 0 {
					ids = append(ids, b+128)
				}
			}
			var set []Rule
			for n := rng.Intn(40); n > 0; n-- {
				var r Rule
				if k := len(set); k > 0 && rng.Intn(3) == 0 {
					// Re-split an earlier rule's concatenation elsewhere.
					c := set[rng.Intn(k)].Concat()
					cut := 1 + rng.Intn(len(c)-1)
					r.Pre, r.Post = c[:cut].Clone(), c[cut:].Clone()
				} else {
					r.Pre, r.Post = pattern(1+rng.Intn(3)), pattern(1+rng.Intn(3))
				}
				r.SeqSupport = 1 + rng.Intn(2)
				r.InstanceSupport = 1 + rng.Intn(2)
				// Confidences on a 0.4e-9 grid around two values: some pairs
				// fall within floatEqual's 1e-9, others just outside it.
				r.Confidence = []float64{0.5, 0.75}[rng.Intn(2)] + float64(rng.Intn(4))*0.4e-9
				set = append(set, r)
			}
			var want []Rule
			for _, r := range set {
				if !pairwiseRedundant(r, set) {
					want = append(want, r)
				}
			}
			got := FilterRedundant(set)
			if len(got) != len(want) {
				t.Fatalf("wide %v iter %d: FilterRedundant kept %d rules, pairwise definition %d\nset %+v", wide, iter, len(got), len(want), set)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("wide %v iter %d: kept rule %d = %+v, pairwise definition %+v", wide, iter, i, got[i], want[i])
				}
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "a", "b"},
		[]string{"a", "b"},
	)
	res, err := Mine(db, Options{MinSeqSupport: 2, MinInstanceSupport: 1, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PremisesExplored == 0 || res.Stats.ConsequentNodesExplored == 0 {
		t.Errorf("stats not recorded: %+v", res.Stats)
	}
	if res.Stats.RulesEmitted != len(res.Rules) {
		t.Errorf("RulesEmitted mismatch")
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("Duration not recorded")
	}
}

// TestStatsPinnedAcrossConsequentBounds pins the search counters on one
// fixed database at every consequent length bound the consequent search
// forks on: at bound 1 the root's children are leaves, at 2 and 3 a deeper
// level is, and 0 has no leaf level. A leaf rule must count as an explored
// consequent node and pass the same support and confidence tests as an inner
// node, and the node above the leaves must still see every extension's count
// and i-support for its redundancy check, so a change to the leaf path moves
// one of these figures.
func TestStatsPinnedAcrossConsequentBounds(t *testing.T) {
	db := mkdb(
		[]string{"open", "read", "read", "close", "open", "write", "close"},
		[]string{"open", "read", "write", "close", "lock", "open", "close"},
		[]string{"lock", "open", "read", "close", "unlock", "open", "read", "write", "close"},
		[]string{"open", "write", "write", "close", "read", "open", "close"},
		[]string{"lock", "read", "unlock", "open", "read", "close"},
		[]string{"open", "lock", "write", "unlock", "close", "open", "read"},
	)
	type counters struct{ nodes, suppressed, emitted int }
	for _, tc := range []struct {
		maxPost int
		full    bool
		want    counters
	}{
		{1, false, counters{44, 0, 29}},
		{2, false, counters{73, 9, 49}},
		{3, false, counters{87, 23, 49}},
		{0, false, counters{93, 36, 42}},
		{1, true, counters{68, 0, 42}},
		{2, true, counters{105, 0, 79}},
		{3, true, counters{121, 0, 95}},
		{0, true, counters{127, 0, 101}},
	} {
		res, err := Mine(db, Options{
			MinSeqSupport:       3,
			MinInstanceSupport:  2,
			MinConfidence:       0.5,
			MaxPremiseLength:    2,
			MaxConsequentLength: tc.maxPost,
			Full:                tc.full,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := counters{res.Stats.ConsequentNodesExplored, res.Stats.RulesSuppressedRedundant, res.Stats.RulesEmitted}
		if got != tc.want {
			t.Errorf("MaxConsequentLength %d full %v: (nodes, suppressed, emitted) = %v, want %v", tc.maxPost, tc.full, got, tc.want)
		}
	}
}

// TestMineConsequentsAllocsFlat: growing one premise's consequents costs the
// same number of allocations at 1k and at 8k locking traces, so no scratch
// grows with the premise's sequences. Each run starts from a fresh worker's
// empty temporal-point scratch, as a worker's first premise does.
func TestMineConsequentsAllocsFlat(t *testing.T) {
	allocs := func(traces int) (float64, int) {
		db := tracesim.LockingComponent().MustGenerate(traces, 1)
		lock := db.Dict.Lookup("Mutex.lock")
		w := &ruleWorker{idx: db.FlatIndex(), opts: Options{MinInstanceSupport: 1, MinConfidence: 0.9, MaxConsequentLength: 1}}
		w.ext.Rebind(w.idx)
		proj := w.ext.SeedProj(lock)
		n := testing.AllocsPerRun(20, func() {
			w.points, w.rules = nil, nil
			w.mineConsequents(seqdb.Pattern{lock}, proj)
		})
		return n, len(w.rules)
	}
	small, smallRules := allocs(1000)
	large, largeRules := allocs(8000)
	if smallRules == 0 || smallRules != largeRules {
		t.Fatalf("%d and %d rules: the two databases must emit the same non-empty rule set", smallRules, largeRules)
	}
	if small != large {
		t.Fatalf("mineConsequents allocates %v times at 1k traces and %v at 8k: scratch grows with the premise", small, large)
	}
}
