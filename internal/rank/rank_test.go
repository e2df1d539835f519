package rank

import (
	"math/rand"
	"testing"

	"specmine/internal/episode"
	"specmine/internal/iterpattern"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/seqpattern"
)

func mkdb(traces ...[]string) *seqdb.Database {
	db := seqdb.NewDatabase()
	for _, t := range traces {
		db.AppendNames(t...)
	}
	return db
}

func TestDefaultWeights(t *testing.T) {
	w := Weights{}.orDefault()
	if w != DefaultWeights() {
		t.Errorf("zero weights should become defaults")
	}
	custom := Weights{Support: 3}
	if custom.orDefault() != custom {
		t.Errorf("non-zero weights must be preserved")
	}
}

func TestRankPatternsPrefersLongRecurringBehaviour(t *testing.T) {
	db := mkdb(
		[]string{"init", "configure", "start", "noise1"},
		[]string{"init", "configure", "start", "noise2"},
		[]string{"init", "configure", "start"},
		[]string{"noise1", "noise2"},
	)
	short := iterpattern.MinedPattern{Pattern: seqdb.ParsePattern(db.Dict, "init"), Support: 3, SeqSupport: 3}
	long := iterpattern.MinedPattern{Pattern: seqdb.ParsePattern(db.Dict, "init configure start"), Support: 3, SeqSupport: 3}
	scored := Patterns(db, []iterpattern.MinedPattern{short, long}, Weights{})
	if len(scored) != 2 {
		t.Fatalf("scored=%d", len(scored))
	}
	if !scored[0].Pattern.Pattern.Equal(long.Pattern) {
		t.Errorf("long recurring pattern should rank first, got %s", scored[0].Pattern.Pattern.String(db.Dict))
	}
	if scored[0].Score <= scored[1].Score {
		t.Errorf("scores not ordered: %v <= %v", scored[0].Score, scored[1].Score)
	}
}

func TestRankRulesPrefersHighConfidence(t *testing.T) {
	db := mkdb(
		[]string{"lock", "use", "unlock"},
		[]string{"lock", "use", "unlock"},
		[]string{"lock", "use"},
		[]string{"open", "close"},
	)
	strong := rules.EvaluateRule(db, seqdb.ParsePattern(db.Dict, "open"), seqdb.ParsePattern(db.Dict, "close"))
	weak := rules.EvaluateRule(db, seqdb.ParsePattern(db.Dict, "lock"), seqdb.ParsePattern(db.Dict, "unlock"))
	if weak.Confidence >= strong.Confidence {
		t.Fatalf("test setup wrong: weak %v strong %v", weak.Confidence, strong.Confidence)
	}
	scored := Rules(db, []rules.Rule{weak, strong}, Weights{Confidence: 5, Support: 0.1, Length: 0, Surprise: 0})
	if scored[0].Rule.Confidence < scored[1].Rule.Confidence {
		t.Errorf("high-confidence rule should rank first")
	}
}

func TestTopNHelpers(t *testing.T) {
	db := mkdb([]string{"a", "b"}, []string{"a", "b"})
	pats := []iterpattern.MinedPattern{
		{Pattern: seqdb.ParsePattern(db.Dict, "a"), Support: 2},
		{Pattern: seqdb.ParsePattern(db.Dict, "a b"), Support: 2},
		{Pattern: seqdb.ParsePattern(db.Dict, "b"), Support: 2},
	}
	if got := TopPatterns(db, pats, Weights{}, 2); len(got) != 2 {
		t.Errorf("TopPatterns=%d want 2", len(got))
	}
	if got := TopPatterns(db, pats, Weights{}, 0); len(got) != 3 {
		t.Errorf("TopPatterns(0)=%d want 3", len(got))
	}
	rs := []rules.Rule{
		rules.EvaluateRule(db, seqdb.ParsePattern(db.Dict, "a"), seqdb.ParsePattern(db.Dict, "b")),
	}
	if got := TopRules(db, rs, Weights{}, 5); len(got) != 1 {
		t.Errorf("TopRules=%d want 1", len(got))
	}
}

func TestSurpriseEdgeCases(t *testing.T) {
	db := mkdb([]string{"a", "b"})
	st := statsOf(db)
	if st.total != 2 {
		t.Fatalf("total=%v want 2", st.total)
	}
	if got := surprise(nil, 3, st); got != 0 {
		t.Errorf("empty pattern surprise %v", got)
	}
	if got := surprise(seqdb.ParsePattern(db.Dict, "a"), 0, st); got != 0 {
		t.Errorf("zero support surprise %v", got)
	}
	if got := surprise(seqdb.ParsePattern(db.Dict, "a b"), 1, st); got < 0 {
		t.Errorf("surprise must not be negative: %v", got)
	}
}

// TestIndexEventStatsMatchRescan pins the index-backed event statistics to
// the database rescan they replaced.
func TestIndexEventStatsMatchRescan(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "a", "c"},
		[]string{"b", "b", "c"},
	)
	st := statsOf(db)
	if int(st.total) != db.NumEvents() {
		t.Fatalf("total=%v want %d", st.total, db.NumEvents())
	}
	rescan := make(map[seqdb.EventID]int)
	for _, s := range db.Sequences {
		for _, e := range s {
			rescan[e]++
		}
	}
	for e, n := range rescan {
		if int(st.freq(e)) != n {
			t.Errorf("freq(%v)=%v want %d", e, st.freq(e), n)
		}
	}
}

func TestRankSeqPatternsAndEpisodes(t *testing.T) {
	db := mkdb(
		[]string{"open", "read", "close", "noise"},
		[]string{"open", "read", "close"},
		[]string{"open", "close"},
	)
	pats := []seqpattern.MinedPattern{
		{Pattern: seqdb.ParsePattern(db.Dict, "open"), SeqSupport: 3},
		{Pattern: seqdb.ParsePattern(db.Dict, "open read close"), SeqSupport: 2},
	}
	scored := SeqPatterns(db, pats, Weights{})
	if len(scored) != 2 {
		t.Fatalf("scored=%d", len(scored))
	}
	if !scored[0].Pattern.Pattern.Equal(pats[1].Pattern) {
		t.Errorf("long recurring sequential pattern should rank first")
	}
	if got := TopSeqPatterns(db, pats, Weights{}, 1); len(got) != 1 {
		t.Errorf("TopSeqPatterns=%d want 1", len(got))
	}

	eps := []episode.Episode{
		{Pattern: seqdb.ParsePattern(db.Dict, "noise"), Windows: 2, Frequency: 0.2},
		{Pattern: seqdb.ParsePattern(db.Dict, "open read close"), Windows: 6, Frequency: 0.6},
	}
	se := Episodes(db, eps, Weights{})
	if !se[0].Episode.Pattern.Equal(eps[1].Pattern) {
		t.Errorf("frequent long episode should rank first")
	}
	if got := TopEpisodes(db, eps, Weights{}, 1); len(got) != 1 {
		t.Errorf("TopEpisodes=%d want 1", len(got))
	}
}

// TestRankingPermutationInvariant is the determinism property: whatever
// order the mined specifications arrive in, the ranking is identical —
// score ties are broken by content, never by input position.
func TestRankingPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := mkdb(
		[]string{"a", "b", "c", "d"},
		[]string{"a", "b", "c"},
		[]string{"b", "d", "a"},
		[]string{"c", "c", "d"},
	)
	// Several patterns share supports (and therefore scores at equal length),
	// so tie-breaking is actually exercised.
	var pats []iterpattern.MinedPattern
	var spats []seqpattern.MinedPattern
	var eps []episode.Episode
	for _, spec := range []string{"a", "b", "c", "d", "a b", "b c", "c d", "a c", "b d"} {
		p := seqdb.ParsePattern(db.Dict, spec)
		pats = append(pats, iterpattern.MinedPattern{Pattern: p, Support: 3, SeqSupport: 2})
		spats = append(spats, seqpattern.MinedPattern{Pattern: p, SeqSupport: 2})
		eps = append(eps, episode.Episode{Pattern: p, Windows: 4, Frequency: 0.4})
	}
	var ruleSet []rules.Rule
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}} {
		ruleSet = append(ruleSet, rules.Rule{
			Pre:        seqdb.ParsePattern(db.Dict, pair[0]),
			Post:       seqdb.ParsePattern(db.Dict, pair[1]),
			SeqSupport: 2, InstanceSupport: 3, Confidence: 0.5,
		})
	}

	wantP := Patterns(db, pats, Weights{})
	wantR := Rules(db, ruleSet, Weights{})
	wantS := SeqPatterns(db, spats, Weights{})
	wantE := Episodes(db, eps, Weights{})
	for iter := 0; iter < 20; iter++ {
		rng.Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
		rng.Shuffle(len(ruleSet), func(i, j int) { ruleSet[i], ruleSet[j] = ruleSet[j], ruleSet[i] })
		rng.Shuffle(len(spats), func(i, j int) { spats[i], spats[j] = spats[j], spats[i] })
		rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
		gotP := Patterns(db, pats, Weights{})
		for k := range wantP {
			if !gotP[k].Pattern.Pattern.Equal(wantP[k].Pattern.Pattern) || gotP[k].Score != wantP[k].Score {
				t.Fatalf("iter %d: pattern ranking not permutation-invariant at %d", iter, k)
			}
		}
		gotR := Rules(db, ruleSet, Weights{})
		for k := range wantR {
			if !gotR[k].Rule.Pre.Equal(wantR[k].Rule.Pre) || !gotR[k].Rule.Post.Equal(wantR[k].Rule.Post) || gotR[k].Score != wantR[k].Score {
				t.Fatalf("iter %d: rule ranking not permutation-invariant at %d", iter, k)
			}
		}
		gotS := SeqPatterns(db, spats, Weights{})
		for k := range wantS {
			if !gotS[k].Pattern.Pattern.Equal(wantS[k].Pattern.Pattern) || gotS[k].Score != wantS[k].Score {
				t.Fatalf("iter %d: seq-pattern ranking not permutation-invariant at %d", iter, k)
			}
		}
		gotE := Episodes(db, eps, Weights{})
		for k := range wantE {
			if !gotE[k].Episode.Pattern.Equal(wantE[k].Episode.Pattern) || gotE[k].Score != wantE[k].Score {
				t.Fatalf("iter %d: episode ranking not permutation-invariant at %d", iter, k)
			}
		}
	}
}
