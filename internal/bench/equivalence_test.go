package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/episode"
	"specmine/internal/iterpattern"
	"specmine/internal/seqdb"
	"specmine/internal/seqpattern"
)

func randomDB(rng *rand.Rand, numSeqs, maxLen, alphabet int) *seqdb.Database {
	db := seqdb.NewDatabase()
	for i := 0; i < alphabet; i++ {
		db.Dict.Intern(string(rune('a' + i)))
	}
	for i := 0; i < numSeqs; i++ {
		n := 1 + rng.Intn(maxLen)
		s := make(seqdb.Sequence, n)
		for j := range s {
			s[j] = seqdb.EventID(rng.Intn(alphabet))
		}
		db.Append(s)
	}
	return db
}

func assertPatternResultsEqual(t *testing.T, label string, got, want *iterpattern.Result) {
	t.Helper()
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Patterns {
		g, w := got.Patterns[i], want.Patterns[i]
		if !g.Pattern.Equal(w.Pattern) || g.Support != w.Support || g.SeqSupport != w.SeqSupport {
			t.Fatalf("%s: pattern %d differs: got %v sup=%d/%d want %v sup=%d/%d",
				label, i, g.Pattern, g.Support, g.SeqSupport, w.Pattern, w.Support, w.SeqSupport)
		}
		if len(g.Instances) != len(w.Instances) {
			t.Fatalf("%s: pattern %d instance count %d want %d", label, i, len(g.Instances), len(w.Instances))
		}
		for k := range w.Instances {
			if g.Instances[k] != w.Instances[k] {
				t.Fatalf("%s: pattern %d instance %d %v want %v", label, i, k, g.Instances[k], w.Instances[k])
			}
		}
	}
	if got.MinSupport != want.MinSupport {
		t.Fatalf("%s: MinSupport %d want %d", label, got.MinSupport, want.MinSupport)
	}
	gs, ws := got.Stats, want.Stats
	if gs.NodesExplored != ws.NodesExplored ||
		gs.NodesPrunedInfrequent != ws.NodesPrunedInfrequent ||
		gs.SubtreesPrunedEquivalent != ws.SubtreesPrunedEquivalent ||
		gs.NonClosedSuppressed != ws.NonClosedSuppressed ||
		gs.PatternsEmitted != ws.PatternsEmitted {
		t.Fatalf("%s: stats differ: got %+v want %+v", label, gs, ws)
	}
}

// TestFlatMinerMatchesBaseline pins the rewritten miner to the seed
// algorithm: identical patterns, supports, instances and search counters on
// workloads from the benchmark matrix and on random databases. This is also
// the regression test for the landmark-memory deduplication (shared instance
// slices instead of per-landmark clones): any behavioural drift in the
// equivalence pruning would change the counters or the emitted set.
func TestFlatMinerMatchesBaseline(t *testing.T) {
	cases := ClosedCases()
	light := []ClosedCase{cases[0], cases[4], cases[5]}
	for _, c := range light {
		db := c.Gen()
		opts := c.Opts
		opts.IncludeInstances = true
		flat, err := iterpattern.Mine(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		base, err := baseline.MineClosed(db, baseline.Index(db), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertPatternResultsEqual(t, c.Name+"/closed", flat, base)
	}
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 25; iter++ {
		db := randomDB(rng, 3+rng.Intn(4), 12, 3+rng.Intn(3))
		opts := iterpattern.Options{MinInstanceSupport: 2 + rng.Intn(2), IncludeInstances: true}
		pos := baseline.Index(db)
		for _, closed := range []bool{false, true} {
			opts.Full = !closed
			flat, err := iterpattern.Mine(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := baseline.Mine(db, pos, opts, closed)
			if err != nil {
				t.Fatal(err)
			}
			assertPatternResultsEqual(t, "random/closed="+boolName(closed), flat, base)
		}
	}
}

func boolName(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func assertSeqPatternResultsEqual(t *testing.T, label string, got, want *seqpattern.Result) {
	t.Helper()
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Patterns {
		g, w := got.Patterns[i], want.Patterns[i]
		if !g.Pattern.Equal(w.Pattern) || g.SeqSupport != w.SeqSupport {
			t.Fatalf("%s: pattern %d differs: got %v sup=%d want %v sup=%d",
				label, i, g.Pattern, g.SeqSupport, w.Pattern, w.SeqSupport)
		}
	}
	if got.MinSupport != want.MinSupport {
		t.Fatalf("%s: MinSupport %d want %d", label, got.MinSupport, want.MinSupport)
	}
}

// TestSeqPatternMatchesBaseline pins the unified-kernel sequential-pattern
// miner to the seed implementation on Quest synth and tracesim workloads
// plus random databases, full and closed, and asserts byte-identical results
// across worker counts (run under -race in CI).
func TestSeqPatternMatchesBaseline(t *testing.T) {
	check := func(label string, db *seqdb.Database, opts seqpattern.Options) {
		t.Helper()
		want, err := baseline.MineSeqPatterns(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, -1} {
			opts.Workers = workers
			got, err := seqpattern.Mine(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSeqPatternResultsEqual(t, fmt.Sprintf("%s/workers=%d", label, workers), got, want)
		}
	}
	for _, c := range SeqPatternCases() {
		check(c.Name, c.Gen(), c.Opts)
	}
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 20; iter++ {
		db := randomDB(rng, 3+rng.Intn(5), 12, 3+rng.Intn(3))
		opts := seqpattern.Options{MinSeqSupport: 2, ClosedOnly: iter%2 == 0}
		check("random", db, opts)
	}
}

func assertEpisodeResultsEqual(t *testing.T, label string, got, want *episode.Result) {
	t.Helper()
	if len(got.Episodes) != len(want.Episodes) {
		t.Fatalf("%s: %d episodes, want %d", label, len(got.Episodes), len(want.Episodes))
	}
	for i := range want.Episodes {
		g, w := got.Episodes[i], want.Episodes[i]
		if !g.Pattern.Equal(w.Pattern) || g.Windows != w.Windows || g.Frequency != w.Frequency {
			t.Fatalf("%s: episode %d differs: got %v w=%d f=%v want %v w=%d f=%v",
				label, i, g.Pattern, g.Windows, g.Frequency, w.Pattern, w.Windows, w.Frequency)
		}
	}
	if got.TotalWindows != want.TotalWindows {
		t.Fatalf("%s: TotalWindows %d want %d", label, got.TotalWindows, want.TotalWindows)
	}
}

// TestEpisodeMatchesBaseline pins the posting-driven episode miner to the
// seed's window-rescan implementation on tracesim workloads and random
// databases, single-sequence and database-level, across worker counts.
func TestEpisodeMatchesBaseline(t *testing.T) {
	check := func(label string, db *seqdb.Database, opts episode.Options) {
		t.Helper()
		want, err := baseline.MineEpisodeDatabase(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, -1} {
			opts.Workers = workers
			got, err := episode.MineDatabase(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertEpisodeResultsEqual(t, fmt.Sprintf("%s/workers=%d", label, workers), got, want)
		}
	}
	for _, c := range EpisodeCases() {
		if c.Name == "episode-transaction-x50-w6-len3" {
			continue // the seed side alone needs ~300ms; the light cases cover the semantics
		}
		check(c.Name, c.Gen(), c.Opts)
	}
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 15; iter++ {
		db := randomDB(rng, 2+rng.Intn(4), 14, 3+rng.Intn(3))
		opts := episode.Options{WindowWidth: 2 + rng.Intn(4), MinFrequency: 0.05 + rng.Float64()*0.3, MaxEpisodeLength: 1 + rng.Intn(3)}
		check("random", db, opts)
		// Single-sequence Mine against the seed's level-wise pass.
		s := db.Sequences[0]
		want, err := baseline.MineEpisodes(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := episode.Mine(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertEpisodeResultsEqual(t, "random/single", got, want)
	}
}
