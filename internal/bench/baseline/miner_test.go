package baseline

import (
	"math/rand"
	"reflect"
	"testing"

	"specmine/internal/seqdb"
)

// randomDB builds n sequences of up to maxLen events over an alphabet of k.
func randomDB(rng *rand.Rand, n, maxLen, k int) *seqdb.Database {
	db := seqdb.NewDatabase()
	for i := 0; i < n; i++ {
		names := make([]string, rng.Intn(maxLen+1))
		for j := range names {
			names[j] = string(rune('a' + rng.Intn(k)))
		}
		db.AppendNames(names...)
	}
	return db
}

func TestCountInRange(t *testing.T) {
	pos := []int{2, 5, 9, 14}
	if got := countInRange(pos, 3, 10); got != 2 {
		t.Errorf("countInRange(3,10)=%d want 2", got)
	}
	if got := countInRange(pos, 0, 100); got != 4 {
		t.Errorf("countInRange(0,100)=%d want 4", got)
	}
	if got := countInRange(pos, 10, 3); got != 0 {
		t.Errorf("countInRange(10,3)=%d want 0", got)
	}
}

func TestIndex(t *testing.T) {
	db := seqdb.NewDatabase()
	db.AppendNames("a", "b", "a")
	a := db.Dict.Lookup("a")
	pos := Index(db)
	if !reflect.DeepEqual(pos[0][a], []int{0, 2}) {
		t.Errorf("index positions for a: %v", pos[0][a])
	}
	db.AppendNames("a")
	pos = Index(db)
	if len(pos) != 2 || !reflect.DeepEqual(pos[1][a], []int{0}) {
		t.Errorf("index after append: %v", pos)
	}
}

// TestIndexMatchesFlatIndex checks that the seed's map index lists the same
// positions as the flat index, so both miners search the same occurrences.
func TestIndexMatchesFlatIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		db := randomDB(rng, 1+rng.Intn(6), 12, 1+rng.Intn(8))
		pos, flat := Index(db), db.FlatIndex()
		if len(pos) != flat.NumSequences() {
			t.Fatalf("%d sequences want %d", len(pos), flat.NumSequences())
		}
		for si := range db.Sequences {
			for e := seqdb.EventID(0); e < seqdb.EventID(db.Dict.Size()); e++ {
				want := flat.Positions(si, e)
				got := pos[si][e]
				if len(got) != len(want) {
					t.Fatalf("seq %d event %d: positions %v want %v", si, e, got, want)
				}
				for k := range want {
					if got[k] != int(want[k]) {
						t.Fatalf("seq %d event %d: positions %v want %v", si, e, got, want)
					}
				}
			}
		}
	}
}

// TestSingleEventSupports checks the miner's own instance count (its apriori
// base case) against the flat index: every single-event pattern is mined
// exactly when its instance count reaches the threshold, with that count as
// its support and the event's sequence support as its sequence support.
func TestSingleEventSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 30; iter++ {
		db := randomDB(rng, 1+rng.Intn(6), 12, 1+rng.Intn(8))
		minSup := 1 + rng.Intn(4)
		res, err := MineFull(db, Index(db), Options{MinInstanceSupport: minSup, MaxPatternLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		flat := db.FlatIndex()
		want := flat.FrequentEventsByInstanceCount(minSup)
		if len(res.Patterns) != len(want) {
			t.Fatalf("minSup %d: %d patterns want %d", minSup, len(res.Patterns), len(want))
		}
		got := make(map[seqdb.EventID]MinedPattern, len(res.Patterns))
		for _, p := range res.Patterns {
			got[p.Pattern[0]] = p
		}
		for _, e := range want {
			p, ok := got[e]
			if !ok {
				t.Fatalf("minSup %d: event %d not mined", minSup, e)
			}
			if p.Support != flat.EventInstanceCount(e) || p.SeqSupport != flat.EventSeqSupport(e) {
				t.Errorf("event %d: support %d/%d want %d/%d", e, p.Support, p.SeqSupport,
					flat.EventInstanceCount(e), flat.EventSeqSupport(e))
			}
		}
	}
}
