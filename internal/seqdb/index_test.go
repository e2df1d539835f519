package seqdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func randomIndexDB(rng *rand.Rand, numSeqs, maxLen, alphabet int) *Database {
	db := NewDatabase()
	for i := 0; i < alphabet; i++ {
		db.Dict.Intern(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 0; i < numSeqs; i++ {
		n := rng.Intn(maxLen + 1)
		s := make(Sequence, n)
		for j := range s {
			s[j] = EventID(rng.Intn(alphabet))
		}
		db.Append(s)
	}
	return db
}

// mapIndex is the reference the flat index is checked against: for each
// sequence, every event's sorted positions, collected in a map.
func mapIndex(db *Database) []map[EventID][]int {
	out := make([]map[EventID][]int, len(db.Sequences))
	for i, s := range db.Sequences {
		out[i] = make(map[EventID][]int)
		for j, e := range s {
			out[i][e] = append(out[i][e], j)
		}
	}
	return out
}

// mapCounts returns each event's sequence support and instance count,
// counted through mapIndex.
func mapCounts(db *Database) (seqSup, instCnt map[EventID]int) {
	seqSup, instCnt = make(map[EventID]int), make(map[EventID]int)
	for _, m := range mapIndex(db) {
		for e, ps := range m {
			seqSup[e]++
			instCnt[e] += len(ps)
		}
	}
	return seqSup, instCnt
}

// atLeast returns, sorted by id, the events whose count is at least min.
func atLeast(counts map[EventID]int, min int) []EventID {
	var out []EventID
	for e, c := range counts {
		if c >= min {
			out = append(out, e)
		}
	}
	slices.Sort(out)
	return out
}

func TestPositionIndexMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		db := randomIndexDB(rng, 1+rng.Intn(6), 12, 1+rng.Intn(8))
		idx := db.FlatIndex()
		ref := mapIndex(db)
		if idx.NumSequences() != len(db.Sequences) {
			t.Fatalf("NumSequences=%d want %d", idx.NumSequences(), len(db.Sequences))
		}
		for si := range db.Sequences {
			for e := EventID(0); e < EventID(db.Dict.Size()); e++ {
				want := ref[si][e]
				got := idx.Positions(si, e)
				if len(got) != len(want) {
					t.Fatalf("seq %d event %d: positions %v want %v", si, e, got, want)
				}
				for k := range want {
					if int(got[k]) != want[k] {
						t.Fatalf("seq %d event %d: positions %v want %v", si, e, got, want)
					}
				}
			}
		}
	}
}

// TestPositionIndexOccursWithin pins the prev-occurrence chains through
// OccursWithin: the event at position j occurs in [lo, j) exactly when a
// brute-force scan finds it there, for every j and every lo <= j.
func TestPositionIndexOccursWithin(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b", "a", "c", "b", "a")
	idx := db.FlatIndex()
	if !idx.OccursWithin(0, 2, 0) {
		t.Errorf("a at position 2 occurs within [0,2)")
	}
	if idx.OccursWithin(0, 2, 1) {
		t.Errorf("a at position 2 does not occur within [1,2)")
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 30; iter++ {
		db := randomIndexDB(rng, 1+rng.Intn(5), 15, 1+rng.Intn(6))
		idx := db.FlatIndex()
		for si, s := range db.Sequences {
			for j := range s {
				for lo := 0; lo <= j; lo++ {
					want := false
					for k := lo; k < j; k++ {
						if s[k] == s[j] {
							want = true
						}
					}
					if got := idx.OccursWithin(si, j, lo); got != want {
						t.Fatalf("OccursWithin(seq %d, pos %d, lo %d)=%v want %v (s=%v)", si, j, lo, got, want, s)
					}
				}
			}
		}
	}
}

func TestPositionIndexRangeQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		db := randomIndexDB(rng, 3, 15, 5)
		idx := db.FlatIndex()
		for si, s := range db.Sequences {
			for e := EventID(0); e < EventID(db.Dict.Size()); e++ {
				for lo := 0; lo <= len(s)+1; lo++ {
					var want []int32
					for j := lo; j < len(s); j++ {
						if s[j] == e {
							want = append(want, int32(j))
						}
					}
					if got := idx.CountFrom(si, e, lo); got != len(want) {
						t.Fatalf("CountFrom(seq %d, ev %d, %d)=%d want %d", si, e, lo, got, len(want))
					}
					got := idx.PositionsFrom(si, e, lo)
					if len(got) != len(want) {
						t.Fatalf("PositionsFrom(seq %d, ev %d, %d)=%v want %v", si, e, lo, got, want)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("PositionsFrom(seq %d, ev %d, %d)=%v want %v", si, e, lo, got, want)
						}
					}
				}
			}
		}
	}
}

func TestPositionIndexPostingsAndSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 30; iter++ {
		db := randomIndexDB(rng, 1+rng.Intn(8), 10, 1+rng.Intn(6))
		idx := db.FlatIndex()
		seqSup, instCnt := mapCounts(db)
		for e := EventID(0); e < EventID(db.Dict.Size()); e++ {
			if got := idx.EventSeqSupport(e); got != seqSup[e] {
				t.Fatalf("EventSeqSupport(%d)=%d want %d", e, got, seqSup[e])
			}
			if got := idx.EventInstanceCount(e); got != instCnt[e] {
				t.Fatalf("EventInstanceCount(%d)=%d want %d", e, got, instCnt[e])
			}
			seqs := idx.SeqsContaining(e)
			if len(seqs) != seqSup[e] {
				t.Fatalf("SeqsContaining(%d) has %d entries want %d", e, len(seqs), seqSup[e])
			}
			for k, si := range seqs {
				if k > 0 && seqs[k-1] >= si {
					t.Fatalf("SeqsContaining(%d) not strictly increasing: %v", e, seqs)
				}
				if len(idx.Positions(int(si), e)) == 0 {
					t.Fatalf("SeqsContaining(%d) lists seq %d without occurrences", e, si)
				}
			}
		}
		for minSup := 1; minSup <= 4; minSup++ {
			want := atLeast(instCnt, minSup)
			got := idx.FrequentEventsByInstanceCount(minSup)
			if len(got) != len(want) {
				t.Fatalf("FrequentEventsByInstanceCount(%d)=%v want %v", minSup, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("FrequentEventsByInstanceCount(%d)=%v want %v", minSup, got, want)
				}
			}
			wantSeq := atLeast(seqSup, minSup)
			gotSeq := idx.FrequentEventsBySeqSupport(minSup)
			if len(gotSeq) != len(wantSeq) {
				t.Fatalf("FrequentEventsBySeqSupport(%d)=%v want %v", minSup, gotSeq, wantSeq)
			}
			for k := range wantSeq {
				if gotSeq[k] != wantSeq[k] {
					t.Fatalf("FrequentEventsBySeqSupport(%d)=%v want %v", minSup, gotSeq, wantSeq)
				}
			}
		}
	}
}

// TestPositionIndexSeqProbes pins the presence probe SeqContains against a
// brute-force scan; out-of-range ids read as absent.
func TestPositionIndexSeqProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 30; iter++ {
		db := randomIndexDB(rng, 1+rng.Intn(8), 10, 1+rng.Intn(6))
		idx := db.FlatIndex()
		for s, seq := range db.Sequences {
			for e := EventID(0); e < EventID(db.Dict.Size()); e++ {
				want := false
				for _, ev := range seq {
					if ev == e {
						want = true
						break
					}
				}
				if got := idx.SeqContains(s, e); got != want {
					t.Fatalf("SeqContains(%d, %d)=%v want %v", s, e, got, want)
				}
			}
			if idx.SeqContains(s, EventID(db.Dict.Size())) || idx.SeqContains(s, -1) {
				t.Fatalf("SeqContains out-of-range id reported present in seq %d", s)
			}
		}
	}
}

// indexDiff compares two indexes through their public probes — the shape,
// every (sequence, event) position list, and the per-event postings counts —
// and describes the first difference, or returns "" when they agree.
func indexDiff(got, want *PositionIndex) string {
	if got.NumSequences() != want.NumSequences() || got.NumEvents() != want.NumEvents() || got.NumPositions() != want.NumPositions() {
		return fmt.Sprintf("shape (%d seqs, %d events, %d positions) want (%d, %d, %d)",
			got.NumSequences(), got.NumEvents(), got.NumPositions(), want.NumSequences(), want.NumEvents(), want.NumPositions())
	}
	for e := EventID(0); int(e) < want.NumEvents(); e++ {
		if got.EventInstanceCount(e) != want.EventInstanceCount(e) || got.EventSeqSupport(e) != want.EventSeqSupport(e) {
			return fmt.Sprintf("event %d counts differ", e)
		}
		for s := 0; s < want.NumSequences(); s++ {
			g, w := got.Positions(s, e), want.Positions(s, e)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				return fmt.Sprintf("seq %d event %d positions %v want %v", s, e, g, w)
			}
		}
	}
	return ""
}

// TestFlatIndexCacheInvalidation: FlatIndex is cached until an Append, after
// which it equals a fresh build over all sequences, while an index obtained
// before the Append still answers for the old prefix.
func TestFlatIndexCacheInvalidation(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b")
	db.AppendNames("b", "b", "a")
	idx1 := db.FlatIndex()
	if idx1 != db.FlatIndex() {
		t.Errorf("FlatIndex not cached")
	}
	old := append([]Sequence(nil), db.Sequences...)
	db.AppendNames("c", "a")
	idx2 := db.FlatIndex()
	if idx2 == idx1 {
		t.Fatal("FlatIndex served the pre-Append index")
	}
	if d := indexDiff(idx2, BuildPositionIndex(db.Sequences, db.Dict.Size())); d != "" {
		t.Fatalf("after Append: %s", d)
	}
	if d := indexDiff(idx1, BuildPositionIndex(old, 2)); d != "" {
		t.Fatalf("pre-Append index: %s", d)
	}
	if idx1.SeqContains(0, db.Dict.Lookup("c")) || idx1.EventInstanceCount(db.Dict.Lookup("c")) != 0 {
		t.Error("pre-Append index sees the appended event")
	}
}

// TestFlatIndexStableWhileDatabaseGrows: readers of an index obtained from
// FlatIndex run concurrently with a writer that keeps appending and
// rebuilding; -race proves the writer never touches the index they hold.
func TestFlatIndexStableWhileDatabaseGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := randomIndexDB(rng, 20, 30, 8)
	idx := db.FlatIndex()
	want := BuildPositionIndex(append([]Sequence(nil), db.Sequences...), db.Dict.Size())
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if d := indexDiff(idx, want); d != "" {
					t.Errorf("shared index: %s", d)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		s := make(Sequence, 1+rng.Intn(30))
		for j := range s {
			s[j] = EventID(rng.Intn(8))
		}
		db.Append(s)
		db.FlatIndex()
	}
	wg.Wait()
	if d := indexDiff(db.FlatIndex(), BuildPositionIndex(db.Sequences, db.Dict.Size())); d != "" {
		t.Fatalf("grown database: %s", d)
	}
}

// TestSnapshotViewCopiesHeaders: a SnapshotView keeps the sequences it was
// taken over while the original keeps appending, shares the dictionary, and
// builds its own index over exactly those sequences.
func TestSnapshotViewCopiesHeaders(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b", "a")
	db.AppendNames("b")
	db.FlatIndex()
	view := db.SnapshotView()
	db.AppendNames("c", "a")
	if view.Dict != db.Dict {
		t.Fatal("view does not share the dictionary")
	}
	if view.NumSequences() != 2 || db.NumSequences() != 3 {
		t.Fatalf("view has %d sequences, original %d; want 2 and 3", view.NumSequences(), db.NumSequences())
	}
	if d := indexDiff(view.FlatIndex(), BuildPositionIndex(db.Sequences[:2], db.Dict.Size())); d != "" {
		t.Fatalf("view index: %s", d)
	}
	if d := indexDiff(db.FlatIndex(), BuildPositionIndex(db.Sequences, db.Dict.Size())); d != "" {
		t.Fatalf("original index: %s", d)
	}
}

// TestFlatIndexRebuildsAfterDirectAssignment: code that extends Sequences
// directly instead of calling Append (merging shard views, assembling a
// recovered store) still gets an index over every sequence.
func TestFlatIndexRebuildsAfterDirectAssignment(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b")
	stale := db.FlatIndex()
	other := NewDatabaseWithDict(db.Dict)
	other.AppendNames("b", "c", "b")
	db.Sequences = append(db.Sequences, other.Sequences...)
	idx := db.FlatIndex()
	if idx == stale {
		t.Fatal("FlatIndex served an index that misses the assigned sequences")
	}
	if d := indexDiff(idx, BuildPositionIndex(db.Sequences, db.Dict.Size())); d != "" {
		t.Fatalf("after direct assignment: %s", d)
	}
}
