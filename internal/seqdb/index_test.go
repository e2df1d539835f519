package seqdb

import (
	"math/rand"
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

func TestPositionIndexMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		db := randomIndexDB(rng, 1+rng.Intn(6), 12, 1+rng.Intn(8))
		idx := db.FlatIndex()
		legacy := db.Index()
		if idx.NumSequences() != len(db.Sequences) {
			t.Fatalf("NumSequences=%d want %d", idx.NumSequences(), len(db.Sequences))
		}
		for si := range db.Sequences {
			for e := EventID(0); e < EventID(db.Dict.Size()); e++ {
				want := legacy[si][e]
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

func TestPositionIndexPrevOccurrence(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b", "a", "c", "b", "a")
	idx := db.FlatIndex()
	want := []int32{-1, -1, 0, -1, 1, 2}
	for j, w := range want {
		if got := idx.PrevOccurrence(0, j); got != w {
			t.Errorf("PrevOccurrence(0,%d)=%d want %d", j, got, w)
		}
	}
	if !idx.OccursWithin(0, 2, 0) {
		t.Errorf("a at position 2 occurs within [0,2)")
	}
	if idx.OccursWithin(0, 2, 1) {
		t.Errorf("a at position 2 does not occur within [1,2)")
	}
}

func TestPositionIndexRangeQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		db := randomIndexDB(rng, 3, 15, 5)
		idx := db.FlatIndex()
		for si, s := range db.Sequences {
			for e := EventID(0); e < EventID(db.Dict.Size()); e++ {
				for lo := 0; lo <= len(s); lo++ {
					for hi := lo; hi <= len(s); hi++ {
						want := 0
						for j := lo; j < hi; j++ {
							if s[j] == e {
								want++
							}
						}
						if got := idx.CountInRange(si, e, lo, hi); got != want {
							t.Fatalf("CountInRange(seq %d, ev %d, %d, %d)=%d want %d (s=%v)", si, e, lo, hi, got, want, s)
						}
					}
					wantFrom := 0
					wantNext := int32(-1)
					for j := len(s) - 1; j >= lo; j-- {
						if s[j] == e {
							wantFrom++
							wantNext = int32(j)
						}
					}
					if got := idx.CountFrom(si, e, lo); got != wantFrom {
						t.Fatalf("CountFrom(seq %d, ev %d, %d)=%d want %d", si, e, lo, got, wantFrom)
					}
					if got := idx.NextAfter(si, e, lo); got != wantNext {
						t.Fatalf("NextAfter(seq %d, ev %d, %d)=%d want %d", si, e, lo, got, wantNext)
					}
					wantPrev := int32(-1)
					for j := 0; j < lo; j++ {
						if s[j] == e {
							wantPrev = int32(j)
						}
					}
					if got := idx.PrevBefore(si, e, lo); got != wantPrev {
						t.Fatalf("PrevBefore(seq %d, ev %d, %d)=%d want %d", si, e, lo, got, wantPrev)
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
		seqSup := db.EventSupport()
		instCnt := db.EventInstanceCount()
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
			want := db.FrequentEventsByInstances(minSup)
			got := idx.FrequentEventsByInstanceCount(minSup)
			if len(got) != len(want) {
				t.Fatalf("FrequentEventsByInstanceCount(%d)=%v want %v", minSup, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("FrequentEventsByInstanceCount(%d)=%v want %v", minSup, got, want)
				}
			}
			wantSeq := db.FrequentEvents(minSup)
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

// TestPositionIndexSeqProbes pins the presence probes: SeqContains
// against a brute-force scan (out-of-range ids read as absent) and SeqLen
// against the raw sequences.
func TestPositionIndexSeqProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 30; iter++ {
		db := randomIndexDB(rng, 1+rng.Intn(8), 10, 1+rng.Intn(6))
		idx := db.FlatIndex()
		for s, seq := range db.Sequences {
			if got := idx.SeqLen(s); got != len(seq) {
				t.Fatalf("SeqLen(%d)=%d want %d", s, got, len(seq))
			}
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

func TestFlatIndexCacheInvalidation(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b")
	idx1 := db.FlatIndex()
	if idx1 != db.FlatIndex() {
		t.Errorf("FlatIndex not cached")
	}
	if idx1.Version() != 0 {
		t.Errorf("fresh index version %d want 0", idx1.Version())
	}
	db.AppendNames("c")
	idx2 := db.FlatIndex()
	if idx2.Version() == 0 {
		t.Errorf("appending did not bump the index version")
	}
	if idx2.NumSequences() != 2 {
		t.Errorf("extended index has %d sequences want 2", idx2.NumSequences())
	}
	if got := idx2.Positions(1, db.Dict.Lookup("c")); len(got) != 1 || got[0] != 0 {
		t.Errorf("extended index misses the appended sequence: %v", got)
	}
}
