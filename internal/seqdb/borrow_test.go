package seqdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestBorrowedIndexMatchesRebuilt: an index assembled by BorrowPositionIndex
// from rows of 1–4 fragments answers every query exactly as
// BuildPositionIndex over the same traces in the same order. Fragments mix
// empty traces, dense and sparse ones, and traces holding the top event id
// numEvents-1; the borrowed subsets are arbitrary (any rows, any order,
// repeats allowed, empty sets included).
func TestBorrowedIndexMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb0770))
	for trial := 0; trial < 200; trial++ {
		numEvents := 1 + rng.Intn(40)
		frags := make([][]Sequence, 1+rng.Intn(4))
		idxs := make([]*PositionIndex, len(frags))
		for f := range frags {
			for n := rng.Intn(12); n > 0; n-- {
				frags[f] = append(frags[f], genBorrowTrace(rng, numEvents))
			}
			idxs[f] = BuildPositionIndex(frags[f], numEvents)
		}
		var sets []RowSet
		for f := range frags {
			if len(frags[f]) == 0 || rng.Intn(4) == 0 {
				sets = append(sets, RowSet{From: idxs[f]})
				continue
			}
			var rows []int32
			for n := rng.Intn(2 * len(frags[f])); n > 0; n-- {
				rows = append(rows, int32(rng.Intn(len(frags[f]))))
			}
			if rng.Intn(2) == 0 {
				slices.Sort(rows)
				rows = slices.Compact(rows)
			}
			sets = append(sets, RowSet{From: idxs[f], Seqs: rows})
		}
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		var seqs []Sequence
		for _, rs := range sets {
			for _, r := range rs.Seqs {
				seqs = append(seqs, frags[slices.Index(idxs, rs.From)][r])
			}
		}
		got := BorrowPositionIndex(numEvents, sets)
		want := BuildPositionIndex(seqs, numEvents)
		requireSameIndex(t, fmt.Sprintf("trial %d", trial), got, want, seqs, rng)
	}
}

// genBorrowTrace draws one trace over [0, numEvents): empty, dense over a
// few events, sparse, or biased toward the top id numEvents-1.
func genBorrowTrace(rng *rand.Rand, numEvents int) Sequence {
	switch rng.Intn(5) {
	case 0:
		return Sequence{}
	case 1:
		s := make(Sequence, 1+rng.Intn(30))
		for i := range s {
			s[i] = EventID(rng.Intn(min(numEvents, 3)))
		}
		return s
	case 2:
		s := make(Sequence, 1+rng.Intn(20))
		for i := range s {
			s[i] = EventID(numEvents - 1 - rng.Intn(min(numEvents, 2)))
		}
		return s
	default:
		s := make(Sequence, 1+rng.Intn(20))
		for i := range s {
			s[i] = EventID(rng.Intn(numEvents))
		}
		return s
	}
}

// requireSameIndex compares every accessor of got against want, whose
// sequences are seqs.
func requireSameIndex(t *testing.T, name string, got, want *PositionIndex, seqs []Sequence, rng *rand.Rand) {
	t.Helper()
	fail := func(what string, g, w any) {
		t.Helper()
		t.Fatalf("%s: %s = %v, rebuilt %v", name, what, g, w)
	}
	if g, w := got.NumEvents(), want.NumEvents(); g != w {
		fail("NumEvents", g, w)
	}
	if g, w := got.NumSequences(), want.NumSequences(); g != w {
		fail("NumSequences", g, w)
	}
	if g, w := got.NumPositions(), want.NumPositions(); g != w {
		fail("NumPositions", g, w)
	}
	n := want.NumEvents()
	for e := EventID(0); int(e) < n; e++ {
		if g, w := got.SeqsContaining(e), want.SeqsContaining(e); !slices.Equal(g, w) {
			fail(fmt.Sprintf("SeqsContaining(%d)", e), g, w)
		}
		if g, w := got.EventSeqSupport(e), want.EventSeqSupport(e); g != w {
			fail(fmt.Sprintf("EventSeqSupport(%d)", e), g, w)
		}
		if g, w := got.EventInstanceCount(e), want.EventInstanceCount(e); g != w {
			fail(fmt.Sprintf("EventInstanceCount(%d)", e), g, w)
		}
	}
	if g := got.EventInstanceCount(EventID(n)); g != 0 {
		fail("EventInstanceCount(numEvents)", g, 0)
	}
	for min := 0; min <= 4; min++ {
		if g, w := got.FrequentEventsByInstanceCount(min), want.FrequentEventsByInstanceCount(min); !slices.Equal(g, w) {
			fail(fmt.Sprintf("FrequentEventsByInstanceCount(%d)", min), g, w)
		}
		if g, w := got.FrequentEventsBySeqSupport(min), want.FrequentEventsBySeqSupport(min); !slices.Equal(g, w) {
			fail(fmt.Sprintf("FrequentEventsBySeqSupport(%d)", min), g, w)
		}
	}
	for si, s := range seqs {
		if g, w := got.SeqEvents(si), want.SeqEvents(si); !slices.Equal(g, w) {
			fail(fmt.Sprintf("SeqEvents(%d)", si), g, w)
		}
		if g, w := got.SeqLastOccurrences(si), want.SeqLastOccurrences(si); !slices.Equal(g, w) {
			fail(fmt.Sprintf("SeqLastOccurrences(%d)", si), g, w)
		}
		for k := range want.SeqEvents(si) {
			if g, w := got.SeqEventPositions(si, k), want.SeqEventPositions(si, k); !slices.Equal(g, w) {
				fail(fmt.Sprintf("SeqEventPositions(%d, %d)", si, k), g, w)
			}
		}
		for e := EventID(0); int(e) <= n; e++ {
			if g, w := got.Positions(si, e), want.Positions(si, e); !slices.Equal(g, w) {
				fail(fmt.Sprintf("Positions(%d, %d)", si, e), g, w)
			}
			if g, w := got.SeqContains(si, e), want.SeqContains(si, e); g != w {
				fail(fmt.Sprintf("SeqContains(%d, %d)", si, e), g, w)
			}
			for from := 0; from <= len(s)+1; from++ {
				if g, w := got.CountFrom(si, e, from), want.CountFrom(si, e, from); g != w {
					fail(fmt.Sprintf("CountFrom(%d, %d, %d)", si, e, from), g, w)
				}
			}
			gc, wc := got.Cursor(si, e), want.Cursor(si, e)
			for from := int32(0); from <= int32(len(s))+1; from += int32(1 + rng.Intn(3)) {
				if g, w := gc.NextAfter(from), wc.NextAfter(from); g != w {
					fail(fmt.Sprintf("Cursor(%d, %d).NextAfter(%d)", si, e, from), g, w)
				}
			}
		}
		for pos := range s {
			for lo := 0; lo <= pos; lo++ {
				if g, w := got.OccursWithin(si, pos, lo), want.OccursWithin(si, pos, lo); g != w {
					fail(fmt.Sprintf("OccursWithin(%d, %d, %d)", si, pos, lo), g, w)
				}
			}
		}
	}
}
