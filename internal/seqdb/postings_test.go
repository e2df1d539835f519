package seqdb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Randomized equivalence tests for the postings probes — SeqEvents,
// SeqLastOccurrences, SeqEventPositions, Positions, PositionsFrom, CountFrom,
// SeqContains and the galloping PosCursor — against brute-force linear scans
// of the raw sequences. The generator sweeps trace shapes with very different
// position-list profiles: dense traces over a tiny alphabet, sparse ones whose
// lists hold a handful of entries, and run-heavy ones whose long single-event
// runs produce maximally skewed lists.

// oracleNext is the reference next-occurrence probe: first position >= from
// holding e, or -1.
func oracleNext(s Sequence, e EventID, from int) int32 {
	for p := max(from, 0); p < len(s); p++ {
		if s[p] == e {
			return int32(p)
		}
	}
	return -1
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// genShape builds one random sequence of the named shape.
func genShape(rng *rand.Rand, shape string, seqLen, alphabet int) Sequence {
	s := make(Sequence, seqLen)
	switch shape {
	case "dense":
		// Tiny alphabet: every event occurs at a large share of positions.
		for i := range s {
			s[i] = EventID(rng.Intn(min(alphabet, 4)))
		}
	case "sparse":
		// Alphabet on the order of the sequence length: counts stay low.
		for i := range s {
			s[i] = EventID(rng.Intn(alphabet))
		}
	case "runs":
		// Geometric runs of one event: position lists are contiguous blocks,
		// the worst case for galloping (long in-run O(1) stretches followed
		// by large jumps) and a mix of dense and sparse events.
		i := 0
		for i < len(s) {
			e := EventID(rng.Intn(alphabet))
			run := 1 + rng.Intn(24)
			for ; run > 0 && i < len(s); run, i = run-1, i+1 {
				s[i] = e
			}
		}
	default:
		panic("unknown shape " + shape)
	}
	return s
}

func TestPostingsRandomizedVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for _, shape := range []string{"dense", "sparse", "runs"} {
		for trial := 0; trial < 20; trial++ {
			seqLen := 1 + rng.Intn(300)
			alphabet := 2 + rng.Intn(64)
			db := NewDatabase()
			var seqs []Sequence
			for n := 1 + rng.Intn(4); n > 0; n-- {
				s := genShape(rng, shape, seqLen, alphabet)
				seqs = append(seqs, s)
				db.Append(s)
			}
			idx := db.FlatIndex()
			name := fmt.Sprintf("%s/trial=%d", shape, trial)
			for si, s := range seqs {
				// The distinct-event lists: every event of s exactly once, in
				// increasing id order (SeqEvents) and latest last occurrence
				// first (SeqLastOccurrences), whose ranks address each event's
				// full position list (SeqEventPositions).
				var distinct []EventID
				var lasts []LastOccurrence
				for e := EventID(0); e <= EventID(alphabet+1); e++ {
					for p := len(s) - 1; p >= 0; p-- {
						if s[p] == e {
							lasts = append(lasts, LastOccurrence{Pos: int32(p), Rank: int32(len(distinct))})
							distinct = append(distinct, e)
							break
						}
					}
				}
				sort.Slice(lasts, func(a, b int) bool { return lasts[a].Pos > lasts[b].Pos })
				if got := idx.SeqEvents(si); fmt.Sprint(got) != fmt.Sprint(distinct) {
					t.Fatalf("%s: SeqEvents(s=%d) = %v, oracle %v", name, si, got, distinct)
				}
				if got := idx.SeqLastOccurrences(si); fmt.Sprint(got) != fmt.Sprint(lasts) {
					t.Fatalf("%s: SeqLastOccurrences(s=%d) = %v, oracle %v", name, si, got, lasts)
				}
				for k, e := range distinct {
					var all []int32
					for p, ev := range s {
						if ev == e {
							all = append(all, int32(p))
						}
					}
					if got := idx.SeqEventPositions(si, k); fmt.Sprint(got) != fmt.Sprint(all) {
						t.Fatalf("%s: SeqEventPositions(s=%d, k=%d) = %v, oracle %v (event %d)", name, si, k, got, all, e)
					}
				}
				// Probe every event id of the alphabet (most absent from a
				// sparse trace) plus one beyond it, across every
				// boundary-adjacent from value.
				for e := EventID(0); e <= EventID(alphabet+1); e++ {
					var all []int32
					for p, ev := range s {
						if ev == e {
							all = append(all, int32(p))
						}
					}
					if got := idx.Positions(si, e); fmt.Sprint(got) != fmt.Sprint(all) {
						t.Fatalf("%s: Positions(s=%d, e=%d) = %v, oracle %v", name, si, e, got, all)
					}
					if got, want := idx.SeqContains(si, e), len(all) > 0; got != want {
						t.Fatalf("%s: SeqContains(s=%d, e=%d) = %v, oracle %v", name, si, e, got, want)
					}
					for from := 0; from <= len(s)+2; from++ {
						want := all
						for len(want) > 0 && want[0] < int32(from) {
							want = want[1:]
						}
						if got := idx.PositionsFrom(si, e, from); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s: PositionsFrom(s=%d, e=%d, from=%d) = %v, oracle %v", name, si, e, from, got, want)
						}
						if got := idx.CountFrom(si, e, from); got != len(want) {
							t.Fatalf("%s: CountFrom(s=%d, e=%d, from=%d) = %d, oracle %d", name, si, e, from, got, len(want))
						}
					}
				}
			}
		}
	}
}

// TestPostingsCursorMonotone drives PosCursor with random non-decreasing
// probe sequences and checks every answer against the brute-force
// oracleNext, covering the cursor's O(1) next-entry fast path, gallop
// brackets of every size, and exhaustion.
func TestPostingsCursorMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0ffee))
	for _, shape := range []string{"dense", "sparse", "runs"} {
		for trial := 0; trial < 30; trial++ {
			seqLen := 1 + rng.Intn(400)
			alphabet := 2 + rng.Intn(32)
			s := genShape(rng, shape, seqLen, alphabet)
			db := NewDatabase()
			db.Append(s)
			idx := db.FlatIndex()
			for _, e := range idx.SeqEvents(0) {
				cur := idx.Cursor(0, e)
				from := int32(0)
				if rng.Intn(4) == 0 {
					from = -int32(rng.Intn(3)) // negative starts are legal
				}
				for from <= int32(seqLen)+1 {
					got := cur.NextAfter(from)
					want := oracleNext(s, e, int(from))
					if got != want {
						t.Fatalf("%s/trial=%d: cursor NextAfter(%d) on e=%d = %d, oracle %d", shape, trial, from, e, got, want)
					}
					// Advance by a mixed step distribution: mostly small (the
					// O(1) path), occasionally large (forcing a gallop).
					if rng.Intn(5) == 0 {
						from += int32(rng.Intn(seqLen + 1))
					} else {
						from += int32(rng.Intn(4))
					}
					if rng.Intn(3) == 0 && got >= 0 {
						from = max32(from, got+1) // the miners' "past this match" probe
					}
				}
			}
		}
	}
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
