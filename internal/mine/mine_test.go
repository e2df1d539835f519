package mine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"specmine/internal/seqdb"
)

func TestForSeedsDeterministicMerge(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		out := ForSeeds(20, workers, func() int { return 0 }, func(_ int, seed int) int {
			return seed * seed
		})
		if len(out) != 20 {
			t.Fatalf("workers=%d: %d outputs", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

// TestResidentIsWholeDatabase: a resident database hands every seed the
// whole database and its flat index under the identity id map.
func TestResidentIsWholeDatabase(t *testing.T) {
	db := seqdb.NewDatabase()
	db.AppendNames("a", "b", "a")
	db.AppendNames("b")
	db.AppendNames("a", "c")
	src := Resident(db)
	if src.NumSequences() != 3 || src.NumEvents() != db.FlatIndex().NumEvents() {
		t.Fatalf("sizes: %d sequences, %d events", src.NumSequences(), src.NumEvents())
	}
	a, b := db.Dict.Lookup("a"), db.Dict.Lookup("b")
	if got := src.FrequentByInstanceCount(3); len(got) != 1 || got[0] != a {
		t.Fatalf("FrequentByInstanceCount(3) = %v, want [a]", got)
	}
	if got := src.FrequentBySeqSupport(2); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("FrequentBySeqSupport(2) = %v, want [a b]", got)
	}
	sv, err := src.AcquireSeed(b)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Release()
	if sv.DB != db || sv.Idx != db.FlatIndex() || sv.Global != nil {
		t.Fatal("resident view is not the whole database under the identity map")
	}
}

// TestResidentEmptyDatabase: a resident database with no traces has no
// frequent events and still hands out a valid (empty) view.
func TestResidentEmptyDatabase(t *testing.T) {
	src := Resident(seqdb.NewDatabase())
	if src.NumSequences() != 0 || src.NumEvents() != 0 {
		t.Fatalf("sizes: %d sequences, %d events", src.NumSequences(), src.NumEvents())
	}
	if got := src.FrequentByInstanceCount(1); len(got) != 0 {
		t.Fatalf("FrequentByInstanceCount(1) = %v, want none", got)
	}
	if got := src.FrequentBySeqSupport(1); len(got) != 0 {
		t.Fatalf("FrequentBySeqSupport(1) = %v, want none", got)
	}
	sv, err := src.AcquireSeed(0)
	if err != nil {
		t.Fatal(err)
	}
	if sv.DB.NumSequences() != 0 || sv.Idx.NumSequences() != 0 || sv.Global != nil {
		t.Fatal("empty resident view is not empty under the identity map")
	}
	sv.Release()
}

func TestArenaRecycles(t *testing.T) {
	var a Arena[int]
	s := a.GetN(8)
	if len(s) != 8 {
		t.Fatalf("GetN(8) len=%d", len(s))
	}
	s[0] = 42
	a.Put(s)
	r := a.GetN(4)
	if cap(r) < 8 {
		t.Errorf("recycled capacity %d, want >= 8", cap(r))
	}
	// Too-large requests fall back to allocation.
	big := a.GetN(16)
	if len(big) != 16 {
		t.Fatalf("GetN(16) len=%d", len(big))
	}
	a.Put(nil) // must be a no-op
	if g := a.Get(); g != nil && len(g) != 0 {
		t.Errorf("Get returned non-empty slice")
	}
}

func TestStampSet(t *testing.T) {
	s := NewStampSet(4)
	s.Begin()
	if s.Contains(2) {
		t.Errorf("fresh set contains 2")
	}
	if !s.TestAndSet(2) {
		t.Errorf("first TestAndSet(2) = false")
	}
	if s.TestAndSet(2) {
		t.Errorf("second TestAndSet(2) = true")
	}
	s.Add(1)
	if !s.Contains(1) || !s.Contains(2) || s.Contains(0) {
		t.Errorf("membership wrong: %v %v %v", s.Contains(1), s.Contains(2), s.Contains(0))
	}
	s.Begin()
	if s.Contains(1) || s.Contains(2) {
		t.Errorf("Begin did not clear the set")
	}
}

// bruteExtensions reproduces the counting semantics directly: for every
// event, the projection entries whose suffix contains it, in entry order,
// positioned at the first occurrence.
func bruteExtensions(seqs []seqdb.Sequence, proj []Proj) map[seqdb.EventID][]Proj {
	out := make(map[seqdb.EventID][]Proj)
	for _, pr := range proj {
		s := seqs[pr.Seq]
		seen := make(map[seqdb.EventID]bool)
		for j := int(pr.Pos) + 1; j < len(s); j++ {
			if seen[s[j]] {
				continue
			}
			seen[s[j]] = true
			out[s[j]] = append(out[s[j]], Proj{Seq: pr.Seq, Pos: int32(j)})
		}
	}
	return out
}

// randomProj draws a projection with several entries per sequence: runs on
// one sequence that stay put (ties) or move forward, a backward step that
// must start a new group, entries at Pos -1 (nothing matched yet), returns
// to a sequence seen earlier, and single entries on a fresh sequence.
func randomProj(rng *rand.Rand, seqs []seqdb.Sequence) []Proj {
	randPos := func(si int32) int32 { return int32(rng.Intn(len(seqs[si])+1)) - 1 }
	var proj []Proj
	for n := rng.Intn(14); n > 0; n-- {
		var pr Proj
		if k := len(proj); k == 0 || rng.Intn(4) == 0 {
			pr.Seq = int32(rng.Intn(len(seqs)))
			pr.Pos = randPos(pr.Seq)
		} else {
			prev := proj[k-1]
			pr.Seq = prev.Seq
			switch rng.Intn(4) {
			case 0: // tie
				pr.Pos = prev.Pos
			case 1: // step back, by one or more
				pr.Pos = prev.Pos - 1 - int32(rng.Intn(3))
				if pr.Pos < -1 {
					pr.Pos = -1
				}
			default: // forward
				pr.Pos = prev.Pos + int32(rng.Intn(len(seqs[pr.Seq])-int(prev.Pos)))
			}
		}
		proj = append(proj, pr)
	}
	return proj
}

// runPass runs the counts-only pass (Counts) or the materialising one
// (Extensions) with threshold min.
func runPass(x *Extender, proj []Proj, min int32, countsOnly bool) ExtSet {
	if countsOnly {
		return x.Counts(proj, min)
	}
	return x.Extensions(proj, min)
}

// checkAgainstBrute compares one Extensions or Counts pass against
// bruteExtensions: the same events in increasing order, the same counts,
// and — for every extension reaching min — the i-support recount and either
// no projection (counts-only pass) or the same entries in entry order.
func checkAgainstBrute(t *testing.T, what string, seqs []seqdb.Sequence, idx *seqdb.PositionIndex, proj []Proj, min int32, countsOnly bool, es ExtSet) {
	t.Helper()
	want := bruteExtensions(seqs, proj)
	if len(es.Exts) != len(want) {
		t.Fatalf("%s: %d extensions, want %d (proj %+v)", what, len(es.Exts), len(want), proj)
	}
	prev := seqdb.EventID(-1)
	for _, e := range es.Exts {
		if e.Event <= prev {
			t.Fatalf("%s: extensions not sorted by event", what)
		}
		prev = e.Event
		w := want[e.Event]
		if int(e.Count) != len(w) {
			t.Fatalf("%s: event %d count %d want %d (proj %+v, seqs %v)", what, e.Event, e.Count, len(w), proj, seqs)
		}
		if e.Count < min {
			if e.Proj != nil || e.ISup != 0 {
				t.Fatalf("%s: event %d below threshold but materialised", what, e.Event)
			}
			continue
		}
		isup := 0
		for k := range w {
			if k == 0 || w[k-1].Seq != w[k].Seq {
				isup += idx.CountFrom(int(w[k].Seq), e.Event, int(w[k].Pos))
			}
		}
		if int(e.ISup) != isup {
			t.Fatalf("%s: event %d ISup %d, recount %d (counts-only %v, proj %+v)", what, e.Event, e.ISup, isup, countsOnly, proj)
		}
		if countsOnly {
			if e.Proj != nil {
				t.Fatalf("%s: event %d materialised %d entries in the counts-only pass", what, e.Event, len(e.Proj))
			}
			continue
		}
		if len(e.Proj) != len(w) {
			t.Fatalf("%s: event %d materialised %d entries want %d", what, e.Event, len(e.Proj), len(w))
		}
		for k := range w {
			if e.Proj[k] != w[k] {
				t.Fatalf("%s: event %d entry %d = %+v want %+v (proj %+v)", what, e.Event, k, e.Proj[k], w[k], proj)
			}
		}
	}
}

// passesAgree checks that a counts-only and a materialising pass over the
// same projection and threshold give every event the same Count and ISup.
func passesAgree(t *testing.T, what string, counts, exts ExtSet) {
	t.Helper()
	if len(counts.Exts) != len(exts.Exts) {
		t.Fatalf("%s: counts-only pass has %d extensions, materialising pass %d", what, len(counts.Exts), len(exts.Exts))
	}
	for i, c := range counts.Exts {
		e := exts.Exts[i]
		if c.Event != e.Event || c.Count != e.Count || c.ISup != e.ISup {
			t.Fatalf("%s: counts-only pass gives %+v, materialising pass event %d count %d ISup %d", what, c, e.Event, e.Count, e.ISup)
		}
	}
}

// longTraces draws traces of 220-400 events. Event 0 fills every even
// position, so its position list holds over 100 entries and the next
// occurrence after an entry is one, two or many list slots on as the
// entries step by two, four or over a hundred positions. The odd positions
// draw from an alphabet that narrows along the trace, so the rarer events' last
// occurrences spread over the whole trace and the counting cursor steps back
// past group entries throughout the walk.
func longTraces(rng *rand.Rand, numSeqs, alphabet int) []seqdb.Sequence {
	seqs := make([]seqdb.Sequence, numSeqs)
	for i := range seqs {
		s := make(seqdb.Sequence, 220+rng.Intn(181))
		for k := 1; k < len(s); k += 2 {
			s[k] = seqdb.EventID(1 + rng.Intn(max(2, (alphabet-1)*(len(s)-k)/len(s))))
		}
		seqs[i] = s
	}
	return seqs
}

// longGroups draws a projection over long traces: on each of a few traces,
// one or two groups of 32-48 non-decreasing entries (ties, steps of one to
// four positions, and jumps of 130-160 positions while they fit), the second
// group starting over behind the first; between them, single entries on
// other traces and entries at -1.
func longGroups(rng *rand.Rand, seqs []seqdb.Sequence) []Proj {
	var proj []Proj
	for g := 2 + rng.Intn(4); g > 0; g-- {
		si := int32(rng.Intn(len(seqs)))
		n := int32(len(seqs[si]))
		for run := 1 + rng.Intn(2); run > 0; run-- {
			pos := int32(rng.Intn(20)) - 1
			for k := 32 + rng.Intn(17); k > 0; k-- {
				proj = append(proj, Proj{Seq: si, Pos: pos})
				step := int32(rng.Intn(5))
				if rng.Intn(12) == 0 {
					step = 130 + int32(rng.Intn(31))
				}
				if pos+step < n {
					pos += step
				}
			}
		}
		if rng.Intn(2) == 0 {
			sj := int32(rng.Intn(len(seqs)))
			proj = append(proj, Proj{Seq: sj, Pos: int32(rng.Intn(len(seqs[sj])+1)) - 1})
		}
	}
	return proj
}

func TestExtenderAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		numSeqs := 1 + rng.Intn(5)
		alphabet := 2 + rng.Intn(4)
		seqs := make([]seqdb.Sequence, numSeqs)
		for i := range seqs {
			n := 1 + rng.Intn(12)
			s := make(seqdb.Sequence, n)
			for j := range s {
				s[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			seqs[i] = s
		}
		idx := seqdb.BuildPositionIndex(seqs, alphabet)
		x := NewExtender(idx)

		proj := randomProj(rng, seqs)
		min := int32(1 + rng.Intn(3))
		// Alternate the counts-only and the materialising pass: the rule and
		// sequential-pattern miners take the first where a node's children
		// are leaves, the second everywhere else.
		countsOnly := iter%2 == 1
		es := runPass(x, proj, min, countsOnly)
		checkAgainstBrute(t, fmt.Sprintf("iter %d", iter), seqs, idx, proj, min, countsOnly, es)
		x.Release(es)
	}

	// At scale: position lists beyond 64 entries, groups of 32 or more
	// entries on one trace, and merges whose next occurrence lies one, two
	// or more than 64 slots on, so the counting cursor steps many times per
	// group and the merge gallops through several doublings.
	for iter := 0; iter < 60; iter++ {
		alphabet := 6 + rng.Intn(6)
		seqs := longTraces(rng, 1+rng.Intn(4), alphabet)
		idx := seqdb.BuildPositionIndex(seqs, alphabet)
		x := NewExtender(idx)
		for pass := 0; pass < 2; pass++ {
			proj := longGroups(rng, seqs)
			countsOnly := pass == 1
			min := []int32{1, 2, 40, 90}[rng.Intn(4)]
			es := runPass(x, proj, min, countsOnly)
			checkAgainstBrute(t, fmt.Sprintf("long iter %d pass %d", iter, pass), seqs, idx, proj, min, countsOnly, es)
			x.Release(es)
		}
	}
}

func TestSeedProj(t *testing.T) {
	seqs := []seqdb.Sequence{
		{0, 1, 0, 2},
		{2, 2, 1},
		{1, 0},
	}
	idx := seqdb.BuildPositionIndex(seqs, 3)
	x := NewExtender(idx)
	proj := x.SeedProj(2)
	want := []Proj{{Seq: 0, Pos: 3}, {Seq: 1, Pos: 0}}
	if len(proj) != len(want) {
		t.Fatalf("SeedProj(2): %+v want %+v", proj, want)
	}
	for i := range want {
		if proj[i] != want[i] {
			t.Fatalf("SeedProj(2)[%d] = %+v want %+v", i, proj[i], want[i])
		}
	}
	x.ReleaseProj(proj)
}

// randomIndex draws numSeqs sequences of 1..maxLen events over the given
// alphabet and indexes them over an event space of numEvents ids.
func randomIndex(rng *rand.Rand, numSeqs, maxLen, alphabet, numEvents int) ([]seqdb.Sequence, *seqdb.PositionIndex) {
	seqs := make([]seqdb.Sequence, numSeqs)
	for i := range seqs {
		s := make(seqdb.Sequence, 1+rng.Intn(maxLen))
		for j := range s {
			s[j] = seqdb.EventID(rng.Intn(alphabet))
		}
		seqs[i] = s
	}
	return seqs, seqdb.BuildPositionIndex(seqs, numEvents)
}

// TestExtenderISupMatchesRecount: every materialised extension's ISup equals
// the recount the rule miner would otherwise make — the occurrences of the
// event at or after the first entry of each sequence's run in the
// extension's projection — and the counts-only pass over the same input
// gives every event the same Count and ISup. randomProj puts several groups
// on one sequence, so an ISup that counted every group's first entry would
// be caught.
func TestExtenderISupMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 600; iter++ {
		alphabet := 2 + rng.Intn(4)
		seqs, idx := randomIndex(rng, 1+rng.Intn(5), 12, alphabet, alphabet)
		x := NewExtender(idx)
		proj := randomProj(rng, seqs)
		min := int32(1 + rng.Intn(2))
		es := x.Extensions(proj, min)
		for _, e := range es.Exts {
			if e.Proj == nil {
				if e.ISup != 0 {
					t.Fatalf("iter %d: event %d not materialised but ISup %d", iter, e.Event, e.ISup)
				}
				continue
			}
			want := 0
			for k, pr := range e.Proj {
				if k == 0 || e.Proj[k-1].Seq != pr.Seq {
					want += idx.CountFrom(int(pr.Seq), e.Event, int(pr.Pos))
				}
			}
			if int(e.ISup) != want {
				t.Fatalf("iter %d: event %d ISup %d, recount %d (proj %+v, ext proj %+v, seqs %v)",
					iter, e.Event, e.ISup, want, proj, e.Proj, seqs)
			}
		}
		cs := x.Counts(proj, min)
		passesAgree(t, fmt.Sprintf("iter %d (proj %+v, seqs %v)", iter, proj, seqs), cs, es)
		x.Release(cs)
		x.Release(es)
	}
}

// TestExtenderRebind: an extender that has extended and released over one
// index, then rebinds to another, answers exactly as a fresh extender over
// the new index in both passes — whether the event space stays the same or
// grows — and its two passes agree on every Count and ISup.
func TestExtenderRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 200; iter++ {
		seqsA, idxA := randomIndex(rng, 1+rng.Intn(5), 12, 3, 3)
		numEventsB := 3
		if iter%2 == 1 {
			numEventsB = 6 // B's events beyond A's space need larger slots
		}
		seqsB, idxB := randomIndex(rng, 1+rng.Intn(5), 12, numEventsB, numEventsB)

		x := NewExtender(idxA)
		for k := 0; k < 3; k++ {
			proj := randomProj(rng, seqsA)
			x.Release(runPass(x, proj, 1, k == 1))
		}
		x.ReleaseProj(x.SeedProj(0))
		x.Rebind(idxB)
		fresh := NewExtender(idxB)

		for k := 0; k < 3; k++ {
			proj := randomProj(rng, seqsB)
			min := int32(1 + rng.Intn(2))
			var sets [2]ExtSet
			for i, countsOnly := range []bool{false, true} {
				got, want := runPass(x, proj, min, countsOnly), runPass(fresh, proj, min, countsOnly)
				if !reflect.DeepEqual(got.Exts, want.Exts) {
					t.Fatalf("iter %d counts-only %v: rebound extender\n got %+v\nwant %+v (proj %+v, seqs %v)", iter, countsOnly, got.Exts, want.Exts, proj, seqsB)
				}
				fresh.Release(want)
				sets[i] = got
			}
			passesAgree(t, fmt.Sprintf("iter %d (proj %+v, seqs %v)", iter, proj, seqsB), sets[1], sets[0])
			x.Release(sets[0])
			x.Release(sets[1])
		}
		for e := seqdb.EventID(0); int(e) < numEventsB; e++ {
			if got, want := x.SeedProj(e), fresh.SeedProj(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: rebound SeedProj(%d) = %+v want %+v", iter, e, got, want)
			}
		}
	}
}
