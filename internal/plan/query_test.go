package plan

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"specmine/internal/seqdb"
)

// whereMatches is the per-trace oracle: every predicate of w checked
// directly against trace s of idx, whose ordinal is s.
func whereMatches(idx *seqdb.PositionIndex, w Where, s int) bool {
	if s < w.From || (w.To > 0 && s >= w.To) {
		return false
	}
	if len(w.IDs) > 0 && !slices.Contains(w.IDs, s) {
		return false
	}
	for _, e := range w.HasAll {
		if !idx.SeqContains(s, e) {
			return false
		}
	}
	if len(w.HasAny) == 0 {
		return true
	}
	for _, e := range w.HasAny {
		if idx.SeqContains(s, e) {
			return true
		}
	}
	return false
}

// bruteSelect is the oracle: whereMatches over an ordinal scan.
func bruteSelect(idx *seqdb.PositionIndex, w Where) []int {
	var out []int
	for s := 0; s < idx.NumSequences(); s++ {
		if whereMatches(idx, w, s) {
			out = append(out, s)
		}
	}
	return out
}

func queryFixture() (*seqdb.Dictionary, *seqdb.Database) {
	d := seqdb.NewDictionary()
	db := seqdb.NewDatabaseWithDict(d)
	db.AppendNames("open", "use", "close")  // 0
	db.AppendNames("open", "use")           // 1
	db.AppendNames("ping")                  // 2
	db.AppendNames("open", "ping", "close") // 3
	db.AppendNames("use", "use")            // 4
	db.AppendNames("close")                 // 5
	return d, db
}

// compile selects among idx's traces the way the check loop does: the index
// is handed over only when w has event predicates.
func compile(idx *seqdb.PositionIndex, w Where) ([]int, SelectionExplain) {
	var events *seqdb.PositionIndex
	if w.HasEventPredicates() {
		events = idx
	}
	traces, exp := w.Compile().Traces(0, idx.NumSequences(), events)
	return slices.Collect(traces), exp
}

func TestSelectionMatchesBruteForce(t *testing.T) {
	d, db := queryFixture()
	idx := db.FlatIndex()
	open, use, close_, ping := d.Lookup("open"), d.Lookup("use"), d.Lookup("close"), d.Lookup("ping")

	cases := []struct {
		name   string
		w      Where
		driver string
	}{
		{"all", Where{}, "scan"},
		{"window", Where{From: 1, To: 4}, "scan"},
		{"window-open-end", Where{From: 3}, "scan"},
		{"ids", Where{IDs: []int{5, 0, 3, 3, 99, -2}}, "ids"},
		{"ids-windowed", Where{IDs: []int{0, 1, 2, 3}, From: 2}, "ids"},
		{"has-all-one", Where{HasAll: []seqdb.EventID{open}}, "postings"},
		{"has-all-two", Where{HasAll: []seqdb.EventID{open, close_}}, "postings"},
		{"has-all-windowed", Where{HasAll: []seqdb.EventID{use}, To: 2}, "postings"},
		{"has-any", Where{HasAny: []seqdb.EventID{ping, close_}}, "scan"},
		{"all-and-any", Where{HasAll: []seqdb.EventID{open}, HasAny: []seqdb.EventID{use, ping}}, "postings"},
		{"ids-with-events", Where{IDs: []int{0, 1, 2, 3, 4}, HasAll: []seqdb.EventID{use}}, "ids"},
		{"unknown-event", Where{HasAll: []seqdb.EventID{seqdb.EventID(99)}}, "empty"},
		{"negative-event", Where{HasAll: []seqdb.EventID{seqdb.EventID(-1)}}, "empty"},
	}
	for _, tc := range cases {
		got, exp := compile(idx, tc.w)
		want := bruteSelect(idx, tc.w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: selected %v want %v", tc.name, got, want)
		}
		if exp.Driver != tc.driver {
			t.Errorf("%s: driver %q want %q", tc.name, exp.Driver, tc.driver)
		}
	}
}

// TestSelectionRarestDriver: the postings driver must be the HasAll event
// with the smallest support.
func TestSelectionRarestDriver(t *testing.T) {
	d, db := queryFixture()
	idx := db.FlatIndex()
	open, ping := d.Lookup("open"), d.Lookup("ping") // support 3 vs 2
	_, exp := compile(idx, Where{HasAll: []seqdb.EventID{open, ping}})
	if exp.Driver != "postings" || exp.DriverEvent != ping {
		t.Fatalf("driver %q event %v, want postings on ping", exp.Driver, exp.DriverEvent)
	}
	if exp.EstTraces != 2 {
		t.Fatalf("EstTraces = %d want 2", exp.EstTraces)
	}
	if exp.Filters == 0 {
		t.Fatalf("residual HasAll event must register a filter")
	}
}

func TestSelectionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		db := seqdb.NewDatabase()
		alphabet := 2 + rng.Intn(5)
		for i := 0; i < alphabet; i++ {
			db.Dict.Intern(string(rune('a' + i)))
		}
		for i := 0; i < rng.Intn(12); i++ {
			n := 1 + rng.Intn(6)
			s := make(seqdb.Sequence, n)
			for j := range s {
				s[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			db.Append(s)
		}
		idx := db.FlatIndex()
		w := Where{}
		for i := 0; i < rng.Intn(3); i++ {
			w.HasAll = append(w.HasAll, seqdb.EventID(rng.Intn(alphabet+1)))
		}
		for i := 0; i < rng.Intn(3); i++ {
			w.HasAny = append(w.HasAny, seqdb.EventID(rng.Intn(alphabet+1)))
		}
		if rng.Intn(2) == 0 {
			w.From = rng.Intn(idx.NumSequences() + 2)
			w.To = rng.Intn(idx.NumSequences() + 2)
		}
		if rng.Intn(3) == 0 {
			for i := 0; i < rng.Intn(5); i++ {
				w.IDs = append(w.IDs, rng.Intn(idx.NumSequences()+3)-1)
			}
		}
		got, _ := compile(idx, w)
		want := bruteSelect(idx, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: where %+v selected %v want %v", iter, w, got, want)
		}
	}
}

// TestSelectionOverSegments: over random segment splits, one compiled
// Selection answers every level like the brute-force oracle over the whole
// database. Traces over a segment's own index yields exactly the global
// selection's members in that segment; MaySelect, given the segment's real
// events, admits exactly the segments whose ordinals overlap the window and
// id list and whose events can meet HasAll and HasAny; Count is the
// segment's share of the ordinal-only selection; and the ids driver's
// estimates sum to the listed ordinals inside the window. ID lists carry
// duplicates, negative ordinals and ordinals past the end.
func TestSelectionOverSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 200; iter++ {
		db := seqdb.NewDatabase()
		alphabet := 2 + rng.Intn(4)
		for i := 0; i < alphabet; i++ {
			db.Dict.Intern(string(rune('a' + i)))
		}
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			s := make(seqdb.Sequence, 1+rng.Intn(5))
			for j := range s {
				s[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			db.Append(s)
		}
		w := Where{}
		if rng.Intn(2) == 0 {
			w.HasAll = []seqdb.EventID{seqdb.EventID(rng.Intn(alphabet))}
		}
		if rng.Intn(3) == 0 {
			for i := 0; i < 1+rng.Intn(2); i++ {
				w.HasAny = append(w.HasAny, seqdb.EventID(rng.Intn(alphabet+1)))
			}
		}
		if rng.Intn(2) == 0 {
			w.From, w.To = rng.Intn(n+1)-1, rng.Intn(n+2)
		}
		if rng.Intn(2) == 0 {
			for i := 0; i < 1+rng.Intn(6); i++ {
				id := rng.Intn(n+4) - 2
				w.IDs = append(w.IDs, id)
				if rng.Intn(3) == 0 {
					w.IDs = append(w.IDs, id)
				}
			}
		}
		flat := db.FlatIndex()
		want := bruteSelect(flat, w)
		ordinal := bruteSelect(flat, Where{From: w.From, To: w.To, IDs: w.IDs})
		sel := w.Compile()
		var got []int
		est := 0
		for base := 0; base < n; {
			size := 1 + rng.Intn(n-base)
			seg := seqdb.NewDatabaseWithDict(db.Dict)
			for _, s := range db.Sequences[base : base+size] {
				seg.Append(s)
			}
			in := func(ords []int) int {
				return len(slices.DeleteFunc(slices.Clone(ords), func(o int) bool { return o < base || o >= base+size }))
			}
			has := func(e seqdb.EventID) bool {
				return slices.ContainsFunc(seg.Sequences, func(s seqdb.Sequence) bool { return slices.Contains(s, e) })
			}

			traces, exp := sel.Traces(base, size, seg.FlatIndex())
			for l := range traces {
				got = append(got, base+l)
			}
			if len(w.IDs) > 0 {
				if exp.Driver != "ids" {
					t.Fatalf("iter %d: where %+v: driver %q, want ids", iter, w, exp.Driver)
				}
				est += exp.EstTraces
			}
			if c, want := sel.Count(base, size), in(ordinal); c != want {
				t.Fatalf("iter %d: where %+v: Count(%d, %d) = %d, want %d", iter, w, base, size, c, want)
			}
			may := in(ordinal) > 0 && !slices.ContainsFunc(w.HasAll, func(e seqdb.EventID) bool { return !has(e) }) &&
				(len(w.HasAny) == 0 || slices.ContainsFunc(w.HasAny, has))
			if m := sel.MaySelect(base, size, has); m != may {
				t.Fatalf("iter %d: where %+v: MaySelect(%d, %d) = %v, want %v", iter, w, base, size, m, may)
			}
			if in(want) > 0 && !may {
				t.Fatalf("iter %d: where %+v: oracle prunes segment [%d, %d) holding a selected trace", iter, w, base, base+size)
			}
			base += size
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: where %+v selected %v over segments, want %v", iter, w, got, want)
		}
		if len(w.IDs) > 0 && est != len(ordinal) {
			t.Fatalf("iter %d: where %+v: ids estimates sum to %d over segments, want %d", iter, w, est, len(ordinal))
		}
	}
}

func TestSelectionOrdinalLevels(t *testing.T) {
	all := func(seqdb.EventID) bool { return true }
	s := Where{From: 10, To: 20}.Compile()
	if s.MaySelect(0, 10, all) || !s.MaySelect(5, 6, all) || !s.MaySelect(19, 5, all) || s.MaySelect(20, 5, all) {
		t.Fatal("window pushdown wrong")
	}
	if got := s.Count(5, 10); got != 5 { // ordinals 10..14
		t.Fatalf("Count(5,10) = %d want 5", got)
	}
	if got := s.Count(0, 100); got != 10 {
		t.Fatalf("Count(0,100) = %d want 10", got)
	}
	sid := Where{IDs: []int{3, 7, 7, 42}, From: 4}.Compile()
	if !sid.MaySelect(0, 10, all) || sid.MaySelect(8, 10, all) {
		t.Fatal("id-list pushdown wrong")
	}
	if got := sid.Count(0, 10); got != 1 { // only 7 (3 < From, dup ignored)
		t.Fatalf("id Count = %d want 1", got)
	}
	none := func(seqdb.EventID) bool { return false }
	if (Where{HasAll: []seqdb.EventID{0}}).Compile().MaySelect(0, 5, none) ||
		(Where{HasAny: []seqdb.EventID{0, 1}}).Compile().MaySelect(0, 5, none) ||
		!(Where{}).Compile().MaySelect(0, 5, none) {
		t.Fatal("event pushdown wrong")
	}
}
