package qre

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"specmine/internal/seqdb"
)

func mkdb(traces ...[]string) *seqdb.Database {
	db := seqdb.NewDatabase()
	for _, t := range traces {
		db.AppendNames(t...)
	}
	return db
}

func TestCompileAndString(t *testing.T) {
	d := seqdb.NewDictionary()
	p := seqdb.ParsePattern(d, "lock unlock")
	x := Compile(p)
	if len(x.Elements) != 3 {
		t.Fatalf("expected 3 elements, got %d", len(x.Elements))
	}
	got := x.String(d)
	want := "lock;[-lock,unlock]*;unlock"
	if got != want {
		t.Errorf("String=%q want %q", got, want)
	}
	single := Compile(seqdb.ParsePattern(d, "lock"))
	if s := single.String(d); s != "lock" {
		t.Errorf("single-event QRE %q", s)
	}
	empty := Compile(nil)
	if len(empty.Elements) != 0 {
		t.Errorf("empty pattern should compile to empty expression")
	}
}

func TestCompileTelephoneProtocol(t *testing.T) {
	// The telephone switching example of Section 3.2: the pattern's QRE must
	// exclude the full alphabet in every gap.
	d := seqdb.NewDictionary()
	p := seqdb.ParsePattern(d, "off_hook dial_tone_on dial_tone_off seizure_int ring_tone answer connection_on")
	x := Compile(p)
	if len(x.Elements) != 13 {
		t.Fatalf("elements=%d want 13", len(x.Elements))
	}
	for i, el := range x.Elements {
		if i%2 == 0 {
			if !el.IsLiteral() {
				t.Errorf("element %d should be literal", i)
			}
		} else {
			if el.IsLiteral() || len(el.Exclusion) != 7 {
				t.Errorf("element %d should exclude 7 events, got %v", i, el)
			}
		}
	}
}

func TestMatchesSubstring(t *testing.T) {
	db := mkdb([]string{"lock", "use", "other", "unlock", "lock", "unlock"})
	d := db.Dict
	s := db.Sequences[0]
	p := seqdb.ParsePattern(d, "lock unlock")
	x := Compile(p)
	cases := []struct {
		start, end int
		want       bool
	}{
		{0, 3, true},   // lock use other unlock
		{4, 5, true},   // lock unlock
		{0, 5, false},  // contains an intervening lock/unlock pair
		{0, 2, false},  // does not end with unlock
		{1, 3, false},  // does not start with lock
		{-1, 3, false}, // out of range
		{3, 2, false},  // inverted
	}
	for _, c := range cases {
		if got := x.MatchesSubstring(s, c.start, c.end); got != c.want {
			t.Errorf("MatchesSubstring(%d,%d)=%v want %v", c.start, c.end, got, c.want)
		}
	}
}

func TestMatchAtAndFindAllInstances(t *testing.T) {
	// Trace exhibiting repetition within a sequence ("due to looping, a trace
	// can contain repeated occurrences of interesting patterns").
	db := mkdb(
		[]string{"lock", "use", "unlock", "read", "lock", "write", "write", "unlock"},
		[]string{"lock", "lock", "unlock"},
		[]string{"unlock", "use"},
	)
	d := db.Dict
	p := seqdb.ParsePattern(d, "lock unlock")

	// In "lock lock unlock" only the second lock starts an instance: the gap
	// of the first would contain another lock, violating the QRE exclusion.
	// The third trace holds none.
	all := FindAllInstances(db, p)
	want := []Instance{{Seq: 0, Start: 0, End: 2}, {Seq: 0, Start: 4, End: 7}, {Seq: 1, Start: 1, End: 2}}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("FindAllInstances=%v want %v", all, want)
	}
	if CountInstances(db, p) != 3 {
		t.Errorf("CountInstances=%d want 3", CountInstances(db, p))
	}
	if CountInstances(db, nil) != 0 {
		t.Errorf("empty pattern should have zero support")
	}
}

func TestMSCOneToOneCorrespondence(t *testing.T) {
	// The two non-conforming telephone traces from Section 3.2 must not be
	// instances of the protocol pattern.
	d := seqdb.NewDictionary()
	p := seqdb.ParsePattern(d, "off_hook seizure_int ring_tone answer connection_on")
	bad1 := seqdb.ParsePattern(d, "off_hook seizure_int ring_tone answer ring_tone connection_on")
	bad2 := seqdb.ParsePattern(d, "off_hook seizure_int ring_tone answer answer answer connection_on")
	good := seqdb.ParsePattern(d, "off_hook noise seizure_int ring_tone answer connection_on")

	if _, ok := MatchAt(seqdb.Sequence(bad1), p, 0); ok {
		t.Errorf("out-of-order trace must not match (total ordering violated)")
	}
	if _, ok := MatchAt(seqdb.Sequence(bad2), p, 0); ok {
		t.Errorf("repeated-answer trace must not match (one-to-one correspondence violated)")
	}
	if end, ok := MatchAt(seqdb.Sequence(good), p, 0); !ok || end != 5 {
		t.Errorf("trace with unrelated noise must match: ok=%v end=%d", ok, end)
	}
}

func TestMatchAtDeterminism(t *testing.T) {
	d := seqdb.NewDictionary()
	a, b, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	s := seqdb.Sequence{a, c, c, b, b}
	p := seqdb.Pattern{a, b}
	end, ok := MatchAt(s, p, 0)
	if !ok || end != 3 {
		t.Errorf("MatchAt should stop at first alphabet event: end=%d ok=%v", end, ok)
	}
	if _, ok := MatchAt(s, p, 1); ok {
		t.Errorf("MatchAt must fail when start is not the first pattern event")
	}
	if _, ok := MatchAt(s, p, 99); ok {
		t.Errorf("MatchAt must fail out of range")
	}
	if _, ok := MatchAt(s, nil, 0); ok {
		t.Errorf("MatchAt must fail for empty pattern")
	}
}

func TestInstanceContainsAndCorrespondsTo(t *testing.T) {
	a := Instance{Seq: 0, Start: 2, End: 8}
	b := Instance{Seq: 0, Start: 3, End: 7}
	c := Instance{Seq: 1, Start: 3, End: 7}
	if !a.Contains(b) || b.Contains(a) || a.Contains(c) {
		t.Errorf("Contains relation wrong")
	}
	if a.String() == "" {
		t.Errorf("empty String")
	}

	sub := []Instance{{0, 1, 2}, {0, 5, 6}}
	super := []Instance{{0, 0, 3}, {0, 5, 8}}
	if !CorrespondsTo(sub, super) {
		t.Errorf("expected correspondence")
	}
	// Two sub instances cannot map to the same super instance.
	superOne := []Instance{{0, 0, 9}}
	if CorrespondsTo(sub, superOne) {
		t.Errorf("correspondence must be one-to-one")
	}
	if !CorrespondsTo(nil, superOne) {
		t.Errorf("empty sub always corresponds")
	}
	if CorrespondsTo(sub, nil) {
		t.Errorf("non-empty sub cannot correspond to empty super")
	}
}

// bruteInstances enumerates instances by checking every (start,end) span
// against the compiled QRE, the literal reading of Definition 4.1.
func bruteInstances(s seqdb.Sequence, p seqdb.Pattern, seqIdx int) []Instance {
	if len(p) == 0 {
		return nil
	}
	x := Compile(p)
	var out []Instance
	for start := 0; start < len(s); start++ {
		for end := start; end < len(s); end++ {
			if x.MatchesSubstring(s, start, end) {
				out = append(out, Instance{Seq: seqIdx, Start: start, End: end})
			}
		}
	}
	return out
}

func TestFindAllInstancesAgainstBruteForceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		n := 1 + rng.Intn(25)
		s := make(seqdb.Sequence, n)
		for i := range s {
			s[i] = seqdb.EventID(rng.Intn(4))
		}
		m := 1 + rng.Intn(3)
		p := make(seqdb.Pattern, m)
		for i := range p {
			p[i] = seqdb.EventID(rng.Intn(4))
		}
		db := seqdb.NewDatabase()
		db.Append(s)
		got := FindAllInstances(db, p)
		want := bruteInstances(s, p, 0)
		if len(got) != len(want) {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceUniqueStarts(t *testing.T) {
	// Sanity property: from any start position there is at most one instance,
	// hence brute-force enumeration and deterministic matching agree. This is
	// checked at larger alphabet sizes than the quick test above.
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(40)
		s := make(seqdb.Sequence, n)
		for i := range s {
			s[i] = seqdb.EventID(rng.Intn(6))
		}
		p := make(seqdb.Pattern, 1+rng.Intn(4))
		for i := range p {
			p[i] = seqdb.EventID(rng.Intn(6))
		}
		brute := bruteInstances(s, p, 0)
		seen := make(map[int]bool)
		for _, in := range brute {
			if seen[in.Start] {
				t.Fatalf("two instances share start %d for pattern %v in %v", in.Start, p, s)
			}
			seen[in.Start] = true
		}
	}
}
