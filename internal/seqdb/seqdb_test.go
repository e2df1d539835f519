package seqdb

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestDictionaryInternLookup(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("lock")
	b := d.Intern("unlock")
	if a == b {
		t.Fatalf("distinct names interned to the same id %d", a)
	}
	if got := d.Intern("lock"); got != a {
		t.Errorf("re-interning lock: got %d want %d", got, a)
	}
	if got := d.Lookup("unlock"); got != b {
		t.Errorf("Lookup(unlock)=%d want %d", got, b)
	}
	if got := d.Lookup("missing"); got != NoEvent {
		t.Errorf("Lookup(missing)=%d want NoEvent", got)
	}
	if got := d.Name(a); got != "lock" {
		t.Errorf("Name(%d)=%q want lock", a, got)
	}
	if got := d.Name(EventID(99)); got != "ev99" {
		t.Errorf("Name(99)=%q want ev99", got)
	}
	if d.Size() != 2 {
		t.Errorf("Size=%d want 2", d.Size())
	}
}

func TestDictionaryClone(t *testing.T) {
	d := NewDictionary()
	d.Intern("a")
	d.Intern("b")
	c := d.Clone()
	c.Intern("c")
	if d.Size() != 2 || c.Size() != 3 {
		t.Errorf("clone not independent: d=%d c=%d", d.Size(), c.Size())
	}
	if c.Lookup("a") != d.Lookup("a") {
		t.Errorf("clone changed ids")
	}
}

func TestSequenceContainsSubsequence(t *testing.T) {
	d := NewDictionary()
	s := Sequence{d.Intern("a"), d.Intern("b"), d.Intern("c"), d.Intern("b")}
	cases := []struct {
		pat  string
		want bool
	}{
		{"a", true},
		{"a b", true},
		{"a c b", true},
		{"b b", true},
		{"c a", false},
		{"a b c b", true},
		{"a b b c", false},
		{"", true},
	}
	for _, c := range cases {
		p := ParsePattern(d, c.pat)
		if got := s.ContainsSubsequence(p); got != c.want {
			t.Errorf("ContainsSubsequence(%q)=%v want %v", c.pat, got, c.want)
		}
	}
}

func TestSubsequenceEndPositions(t *testing.T) {
	d := NewDictionary()
	a, b := d.Intern("a"), d.Intern("b")
	cases := []struct {
		seq  Sequence
		pat  Pattern
		want []int
	}{
		{Sequence{a, b, a, b}, Pattern{a, b}, []int{1, 3}},
		{Sequence{b, a, b}, Pattern{a, b}, []int{2}},
		{Sequence{b, b}, Pattern{b, b}, []int{1}},
		{Sequence{a, a, a}, Pattern{a}, []int{0, 1, 2}},
		{Sequence{a, a, a}, Pattern{a, a}, []int{1, 2}},
		{Sequence{b, b, b}, Pattern{a, b}, nil},
		{Sequence{a, b}, Pattern{}, nil},
	}
	for i, c := range cases {
		got := c.seq.SubsequenceEndPositions(c.pat)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

// bruteEndPositions recomputes temporal points by definition: every j with
// S[j]==last(p) and p a subsequence of S[0..j].
func bruteEndPositions(s Sequence, p Pattern) []int {
	if len(p) == 0 {
		return nil
	}
	var out []int
	for j := range s {
		if s[j] != p[len(p)-1] {
			continue
		}
		prefix := s[:j+1]
		// p must embed with its last event exactly at j.
		if len(p) == 1 {
			out = append(out, j)
			continue
		}
		if Sequence(prefix[:j]).ContainsSubsequence(p[:len(p)-1]) {
			out = append(out, j)
		}
	}
	return out
}

func TestSubsequenceEndPositionsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 1 + rng.Intn(30)
		s := make(Sequence, n)
		for i := range s {
			s[i] = EventID(rng.Intn(4))
		}
		m := 1 + rng.Intn(3)
		p := make(Pattern, m)
		for i := range p {
			p[i] = EventID(rng.Intn(4))
		}
		got := s.SubsequenceEndPositions(p)
		want := bruteEndPositions(s, p)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPatternOperations(t *testing.T) {
	d := NewDictionary()
	p := ParsePattern(d, "a b c")
	if p.Len() != 3 || d.Name(p.First()) != "a" || d.Name(p.Last()) != "c" {
		t.Fatalf("ParsePattern basic properties broken: %v", p.String(d))
	}
	q := p.Append(d.Intern("d"))
	if q.String(d) != "<a, b, c, d>" {
		t.Errorf("Append: %s", q.String(d))
	}
	if p.Len() != 3 {
		t.Errorf("Append mutated receiver")
	}
	cc := p.Concat(q)
	if cc.Len() != 7 {
		t.Errorf("Concat length %d", cc.Len())
	}
	if !p.IsSubsequenceOf(q) || q.IsSubsequenceOf(p) {
		t.Errorf("IsSubsequenceOf wrong")
	}
	if !p.IsSubsequenceOf(p) {
		t.Errorf("pattern must be subsequence of itself")
	}
	if !p.Contains(d.Lookup("b")) || p.Contains(d.Intern("zzz")) {
		t.Errorf("Contains wrong")
	}
	if len(p.Alphabet()) != 3 {
		t.Errorf("Alphabet size %d", len(p.Alphabet()))
	}
	if p.Key() == q.Key() {
		t.Errorf("distinct patterns share Key")
	}
	if ComparePatterns(p, q) >= 0 || ComparePatterns(q, p) <= 0 || ComparePatterns(p, p.Clone()) != 0 {
		t.Errorf("ComparePatterns ordering wrong")
	}
}

func TestPatternSubsequenceQuick(t *testing.T) {
	// IsSubsequenceOf must agree with an independent recursive definition.
	var recur func(p, q Pattern) bool
	recur = func(p, q Pattern) bool {
		if len(p) == 0 {
			return true
		}
		if len(q) == 0 {
			return false
		}
		if p[0] == q[0] && recur(p[1:], q[1:]) {
			return true
		}
		return recur(p, q[1:])
	}
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		p := make(Pattern, rng.Intn(5))
		q := make(Pattern, rng.Intn(8))
		for i := range p {
			p[i] = EventID(rng.Intn(3))
		}
		for i := range q {
			q[i] = EventID(rng.Intn(3))
		}
		return p.IsSubsequenceOf(q) == recur(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("lock", "use", "unlock")
	db.AppendNames("lock", "unlock", "lock", "unlock")
	db.AppendNames("open", "read", "close")
	if db.NumSequences() != 3 {
		t.Fatalf("NumSequences=%d", db.NumSequences())
	}
	if db.NumEvents() != 10 {
		t.Fatalf("NumEvents=%d", db.NumEvents())
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := AbsoluteSupport(0.5, db.NumSequences()); got != 2 {
		t.Errorf("AbsoluteSupport(0.5)=%d want 2", got)
	}
	if got := AbsoluteSupport(0.0001, db.NumSequences()); got != 1 {
		t.Errorf("AbsoluteSupport(tiny)=%d want 1", got)
	}
}

// TestAbsoluteSupport pins the relative-threshold conversion every miner
// shares: rel*n rounded half up, at least 1. The pinned benchmark digests
// depend on the rounding, so a switch to ceil must show here first.
func TestAbsoluteSupport(t *testing.T) {
	for _, c := range []struct {
		rel  float64
		n    int
		want int
	}{
		{0.9, 8, 7}, // 7.2 rounds down: the threshold admits 87.5%
		{0.5, 3, 2},
		{0.0001, 10, 1},
		{0.95, 50000, 47500},
	} {
		if got := AbsoluteSupport(c.rel, c.n); got != c.want {
			t.Errorf("AbsoluteSupport(%v, %d) = %d, want %d", c.rel, c.n, got, c.want)
		}
	}
}

func TestDatabaseValidateFailure(t *testing.T) {
	db := NewDatabase()
	db.Append(Sequence{EventID(5)})
	if err := db.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range event id")
	}
}

func TestDatabaseClone(t *testing.T) {
	db := NewDatabase()
	db.AppendNames("a", "b", "a")
	c := db.Clone()
	c.AppendNames("c")
	if db.NumSequences() != 1 || c.NumSequences() != 2 {
		t.Errorf("clone not independent")
	}
}

func TestReadWriteTraces(t *testing.T) {
	input := "# comment line\nlock use unlock\n\nopen read  close\n"
	db, err := ReadTraces(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 2 {
		t.Fatalf("NumSequences=%d want 2", db.NumSequences())
	}
	var buf bytes.Buffer
	if err := WriteTraces(&buf, db); err != nil {
		t.Fatal(err)
	}
	want := "lock use unlock\nopen read close\n"
	if buf.String() != want {
		t.Errorf("round trip: got %q want %q", buf.String(), want)
	}
	// Re-reading the written form yields an identical database.
	db2, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumSequences() != db.NumSequences() || db2.NumEvents() != db.NumEvents() {
		t.Errorf("re-read mismatch")
	}
}

func TestReadWriteTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/traces.txt"
	db := NewDatabase()
	db.AppendNames("x", "y")
	db.AppendNames("z")
	if err := WriteTraceFile(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSequences() != 2 || got.NumEvents() != 3 {
		t.Errorf("file round trip mismatch: %d sequences %d events", got.NumSequences(), got.NumEvents())
	}
	if _, err := ReadTraceFile(dir + "/missing.txt"); err == nil {
		t.Errorf("expected error for missing file")
	}
}

func TestSequenceStringAndClone(t *testing.T) {
	d := NewDictionary()
	s := Sequence{d.Intern("a"), d.Intern("b")}
	if s.String(d) != "<a, b>" {
		t.Errorf("String=%q", s.String(d))
	}
	c := s.Clone()
	c[0] = d.Intern("z")
	if s[0] == c[0] {
		t.Errorf("Clone not independent")
	}
}

func TestParsePatternEmpty(t *testing.T) {
	d := NewDictionary()
	p := ParsePattern(d, "   ")
	if p.Len() != 0 {
		t.Errorf("empty spec should give empty pattern, got %v", p)
	}
}
