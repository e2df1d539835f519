package core

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"specmine/internal/seqdb"
	"specmine/internal/verify"
)

// memSegments is a catalog of in-memory segments for driving checkSegments
// directly, and it counts the pins still held. It can hold segment 0's pin
// until every other segment has been checked, or fail one segment's pin and
// hold every other pin until that failure has happened.
type memSegments struct {
	parts  []*Database
	hold   bool           // segment 0's pin waits for rest
	rest   sync.WaitGroup // the other segments' unpins
	fail   chan struct{}  // when non-nil, segment failAt's pin fails and closes it
	failAt int
	held   atomic.Int64
}

var errPin = errors.New("pin failed")

func (m *memSegments) numSegments() int        { return len(m.parts) }
func (m *memSegments) segmentTraces(i int) int { return m.parts[i].NumSequences() }

func (m *memSegments) segmentHas(i int, e seqdb.EventID) bool {
	return residentSegment{m.parts[i]}.segmentHas(0, e)
}

func (m *memSegments) pin(i int) ([]seqdb.Sequence, func() *seqdb.PositionIndex, func(), error) {
	if m.fail != nil {
		if i == m.failAt {
			close(m.fail)
			return nil, nil, nil, errPin
		}
		<-m.fail
	}
	if m.hold && i == 0 {
		m.rest.Wait()
	}
	m.held.Add(1)
	unpin := func() {
		m.held.Add(-1)
		if m.hold && i != 0 {
			m.rest.Done()
		}
	}
	return m.parts[i].Sequences, m.parts[i].FlatIndex, unpin, nil
}

// TestCheckSegmentsOrderedAssembly drives checkSegments over eight
// in-memory segments. With segment 0 finishing last, the reports still
// equal the per-rule oracle and the Explain's selection is segment 0's — the
// first compiled segment in ordinal order, not the first to finish. A failed
// pin is returned, and every pin taken is released.
func TestCheckSegmentsOrderedAssembly(t *testing.T) {
	dict := seqdb.NewDictionary()
	a, b, x := dict.Intern("a"), dict.Intern("b"), dict.Intern("x")
	// Segment 0's rarest required event is a; every later segment's is b.
	first := [][]seqdb.EventID{{a, b, x}, {b}, {b, x}, {b, a}}
	later := [][]seqdb.EventID{{a, b}, {a}, {a, x}, {b, a, x, a}}
	db := seqdb.NewDatabaseWithDict(dict)
	segs := &memSegments{}
	for i := 0; i < 8; i++ {
		part := seqdb.NewDatabaseWithDict(dict)
		traces := later
		if i == 0 {
			traces = first
		}
		for _, tr := range traces {
			part.Append(tr)
			db.Append(tr)
		}
		segs.parts = append(segs.parts, part)
	}
	ruleSet := []Rule{
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{b}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{b}, Post: seqdb.Pattern{a}},
		{Pre: seqdb.Pattern{x}, Post: seqdb.Pattern{x}},
	}
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)

	where := Where{HasAll: []seqdb.EventID{a, b}}
	segs.hold = true
	segs.rest.Add(len(segs.parts) - 1)
	reports, ex, err := checkSegments(segs, engine, where, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verify.NewSummary(reports), checkOracle(t, db, ruleSet, where); !reflect.DeepEqual(got, want) {
		t.Fatalf("ordered assembly diverges from the per-rule oracle:\n%s\nwant\n%s",
			got.Render(dict, 3), want.Render(dict, 3))
	}
	if ex.Selection == nil || ex.Selection.DriverEvent != a {
		t.Fatalf("selection %+v, want segment 0's (driven by a)", ex.Selection)
	}
	if n := segs.held.Load(); n != 0 {
		t.Fatalf("%d pins still held", n)
	}

	// Segment 0's pin fails before any other pin returns, so with several
	// workers the others pin after the failure is known and must still
	// release what they pinned.
	segs.hold = false
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		segs.fail, segs.failAt = make(chan struct{}), 0
		if _, _, err := checkSegments(segs, engine, Where{}, NewMetrics()); !errors.Is(err, errPin) {
			t.Fatalf("procs=%d: checkSegments returned %v, want the pin error", procs, err)
		}
		if n := segs.held.Load(); n != 0 {
			t.Fatalf("procs=%d: %d pins still held after the failed call", procs, n)
		}
	}
}
