package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/seqdb"
	"specmine/internal/stream"
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

// TestCheckSegmentsIDsEstimate: the ids driver's estimate counts only the
// listed ordinals inside each compiled segment, so summed over the segments
// it is the number of listed ordinals, not the list's length once per
// segment.
func TestCheckSegmentsIDsEstimate(t *testing.T) {
	dict := seqdb.NewDictionary()
	a, b := dict.Intern("a"), dict.Intern("b")
	segs := &memSegments{}
	for i := 0; i < 4; i++ {
		part := seqdb.NewDatabaseWithDict(dict)
		for j := 0; j < 5; j++ {
			part.Append(seqdb.Sequence{a, b})
		}
		segs.parts = append(segs.parts, part)
	}
	engine, err := verify.NewEngine([]Rule{{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{b}}})
	if err != nil {
		t.Fatal(err)
	}
	where := Where{IDs: []int{1, 6, 11, 16}, HasAny: []seqdb.EventID{a}}
	_, ex, err := checkSegments(segs, engine, where, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Selected != 4 || ex.Selection == nil || ex.Selection.Driver != "ids" || ex.Selection.EstTraces != 4 {
		t.Fatalf("selected %d, selection %+v: want 4 selected by the ids driver, est=4", ex.Selected, ex.Selection)
	}
}

// TestFiredGroupAccountingMatchesOracle pins Close's accounting, which
// counts every trace and visits only the premise groups the trace fired, in
// each mode that closes traces: Engine.Check, the segment fan-out at one and
// at four procs (with a segment on which every rule is dead, counted through
// Tally.Skip), and a streamed snapshot at one and at three shards (taken
// mid-stream from clones of the shards' tallies, which go on counting). The
// premise groups fire on some traces and not on others, traces that reuse a
// checker fire the same group again, one group of three rules gets three
// temporal points in one trace, the rules interleave the groups, one
// premise never fires, and one consequent starts with its premise's last
// event. Every report must equal baseline.CheckRule.
func TestFiredGroupAccountingMatchesOracle(t *testing.T) {
	dict := seqdb.NewDictionary()
	a, b, c, x, y, z, never := dict.Intern("a"), dict.Intern("b"), dict.Intern("c"),
		dict.Intern("x"), dict.Intern("y"), dict.Intern("z"), dict.Intern("never")
	ruleSet := []Rule{
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{b}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{a, b}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{y}},
		{Pre: seqdb.Pattern{never}, Post: seqdb.Pattern{x}},
		{Pre: seqdb.Pattern{b}, Post: seqdb.Pattern{a}},
		{Pre: seqdb.Pattern{a}, Post: seqdb.Pattern{x, y}},
		{Pre: seqdb.Pattern{c}, Post: seqdb.Pattern{y}},
		{Pre: seqdb.Pattern{b}, Post: seqdb.Pattern{b, x}}, // a point can equal the latest start
	}
	segments := [][]seqdb.Sequence{
		{{a, a, x, a}, {a, b, y}, {z}, {b, a, x, y, b}},
		{{z, z}, {x}, {}}, // no premise event: skipped
		{{c, a, y}, {}, {a}, {b, b, a}, {a, x, y, a, a}},
		{{y, x}, {c, c, c}, {a, b, x}},
	}
	const dead = 1

	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(db *Database) []verify.RuleReport {
		reports := make([]verify.RuleReport, len(ruleSet))
		for i, r := range ruleSet {
			rep, err := baseline.CheckRule(db, r)
			if err != nil {
				t.Fatal(err)
			}
			reports[i] = rep
		}
		return reports
	}
	matches := func(mode string, db *Database, got []verify.RuleReport) {
		t.Helper()
		want := oracle(db)
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports, want %d", mode, len(got), len(want))
		}
		for r := range want {
			if g, w := got[r], want[r]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: rule %d (%s -> %s):\n got %d/%d traces satisfied/violated, %d/%d points, violations %v\nwant %d/%d, %d/%d, %v",
					mode, r, g.Rule.Pre.String(dict), g.Rule.Post.String(dict),
					g.SatisfiedTraces, g.ViolatedTraces, g.SatisfiedTemporalPoints, g.TotalTemporalPoints, g.Violations,
					w.SatisfiedTraces, w.ViolatedTraces, w.SatisfiedTemporalPoints, w.TotalTemporalPoints, w.Violations)
			}
		}
	}

	db := seqdb.NewDatabaseWithDict(dict)
	segs := &memSegments{}
	for _, seg := range segments {
		part := seqdb.NewDatabaseWithDict(dict)
		for _, s := range seg {
			part.Append(s)
			db.Append(s)
		}
		segs.parts = append(segs.parts, part)
	}
	if want := oracle(db); want[4].TotalTemporalPoints != 0 || want[0].ViolatedTraces == 0 || want[6].SatisfiedTraces == 0 {
		t.Fatalf("the traces no longer fire what the test needs: %+v", want)
	}
	matches("Check", db, engine.Check(db))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		reports, ex, err := checkSegments(segs, engine, Where{}, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		if ex.SegmentsSkipped != 1 {
			t.Fatalf("procs=%d: %d segments skipped, want segment %d alone", procs, ex.SegmentsSkipped, dead)
		}
		matches(fmt.Sprintf("fan-out/procs=%d", procs), db, reports)
	}

	for _, shards := range []int{1, 3} {
		ing, err := stream.Open(stream.Config{Shards: shards, Dict: dict, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		var mid *stream.View
		var midReports []verify.RuleReport
		n := 0
		for i, seg := range segments {
			for _, s := range seg {
				id := fmt.Sprintf("trace-%d", n)
				n++
				if err := ing.IngestIDs(id, s...); err != nil {
					t.Fatal(err)
				}
				if err := ing.CloseTrace(id); err != nil {
					t.Fatal(err)
				}
			}
			if i == dead {
				if mid, err = ing.Snapshot(); err != nil {
					t.Fatal(err)
				}
				matches(fmt.Sprintf("stream/shards=%d/mid", shards), mid.DB, mid.Reports)
				midReports = oracle(mid.DB)
			}
		}
		v, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if v.DB.NumSequences() != db.NumSequences() {
			t.Fatalf("shards=%d: snapshot holds %d traces, want %d", shards, v.DB.NumSequences(), db.NumSequences())
		}
		matches(fmt.Sprintf("stream/shards=%d", shards), v.DB, v.Reports)
		if !reflect.DeepEqual(mid.Reports, midReports) {
			t.Fatalf("shards=%d: counting on changed the mid-stream snapshot's reports", shards)
		}
	}
}
