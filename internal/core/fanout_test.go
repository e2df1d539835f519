package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/fsim"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/verify"
)

// whereBaseline is the per-rule rescan oracle (baseline.CheckRule) over the
// traces of db that where selects, with violations mapped back to the
// traces' ordinals in db.
func whereBaseline(t *testing.T, db *Database, ruleSet []Rule, where Where) verify.Summary {
	t.Helper()
	idx := db.FlatIndex()
	sub := seqdb.NewDatabaseWithDict(db.Dict)
	var ordinal []int
	for s := range db.Sequences {
		if whereMatches(idx, where, s) {
			sub.Append(db.Sequences[s])
			ordinal = append(ordinal, s)
		}
	}
	reports := make([]verify.RuleReport, len(ruleSet))
	for i, r := range ruleSet {
		rep, err := baseline.CheckRule(sub, r)
		if err != nil {
			t.Fatal(err)
		}
		for k := range rep.Violations {
			rep.Violations[k].Seq = ordinal[rep.Violations[k].Seq]
		}
		reports[i] = rep
	}
	return verify.NewSummary(reports)
}

// verifyCounters reads a call's verify.* work counters.
func verifyCounters(call *MetricsRegistry) map[string]int64 {
	out := make(map[string]int64)
	for _, name := range []string{"verify.traces_checked", "verify.traces_skipped",
		"verify.segments_checked", "verify.segments_skipped"} {
		out[name] = call.Counter(name).Value()
	}
	return out
}

// TestCheckStoreWorkerCountInvariance: the segment fan-out's output does not
// depend on how many workers run it. At GOMAXPROCS 1, 2 and 4, with an
// unlimited and a thrashing cache budget, CheckStore and CheckStoreWhere
// equal the per-rule rescan oracle, and the Explain and the verify.*
// counters are the same at every count.
func TestCheckStoreWorkerCountInvariance(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	if n := len(ts.Segments()); n < 8 {
		t.Fatalf("fixture sealed %d segments; the fan-out needs at least 8", n)
	}
	db := ts.Recovered().Database(ts.Dict())
	ruleSet := queryRules(t, db)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type outcome struct {
		ex       Explain
		counters map[string]int64
	}
	for _, budget := range []int64{0, 1} {
		for name, where := range queryPredicates(db) {
			want := whereBaseline(t, db, ruleSet, where)
			var first *outcome
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("%s/budget=%d/procs=%d", name, budget, procs)
				oo := OutOfCoreOptions{CacheBytes: budget}
				got, ex, err := CheckStoreWhere(ts, ruleSet, where, oo)
				if err != nil {
					t.Fatalf("%s: CheckStoreWhere: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: CheckStoreWhere diverges from the per-rule oracle:\n%s\nwant\n%s",
						label, got.Render(db.Dict, 3), want.Render(db.Dict, 3))
				}
				o := &outcome{ex: *ex, counters: verifyCounters(ex.Obs)}
				o.ex.Obs = nil
				if first == nil {
					first = o
				} else if !reflect.DeepEqual(o, first) {
					t.Fatalf("%s: explain/counters differ from procs=1:\n got %+v %+v\nwant %+v %+v",
						label, o.ex, o.counters, first.ex, first.counters)
				}
				if where.From == 0 && where.To == 0 && len(where.IDs) == 0 && !where.HasEventPredicates() {
					sum, stats, err := CheckStore(ts, ruleSet, oo)
					if err != nil {
						t.Fatalf("%s: CheckStore: %v", label, err)
					}
					if !reflect.DeepEqual(sum, want) {
						t.Fatalf("%s: CheckStore diverges from the per-rule oracle", label)
					}
					if c := verifyCounters(stats.Obs); !reflect.DeepEqual(c, first.counters) {
						t.Fatalf("%s: CheckStore counters %v, CheckStoreWhere's %v", label, c, first.counters)
					}
				}
			}
		}
	}
}

// TestCheckStorePinFailureMidFanOut: a segment body that cannot be read
// once the workers are pinning fails the call with that error, and every
// segment pinned by then is released: the cache reads no resident bytes
// after the call.
func TestCheckStorePinFailureMidFanOut(t *testing.T) {
	built := buildSegmentedStore(t, 3, 4, 20)
	dir := built.Dir()
	db := built.Recovered().Database(built.Dict())
	ruleSet := queryRules(t, db)
	segs := built.Segments()
	if len(segs) < 8 {
		t.Fatalf("fixture sealed %d segments; the fan-out needs at least 8", len(segs))
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	// Open reads every segment file once (read 0 of the path) and a call
	// once more for its statistics (read 1); a worker's pin of the body is
	// read 2, and it fails. Each call gets a freshly opened store so its
	// reads start from the same rank.
	bad := segs[len(segs)/2].Path
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, budget := range []int64{0, 1} {
			label := fmt.Sprintf("procs=%d/budget=%d", procs, budget)
			ffs := fsim.NewFaultFS(fsim.OS(), fsim.Rule{Op: fsim.OpRead, Path: bad, From: 2, To: 1 << 20, Err: syscall.EIO})
			ts, err := store.Open(store.Options{Dir: dir, OutOfCore: true, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			shared := NewMetrics()
			_, _, err = CheckStore(ts, ruleSet, OutOfCoreOptions{CacheBytes: budget, Obs: shared})
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("%s: CheckStore returned %v, want the injected read fault (injections %v)", label, err, ffs.Injections())
			}
			if got := counterVal(t, shared, "cache.pins"); got < 2 {
				t.Fatalf("%s: %d pins; the fault must land mid-fan-out", label, got)
			}
			if got := counterVal(t, shared, "cache.resident_bytes"); got != 0 {
				t.Fatalf("%s: %d bytes still resident after the failed call", label, got)
			}
			ts.Close() // reports the store degraded by the read fault
		}
	}
}

// TestMineStorePinFailure: a seed segment whose body cannot be read fails a
// mining call with that error, whether the call shares one call-wide view
// (budget 0) or builds a view per seed (budget 1), at one and at four
// workers.
func TestMineStorePinFailure(t *testing.T) {
	built := buildSegmentedStore(t, 3, 4, 20)
	dir := built.Dir()
	segs := built.Segments()
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	// As in TestCheckStorePinFailureMidFanOut, read 2 of the path is the
	// first pin of its body.
	bad := segs[len(segs)/2].Path
	for _, budget := range []int64{0, 1} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("budget=%d/workers=%d", budget, workers)
			ffs := fsim.NewFaultFS(fsim.OS(), fsim.Rule{Op: fsim.OpRead, Path: bad, From: 2, To: 1 << 20, Err: syscall.EIO})
			ts, err := store.Open(store.Options{Dir: dir, OutOfCore: true, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = MineStoreRules(ts, RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
				MaxPremiseLength: 2, MaxConsequentLength: 2, Workers: workers}, OutOfCoreOptions{CacheBytes: budget})
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("%s: MineStoreRules returned %v, want the injected read fault (injections %v)", label, err, ffs.Injections())
			}
			ts.Close() // reports the store degraded by the read fault
		}
	}
}

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
	if got, want := verify.NewSummary(reports), whereBaseline(t, db, ruleSet, where); !reflect.DeepEqual(got, want) {
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
