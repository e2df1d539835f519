package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"specmine/internal/iterpattern"
	"specmine/internal/mine"
	"specmine/internal/obs"
	"specmine/internal/par"
	"specmine/internal/plan"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/store/cache"
	"specmine/internal/verify"
)

// Out-of-core mining and checking: MineStore, MineStoreRules and CheckStore
// run directly against a TraceStore's sealed segment catalog through a
// pin-and-evict segment cache, instead of materialising the whole database
// with Recover. Per-segment statistics (exact event occurrence and trace
// counts, written into every segment at seal time) decide which segment
// bodies each seed or rule set actually needs; segments that provably cannot
// contribute are never decoded. The in-memory entry points run the very same
// code with the database as one always-resident segment (mine.Resident for
// the miners, residentSegment for the check loop), so results are
// byte-identical to MinePatterns/MineRules/CheckRules over Recover(dir) —
// same patterns, rules, reports and internal counters — for any cache budget
// and worker count.

// OutOfCoreOptions configures the out-of-core entry points.
type OutOfCoreOptions struct {
	// CacheBytes caps the estimated decoded bytes the segment cache keeps
	// resident; <= 0 means unlimited (everything touched stays cached). The
	// budget is a target: segments pinned by in-flight work are never evicted,
	// so a single seed's working set may exceed it transiently. A mining call
	// whose seeds' segments fit the budget decoded pins them all for the
	// whole call and shares one seed view across seeds and workers.
	CacheBytes int64
	// Obs, when non-nil, sees every count of the call live: the call counts
	// into its own Child of Obs (Explain.Obs), which forwards each
	// update — the segment cache's cache.* series as they happen, the
	// mining/verification counters (mine.*, verify.*) as they are published.
	Obs *obs.Registry
}

// OutOfCoreStats is the report of an out-of-core call: the per-query
// Explain, whose SegmentsSkipped counts the catalog segments whose bodies
// the call never decoded and whose Obs holds the call's own counts.
type OutOfCoreStats = Explain

// segSource adapts the segment catalog + cache to the miners' mine.Source
// and to the check loop's segments: global event frequencies come from
// summed segment statistics. A mining call needs the union of the segments
// whose statistics show one of its seed events (the events its Frequent*
// call returned), and its seed views take one of two forms:
//
//   - Call-wide. When the cache budget is unlimited or the union's decoded
//     estimate fits it, the first AcquireSeed pins every union segment once
//     and borrows all of their rows into one view, which every seed and
//     every worker then shares read-only. The pins hold until close. The
//     segments share nothing, so they are pinned, decoded and indexed on
//     GOMAXPROCS workers while the miner's other workers wait for the view.
//   - Per seed. Otherwise each seed's view pins exactly the segments whose
//     statistics show the seed event and collects the traces that contain
//     it (seedView). Its segments are pinned in one loop: the seeds already
//     fan out over the miner's workers.
//
// Either way the call opens the union's segment bodies and no others, so
// SegmentsSkipped does not depend on the form. Safe for concurrent
// AcquireSeed calls (the pool serialises internally).
type segSource struct {
	pool       *cache.Pool
	dict       *seqdb.Dictionary
	cacheBytes int64

	numTraces int
	stats     []*store.SegmentStats // per catalog segment, resident
	decoded   []int64               // per catalog segment: its decoded estimate (cache.EstimateBytes)
	occ       []int64               // global occurrence count per event id
	sup       []int64               // global sequence support per event id

	// seeds is the ascending event list the last Frequent* call returned:
	// the only events a miner acquires views for (mine.Source).
	seeds []seqdb.EventID

	// The call-wide view, built by the first AcquireSeed; nil when the
	// union does not fit the budget. close drops its pins.
	callOnce sync.Once
	callView *mine.SeedView
	callPins []*cache.Segment
	callErr  error
}

// newSegSource loads every segment's statistics (metadata-sized; bodies stay
// closed) and aggregates the global event frequencies the miners seed from.
// Its segment cache counts into call.
func newSegSource(st *store.Store, cacheBytes int64, call *obs.Registry) (*segSource, error) {
	pool := cache.New(st, cache.Options{BudgetBytes: cacheBytes, Obs: call})
	// The pool's event space: fragments and seed views size per-event
	// scratch from it alike.
	n := pool.NumEvents()
	s := &segSource{
		pool:       pool,
		dict:       st.Dict(),
		cacheBytes: cacheBytes,
		stats:      make([]*store.SegmentStats, pool.NumSegments()),
		decoded:    make([]int64, pool.NumSegments()),
		occ:        make([]int64, n),
		sup:        make([]int64, n),
	}
	for i := 0; i < pool.NumSegments(); i++ {
		ss, err := pool.Stats(i)
		if err != nil {
			return nil, err
		}
		s.stats[i] = ss
		s.numTraces += pool.Meta(i).NumTraces()
		events := 0
		ss.ForEachEvent(func(e seqdb.EventID, occurrences, traces int64) {
			events += int(occurrences)
			if int(e) < n {
				s.occ[e] += occurrences
				s.sup[e] += traces
			}
		})
		s.decoded[i] = cache.EstimateBytes(pool.Meta(i).NumTraces(), events)
	}
	return s, nil
}

// close drops the call-wide view's pins, then closes the pool.
func (s *segSource) close() {
	unpinAll(s.callPins)
	s.pool.Close()
}

func (s *segSource) NumSequences() int { return s.numTraces }
func (s *segSource) NumEvents() int    { return len(s.occ) }

func (s *segSource) FrequentByInstanceCount(min int) []seqdb.EventID {
	s.seeds = frequent(s.occ, min)
	return s.seeds
}

func (s *segSource) FrequentBySeqSupport(min int) []seqdb.EventID {
	s.seeds = frequent(s.sup, min)
	return s.seeds
}

// frequent mirrors PositionIndex.FrequentEventsByInstanceCount /
// BySeqSupport: events meeting the threshold, ascending by id.
func frequent(counts []int64, min int) []seqdb.EventID {
	var out []seqdb.EventID
	for e := range counts {
		if counts[e] >= int64(min) {
			out = append(out, seqdb.EventID(e))
		}
	}
	return out
}

// AcquireSeed returns the call-wide view when the union of the seeds'
// segments fits the budget, and otherwise seed e's own view. The call-wide
// view's Release does nothing; its pins hold until close.
func (s *segSource) AcquireSeed(e seqdb.EventID) (*mine.SeedView, error) {
	s.callOnce.Do(s.buildCallView)
	if s.callErr != nil {
		return nil, s.callErr
	}
	if _, seed := slices.BinarySearch(s.seeds, e); seed && s.callView != nil {
		return s.callView, nil
	}
	return s.seedView(e)
}

// buildCallView builds the call-wide view if the union of the segments
// whose statistics show a seed event fits the budget: it pins and indexes
// each union segment once on GOMAXPROCS workers and borrows every one of its
// rows, in catalog order whichever worker finishes first, so the view's
// traces ascend in global order. Global is nil when the union is the whole
// catalog (the catalog's segments hold consecutive global ordinals) and the
// union's trace table otherwise. A pin error is kept for every AcquireSeed
// to return.
func (s *segSource) buildCallView() {
	var union []int
	var bytes int64
	n, widest := 0, 0
	for i, ss := range s.stats {
		if slices.ContainsFunc(s.seeds, func(e seqdb.EventID) bool {
			_, traces := ss.Count(e)
			return traces > 0
		}) {
			union = append(union, i)
			bytes += s.decoded[i]
			traces := s.pool.Meta(i).NumTraces()
			n += traces
			widest = max(widest, traces)
		}
	}
	if len(union) == 0 || (s.cacheBytes > 0 && bytes > s.cacheBytes) {
		return
	}
	// Every row of every union segment: one identity row list serves all.
	all := make([]int32, widest)
	for l := range all {
		all[l] = int32(l)
	}
	view, pins, err := s.pinView(union, n, runtime.GOMAXPROCS(0), func(sg *cache.Segment) []int32 { return all[:len(sg.Seqs)] })
	if err != nil {
		s.callErr = err
		return
	}
	if len(union) == len(s.stats) {
		view.Global = nil
	}
	view.Release = func() {}
	s.callView, s.callPins = view, pins
}

// seedView pins every segment whose statistics show the seed event (exact
// counts, so no segment is pinned in vain) and assembles the seed's own
// view: the traces containing the event. The pins hold until Release, which
// keeps the borrowed rows valid and the view's memory accounted against the
// cache budget for its whole lifetime.
func (s *segSource) seedView(e seqdb.EventID) (*mine.SeedView, error) {
	// The statistics' exact per-segment trace counts size the view up front.
	var hit []int
	n := 0
	for i := range s.stats {
		if _, traces := s.stats[i].Count(e); traces > 0 {
			hit = append(hit, i)
			n += int(traces)
		}
	}
	view, pins, err := s.pinView(hit, n, 1, func(sg *cache.Segment) []int32 { return sg.Fragment().SeqsContaining(e) })
	if err != nil {
		return nil, err
	}
	view.Release = func() { unpinAll(pins) }
	return view, nil
}

// pinView is the one view assembler behind both forms: it pins segs and
// builds each one's fragment on up to workers goroutines (GOMAXPROCS for the
// call-wide view; one for a seed's view, as the seeds already fan out over
// the miner's workers), then borrows from each fragment, in catalog order,
// the rows rows names, so the view's index copies nothing but row headers.
// The view holds those rows' traces in ascending global order with the
// local→global id table; n, the rows' total, sizes it. The caller owns the
// returned pins and sets the view's Release. On a pin error the workers
// stop, every pin taken is dropped and the first error in catalog order is
// returned.
func (s *segSource) pinView(segs []int, n, workers int, rows func(*cache.Segment) []int32) (*mine.SeedView, []*cache.Segment, error) {
	pins := make([]*cache.Segment, len(segs))
	errs := make([]error, len(segs))
	var failed atomic.Bool
	par.ForWorker(len(segs), workers, func() struct{} { return struct{}{} }, func(_ struct{}, k int) {
		if failed.Load() {
			return
		}
		sg, err := s.pool.Pin(segs[k])
		if err != nil {
			errs[k] = err
			failed.Store(true)
			return
		}
		sg.Fragment()
		pins[k] = sg
	})
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		unpinAll(pins)
		return nil, nil, errs[i]
	}
	sets := make([]seqdb.RowSet, 0, len(segs))
	seqs := make([]seqdb.Sequence, 0, n)
	global := make([]int32, 0, n)
	for _, sg := range pins {
		local := rows(sg)
		sets = append(sets, seqdb.RowSet{From: sg.Fragment(), Seqs: local})
		for _, l := range local {
			seqs = append(seqs, sg.Seqs[l])
			global = append(global, int32(sg.Base)+l)
		}
	}
	return &mine.SeedView{
		DB:     &seqdb.Database{Dict: s.dict, Sequences: seqs},
		Idx:    seqdb.BorrowPositionIndex(s.NumEvents(), sets),
		Global: global,
	}, pins, nil
}

// unpinAll drops every pin of pins, skipping the nil slots of segments
// never pinned.
func unpinAll(pins []*cache.Segment) {
	for _, sg := range pins {
		if sg != nil {
			sg.Unpin()
		}
	}
}

// MineStore mines iterative patterns straight from the store's sealed
// segments — byte-identical to MinePatterns over Recover of the same store,
// without ever materialising the full database. PatternOptions carries the
// same knobs as MinePatterns.
func MineStore(st *TraceStore, opts PatternOptions, oo OutOfCoreOptions) (*PatternResult, *Explain, error) {
	return mineStore(st, opts, oo, minePatterns)
}

// mineStore runs one mining body over the store's segment catalog and
// reports the call: every trace is selected, a segment whose body the cache
// never opened was skipped, and the call's registry holds its counts.
func mineStore[O, R any](st *TraceStore, opts O, oo OutOfCoreOptions, body func(mine.Source, O, *obs.Registry) (*R, error)) (*R, *Explain, error) {
	call := oo.Obs.Child()
	src, err := newSegSource(st, oo.CacheBytes, call)
	if err != nil {
		return nil, nil, err
	}
	defer src.close()
	res, err := body(src, opts, call)
	if err != nil {
		return nil, nil, err
	}
	n := src.numSegments()
	opened := int(call.Counter("cache.segments_opened").Value())
	return res, &Explain{Selected: src.numTraces, SegmentsTotal: n, SegmentsSkipped: n - opened, Obs: call}, nil
}

// publishPatternStats folds a pattern-mining run's search counters into the
// registry's cumulative mine.* series.
func publishPatternStats(r *obs.Registry, s iterpattern.Stats) {
	r.Counter("mine.nodes_explored").Add(int64(s.NodesExplored))
	r.Counter("mine.nodes_pruned_infrequent").Add(int64(s.NodesPrunedInfrequent))
	r.Counter("mine.patterns_emitted").Add(int64(s.PatternsEmitted))
	r.Histogram("mine.duration_ns").Observe(s.Duration.Nanoseconds())
}

// publishRuleStats is publishPatternStats for rule mining.
func publishRuleStats(r *obs.Registry, s rules.Stats) {
	r.Counter("mine.premises_explored").Add(int64(s.PremisesExplored))
	r.Counter("mine.consequents_explored").Add(int64(s.ConsequentNodesExplored))
	r.Counter("mine.rules_emitted").Add(int64(s.RulesEmitted))
	r.Histogram("mine.duration_ns").Observe(s.Duration.Nanoseconds())
}

// MineStoreRules mines recurrent rules straight from the store's sealed
// segments — byte-identical to MineRules over Recover of the same store.
func MineStoreRules(st *TraceStore, opts RuleOptions, oo OutOfCoreOptions) (*RuleResult, *Explain, error) {
	return mineStore(st, opts, oo, mineRules)
}

// CheckStore verifies a rule set against the store's sealed traces segment by
// segment — byte-identical to CheckRules over Recover of the same store. A
// segment in which every rule has at least one premise event that provably
// never occurs is answered from its statistics alone (each of its traces
// satisfies every rule with zero temporal points), without decoding the body;
// every other segment's traces go through the online automaton. Those
// segments are checked in parallel on GOMAXPROCS workers, and their
// violations are assembled in segment order into exact-size lists that share
// one backing array, so the result does not depend on the worker count and
// there is no option for it. The call's verify.* work counters land in
// Explain.Obs.
func CheckStore(st *TraceStore, ruleSet []Rule, oo OutOfCoreOptions) (verify.Summary, *Explain, error) {
	return CheckStoreWhere(st, ruleSet, Where{}, oo)
}

// CheckStoreWhere is CheckStore restricted to the traces selected by where,
// with the predicate pushed into the segment catalog: segments whose ordinal
// range misses the window/id list, or whose statistics prove a required event
// absent, are pruned without decoding. Violations carry global trace
// ordinals, so the summary is byte-identical to CheckWhere over Recover of
// the same store. The returned Explain counts the skipped segments.
func CheckStoreWhere(st *TraceStore, ruleSet []Rule, where Where, oo OutOfCoreOptions) (verify.Summary, *Explain, error) {
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		return verify.Summary{}, nil, err
	}
	call := oo.Obs.Child()
	src, err := newSegSource(st, oo.CacheBytes, call)
	if err != nil {
		return verify.Summary{}, nil, err
	}
	defer src.close()
	reports, ex, err := checkSegments(src, engine, where, call)
	if err != nil {
		return verify.Summary{}, nil, err
	}
	return verify.NewSummary(reports), ex, nil
}

// segments is what the check loop sweeps: an ordered run of trace segments
// with exact per-event statistics, whose traces occupy consecutive global
// ordinals. A store's sealed segments come through the cache (segSource); an
// in-memory database is one always-resident segment (residentSegment).
type segments interface {
	numSegments() int
	segmentTraces(i int) int
	// segmentHas reports whether event e occurs in segment i (exact).
	segmentHas(i int, e seqdb.EventID) bool
	// pin returns segment i's traces (local ordinals from 0), a function
	// returning their index fragment (built on first use), and the function
	// that releases both.
	pin(i int) ([]seqdb.Sequence, func() *seqdb.PositionIndex, func(), error)
}

func (s *segSource) numSegments() int        { return len(s.stats) }
func (s *segSource) segmentTraces(i int) int { return s.pool.Meta(i).NumTraces() }

func (s *segSource) segmentHas(i int, e seqdb.EventID) bool {
	occ, _ := s.stats[i].Count(e)
	return occ > 0
}

func (s *segSource) pin(i int) ([]seqdb.Sequence, func() *seqdb.PositionIndex, func(), error) {
	sg, err := s.pool.Pin(i)
	if err != nil {
		return nil, nil, nil, err
	}
	return sg.Seqs, sg.Fragment, sg.Unpin, nil
}

// residentSegment is an in-memory database as a catalog of one segment that
// is always resident, its statistics read off the flat index.
type residentSegment struct{ db *Database }

func (r residentSegment) numSegments() int      { return 1 }
func (r residentSegment) segmentTraces(int) int { return r.db.NumSequences() }

func (r residentSegment) segmentHas(_ int, e seqdb.EventID) bool {
	idx := r.db.FlatIndex()
	return e >= 0 && int(e) < idx.NumEvents() && idx.EventSeqSupport(e) > 0
}

func (r residentSegment) pin(int) ([]seqdb.Sequence, func() *seqdb.PositionIndex, func(), error) {
	return r.db.Sequences, r.db.FlatIndex, func() {}, nil
}

// checkSegments is the one check loop behind CheckWhere, CheckStore and
// CheckStoreWhere. It works in three steps:
//
//   - Plan. where compiles once to a plan.Selection. A catalog-only pass in
//     ordinal order pushes it into the catalog (an ordinal-range miss or a
//     required event the statistics prove absent prunes the segment) and
//     answers a segment on which every rule is statically dead from its
//     statistics, skipping its selected traces in a tally of its own.
//   - Fan out. The remaining segments are spread over GOMAXPROCS workers,
//     each with its own Checker and verify.Tally. A worker pins its segment,
//     ranges over the selection's traces in it, feeds each one event by
//     event through its Checker, closes it into its tally under its global
//     ordinal and takes the segment's violation parts from the tally.
//   - Assemble. One Engine.Reports sums every tally's counts and assembles
//     the parts in segment order.
//
// Every step's output is independent of the worker count and of which
// worker finishes first. The verify.* work counters go into call. It returns
// the reports and the Explain: the selected traces (those checked plus those
// skipped), segment counts, the selection of the first compiled segment in
// ordinal order with its estimate summed over every compiled segment, and
// call. The first pin error stops the workers and is returned; every
// segment pinned by then is released.
func checkSegments(segs segments, engine *verify.Engine, where Where, call *obs.Registry) ([]verify.RuleReport, *Explain, error) {
	tracesChecked, tracesSkipped := call.Counter("verify.traces_checked"), call.Counter("verify.traces_skipped")
	segsChecked, segsSkipped := call.Counter("verify.segments_checked"), call.Counter("verify.segments_skipped")
	ex := &Explain{SegmentsTotal: segs.numSegments(), Obs: call}
	sel := where.Compile()

	// job is one segment left to check after the plan; the worker that takes
	// it fills in the rest.
	type job struct {
		seg, base int
		parts     []verify.ViolationPart // in trace order
		sel       plan.SelectionExplain
		checked   int
		err       error
	}
	var jobs []job
	skipped := engine.NewTally()
	tallies := []*verify.Tally{skipped}
	base := 0
	for i := 0; i < ex.SegmentsTotal; i++ {
		n := segs.segmentTraces(i)
		segBase := base
		base += n
		has := func(e seqdb.EventID) bool { return segs.segmentHas(i, e) }
		if !sel.MaySelect(segBase, n, has) {
			ex.SegmentsSkipped++
			continue // predicate selects nothing here: contributes no reports
		}
		// Every rule statically dead: each selected trace satisfies every rule
		// with zero temporal points. Without event predicates the selected
		// count falls out of the catalog alone; an event predicate needs the
		// decoded traces to know which are selected.
		if !where.HasEventPredicates() && engine.SegmentSkippable(has) {
			count := sel.Count(segBase, n)
			skipped.Skip(count)
			segsSkipped.Inc()
			tracesSkipped.Add(int64(count))
			ex.Selected += count
			ex.SegmentsSkipped++
			continue
		}
		jobs = append(jobs, job{seg: i, base: segBase})
	}

	type worker struct {
		checker *verify.Checker
		tally   *verify.Tally
	}
	var (
		mu     sync.Mutex
		failed atomic.Bool
	)
	par.ForWorker(len(jobs), runtime.GOMAXPROCS(0), func() *worker {
		w := &worker{checker: engine.NewChecker(), tally: engine.NewTally()}
		mu.Lock()
		tallies = append(tallies, w.tally)
		mu.Unlock()
		return w
	}, func(w *worker, k int) {
		if failed.Load() {
			return
		}
		j := &jobs[k]
		seqs, frag, unpin, err := segs.pin(j.seg)
		if err != nil {
			j.err = err
			failed.Store(true)
			return
		}
		segsChecked.Inc()
		var idx *seqdb.PositionIndex
		if where.HasEventPredicates() {
			idx = frag() // only event predicates read the segment's postings
		}
		traces, exp := sel.Traces(j.base, len(seqs), idx)
		j.sel = exp
		for l := range traces {
			for _, ev := range seqs[l] {
				w.checker.Advance(ev)
			}
			w.checker.Close(j.base+l, w.tally)
			j.checked++
		}
		unpin()
		tracesChecked.Add(int64(j.checked))
		j.parts = w.tally.Parts()
	})

	var parts []verify.ViolationPart
	for k := range jobs {
		j := &jobs[k]
		if j.err != nil {
			return nil, nil, j.err
		}
		ex.Selected += j.checked
		if ex.Selection == nil {
			ex.Selection = &j.sel
		} else {
			ex.Selection.EstTraces += j.sel.EstTraces
		}
		parts = append(parts, j.parts...)
	}
	return engine.Reports(tallies, parts), ex, nil
}
