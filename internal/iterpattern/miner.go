package iterpattern

import (
	"slices"
	"time"

	"specmine/internal/mine"
	"specmine/internal/qre"
	"specmine/internal/seqdb"
)

// Mine mines the iterative patterns of db: the closed set (Definition 4.2)
// by default, every frequent pattern with Options.Full.
func Mine(db *seqdb.Database, opts Options) (*Result, error) {
	return MineSource(mine.Resident(db), opts)
}

// MineSource is the one search driver, over any mine.Source — a resident
// database or a store's segment catalog. The closed miner prunes subtrees
// that can only produce non-closed patterns (see equivalence pruning in
// grow) and passes the surviving candidates through an exact closedness
// filter; Options.Full mines every frequent pattern instead. Each frequent
// seed event roots an independent subtree mined against the seed's view:
// every structure the search consults for a seed e — instance lists,
// extension windows, closedness witnesses — lives entirely in the traces
// containing e (patterns grown from e always start with e). Landmark tables
// are per seed, which loses no pruning: equal instance lists force equal
// start events, so a landmark can only ever match nodes of its own seed.
// Only the sequence ids inside exported instances are view-local; they are
// remapped to global ids before the merge. The merged patterns are sorted
// and the per-seed Stats summed, so the result is byte-identical for any
// Source and worker count, whatever order mine.ForSeeds returns them in.
func MineSource(src mine.Source, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	closed := !opts.Full
	minSup := opts.MinInstanceSupport
	if opts.MinSupportRel > 0 {
		minSup = seqdb.AbsoluteSupport(opts.MinSupportRel, src.NumSequences())
	}
	events := src.FrequentByInstanceCount(minSup)
	workers := mine.EffectiveWorkers(opts.Workers)
	if workers > len(events) {
		workers = len(events)
	}

	type seedOut struct {
		emitted []MinedPattern
		stats   Stats
		err     error
	}
	outs := mine.ForSeeds(len(events), workers, func() *miner {
		// Scratch tables size by the event-id space, which every view shares
		// (indexes are built over the full dictionary).
		m := &miner{opts: opts, minSup: minSup, closed: closed}
		m.initScratch(src.NumEvents())
		return m
	}, func(m *miner, i int) seedOut {
		sv, err := src.AcquireSeed(events[i])
		if err != nil {
			return seedOut{err: err}
		}
		defer sv.Release()
		m.db, m.idx = sv.DB, sv.Idx
		m.emitted = nil
		m.stats = Stats{}
		if closed {
			m.landmarks = make(map[uint64][]landmark)
		}
		m.mineSeed(events[i])
		patterns := m.emitted
		if closed {
			// The filter only touches traces containing the seed (witness
			// candidates embed the seed event), all present in the view.
			patterns = m.closednessFilter(patterns)
			if !opts.IncludeInstances {
				for k := range patterns {
					patterns[k].Instances = nil
				}
			}
		}
		if opts.IncludeInstances && sv.Global != nil {
			for k := range patterns {
				for x := range patterns[k].Instances {
					patterns[k].Instances[x].Seq = int(sv.Global[patterns[k].Instances[x].Seq])
				}
			}
		}
		return seedOut{emitted: patterns, stats: m.stats}
	})

	res := &Result{MinSupport: minSup}
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		res.Patterns = append(res.Patterns, outs[i].emitted...)
		res.Stats.merge(outs[i].stats)
	}
	res.Stats.PatternsEmitted = len(res.Patterns)
	res.Stats.Duration = time.Since(start)
	res.Sort()
	return res, nil
}

// span is the internal, allocation-friendly form of qre.Instance. Node
// instance lists are stored run-compressed (qre.SpanRuns): in the dense
// looping regime explicit lists grow near-quadratically while the compressed
// form stays proportional to the number of loop boundaries.
type span = qre.Span

// extension is one candidate suffix extension of a search node: the extending
// event, its instance count, and — only for nodes that survive the support,
// equivalence and length checks — the run-compressed instance list of
// p ++ <event>. The counting pass never materialises anything: counts alone
// decide frequency, the support-preservation closedness test, and landmark
// subtree pruning, so leaf and pruned nodes (the bulk of a bounded dense
// search) skip materialisation entirely.
type extension struct {
	event seqdb.EventID
	count int32
	insts qre.SpanRuns
}

// landmark records an already-explored search node for the closed miner's
// equivalence pruning. The instance runs are a compact copy of the node's
// (run-compressed, hence small) instance list: copying lets the node's
// over-allocated free-listed backing array recycle immediately instead of
// being pinned for the rest of the run.
type landmark struct {
	pattern   seqdb.Pattern
	instances qre.SpanRuns
}

type miner struct {
	db     *seqdb.Database
	idx    *seqdb.PositionIndex
	opts   Options
	minSup int
	closed bool

	emitted   []MinedPattern
	stats     Stats
	landmarks map[uint64][]landmark

	scratch minerScratch
	closedW *closedWorker // closedness-filter scratch, built on first use

	// runs recycles the []SpanRun backing arrays of instance lists whose
	// node has been fully explored; exts does the same for extension
	// slices (free-listed arenas from the shared framework). Together with
	// run compression this makes instance storage cost O(live search path),
	// not O(nodes explored).
	runs mine.Arena[qre.SpanRun]
	exts mine.Arena[extension]

	// path is the shared pattern buffer for the current search path: the
	// node for depth d works on path[:d+1], so descending never allocates.
	// Everything that retains a pattern (emission, landmarks) clones it.
	path seqdb.Pattern
}

// minerScratch holds the reusable per-worker buffers that make the extension
// passes allocation-free. All per-event sets are epoch-stamped
// (mine.StampSet over seqdb.BumpEpoch): bumping the epoch invalidates every
// entry at once, so no clearing pass is ever needed between nodes.
type minerScratch struct {
	slots seqdb.EventSlots // extension-event slots and counts per node

	alpha mine.StampSet // the current pattern's alphabet
	win   mine.StampSet // events seen in some forward window of the node
	seen  mine.StampSet // events seen in the current window
}

func (m *miner) initScratch(numEvents int) {
	m.scratch = minerScratch{
		slots: seqdb.NewEventSlots(numEvents),
		alpha: mine.NewStampSet(numEvents),
		win:   mine.NewStampSet(numEvents),
		seen:  mine.NewStampSet(numEvents),
	}
	m.path = make(seqdb.Pattern, 0, 64)
}

func (m *miner) mineSeed(e seqdb.EventID) {
	insts := m.singleEventInstances(e)
	m.path = append(m.path[:0], e)
	m.grow(m.path, insts)
	m.runs.Put(insts.Runs())
}

func (m *miner) singleEventInstances(e seqdb.EventID) qre.SpanRuns {
	var rs qre.SpanRuns
	rs.Reset(m.runs.Get())
	for _, si := range m.idx.SeqsContaining(e) {
		for _, p := range m.idx.Positions(int(si), e) {
			rs.Append(span{Seq: si, Start: p, End: p})
		}
	}
	return rs
}

// grow explores the search-tree node for pattern p (a view of the shared
// path buffer) with instance runs insts. The caller owns and recycles insts'
// backing array after grow returns.
func (m *miner) grow(p seqdb.Pattern, insts qre.SpanRuns) {
	m.stats.NodesExplored++

	// Count-first: one window pass yields every candidate's instance count
	// (and stamps the forward-window event set for checkLandmarks). Nothing
	// is materialised yet.
	exts := m.countExtensions(p, insts)

	emit := true
	if m.closed {
		// Equivalence pruning (the "early identification and pruning of
		// non-closed patterns" of Section 4). If an earlier node L has exactly
		// the same instance list and p ⊑ L, then L witnesses that p is not
		// closed, so p is never emitted. If additionally no event of
		// alphabet(L)\alphabet(p) occurs in any forward window of p, every
		// extension of p has the matching extension of L with an identical
		// instance list, so the whole subtree can only produce non-closed
		// patterns and is skipped.
		witness, pruneSubtree := m.checkLandmarks(p, insts)
		if witness {
			emit = false
			m.stats.NonClosedSuppressed++
			if pruneSubtree {
				m.stats.SubtreesPrunedEquivalent++
				if exts != nil {
					m.exts.Put(exts)
				}
				return
			}
		}
		// A suffix extension that preserves the support also witnesses
		// non-closedness of p (Definition 4.2 with a suffix super-sequence).
		// Counts suffice: the extension's instance list is never needed.
		if emit {
			for i := range exts {
				if int(exts[i].count) == insts.Len() {
					emit = false
					m.stats.NonClosedSuppressed++
					break
				}
			}
		}
	}
	if emit {
		m.emit(p, insts)
	}

	if exts == nil {
		return
	}
	if m.opts.MaxPatternLength > 0 && len(p) >= m.opts.MaxPatternLength {
		m.exts.Put(exts)
		return
	}

	// The node survives and will recurse: only now are the supra-threshold
	// extension lists materialised, run-compressed, into free-listed arenas.
	m.materializeExtensions(p, insts, exts)

	for i := range exts {
		if int(exts[i].count) < m.minSup {
			m.stats.NodesPrunedInfrequent++
			continue
		}
		// Descend on the shared path buffer: p is path[:d+1], so this append
		// writes path[d+1] in place (no allocation while within capacity).
		// Sibling iterations overwrite it; anything that retains the child
		// pattern clones it.
		m.grow(append(p, exts[i].event), exts[i].insts)
		m.runs.Put(exts[i].insts.Runs())
	}
	m.exts.Put(exts)
}

// countExtensions computes, for every candidate extension event of p, the
// instance count of p ++ <event>, in slot (first-seen) order. It also leaves
// the set of all events observed in the forward windows of the instances
// stamped in the scratch win set (valid until the next countExtensions
// call), which checkLandmarks consults.
//
// For each instance the candidate events are exactly the distinct events of
// the forward window: the run of non-alphabet events following the instance,
// terminated (inclusively) by the first alphabet event. A non-alphabet event
// additionally requires that it does not occur inside the instance span,
// because extending the pattern adds it to the QRE's exclusion set
// (Definition 4.1). The gap-validity test uses the index's prev-occurrence
// chain, so it is O(1) per candidate.
func (m *miner) countExtensions(p seqdb.Pattern, insts qre.SpanRuns) []extension {
	sc := &m.scratch

	sc.alpha.Begin()
	for _, e := range p {
		sc.alpha.Add(e)
	}
	sc.win.Begin()
	sc.slots.Begin()

	for _, r := range insts.Runs() {
		s := m.db.Sequences[r.Seq]
		start, end := r.Start, r.End
		for k := int32(0); k < r.Count; k, start, end = k+1, start+r.Stride, end+r.Stride {
			sc.seen.Begin()
			for j := int(end) + 1; j < len(s); j++ {
				ev := s[j]
				sc.win.Add(ev)
				if sc.alpha.Contains(ev) {
					// First alphabet event: always a valid extension, and the
					// window ends here.
					sc.slots.Add(ev)
					break
				}
				if !sc.seen.TestAndSet(ev) {
					continue
				}
				// New symbol: its addition to the alphabet must not invalidate
				// the existing gaps, so it may not occur inside the span.
				// Because j is the first occurrence of ev in the window, its
				// previous occurrence is at or before the span end, so one
				// prev-occurrence read decides.
				if m.idx.OccursWithin(int(r.Seq), j, int(start)) {
					continue
				}
				sc.slots.Add(ev)
			}
		}
	}
	if sc.slots.Len() == 0 {
		return nil
	}
	exts := m.exts.GetN(sc.slots.Len())
	for slot := range exts {
		exts[slot] = extension{event: sc.slots.Event(slot), count: sc.slots.Count(slot)}
	}
	return exts
}

// materializeExtensions re-walks the forward windows once and fills the
// run-compressed instance lists of the supra-threshold extensions, then sorts
// exts by event id for deterministic traversal. It must run directly after
// countExtensions on the same node: it reuses the slot assignments and alpha
// stamps the counting pass left in scratch.
func (m *miner) materializeExtensions(p seqdb.Pattern, insts qre.SpanRuns, exts []extension) {
	sc := &m.scratch

	any := false
	for slot := range exts {
		if int(exts[slot].count) >= m.minSup {
			exts[slot].insts.Reset(m.runs.Get())
			any = true
		}
	}
	if !any {
		slices.SortFunc(exts, func(a, b extension) int { return int(a.event) - int(b.event) })
		return
	}

	for _, r := range insts.Runs() {
		s := m.db.Sequences[r.Seq]
		start, end := r.Start, r.End
		for k := int32(0); k < r.Count; k, start, end = k+1, start+r.Stride, end+r.Stride {
			sc.seen.Begin()
			for j := int(end) + 1; j < len(s); j++ {
				ev := s[j]
				if sc.alpha.Contains(ev) {
					x := &exts[sc.slots.Slot(ev)]
					if int(x.count) >= m.minSup {
						x.insts.Append(span{Seq: r.Seq, Start: start, End: int32(j)})
					}
					break
				}
				if !sc.seen.TestAndSet(ev) {
					continue
				}
				if m.idx.OccursWithin(int(r.Seq), j, int(start)) {
					continue
				}
				x := &exts[sc.slots.Slot(ev)]
				if int(x.count) >= m.minSup {
					x.insts.Append(span{Seq: r.Seq, Start: start, End: int32(j)})
				}
			}
		}
	}

	// Deterministic extension order. The slot indices in sc.slots are only
	// consumed by the fill pass above, so sorting afterwards is safe.
	slices.SortFunc(exts, func(a, b extension) int { return int(a.event) - int(b.event) })
}

func (m *miner) emit(p seqdb.Pattern, insts qre.SpanRuns) {
	mp := MinedPattern{Pattern: p.Clone(), Support: insts.Len(), SeqSupport: insts.SeqSupport()}
	if m.opts.IncludeInstances || m.closed {
		// The closed miner always keeps instances while mining: the
		// closedness filter needs them. They are dropped afterwards unless
		// the caller asked for them.
		mp.Instances = insts.Export()
	}
	m.emitted = append(m.emitted, mp)
}

// checkLandmarks consults and updates the landmark table. It returns
// witness=true when an earlier pattern with an identical instance list is a
// super-sequence of p (so p is certainly not closed), and pruneSubtree=true
// when additionally none of the witness's extra events appears in p's forward
// windows (so no extension of p can behave differently from the witness's
// matching extension and the subtree holds no closed pattern).
// Forward-window membership is read from the win scratch set left by
// countExtensions. All comparisons and hashes run on the compressed runs,
// which represent equal span sequences exactly when equal; new entries store
// a compact copy so the caller's backing array stays recyclable.
func (m *miner) checkLandmarks(p seqdb.Pattern, insts qre.SpanRuns) (witness, pruneSubtree bool) {
	sc := &m.scratch
	sig := insts.Signature()
	entries := m.landmarks[sig]
	for i, lm := range entries {
		if !lm.instances.Equal(insts) {
			continue
		}
		if p.IsSubsequenceOf(lm.pattern) && len(p) < len(lm.pattern) {
			witness = true
			pruneSubtree = true
			for _, ev := range lm.pattern {
				if p.Contains(ev) {
					continue
				}
				if sc.win.Contains(ev) {
					pruneSubtree = false
					break
				}
			}
			return witness, pruneSubtree
		}
		if lm.pattern.IsSubsequenceOf(p) {
			// p supersedes the stored landmark: remember the longer pattern so
			// that future equivalent nodes are pruned against it.
			entries[i] = landmark{pattern: p.Clone(), instances: lm.instances}
			m.landmarks[sig] = entries
			return false, false
		}
	}
	m.landmarks[sig] = append(entries, landmark{pattern: p.Clone(), instances: insts.Compact()})
	return false, false
}
