// Package baseline preserves the seed's map-based iterative-pattern miner
// verbatim (per-sequence map[EventID][]int positional index, three map
// allocations per search node, instance lists grown by append from nil).
//
// It exists for two purposes only: as the reference implementation that the
// benchmarks in package bench compare the flat-index miner against, and as a
// regression oracle asserting that the rewritten miner produces an identical
// closed-pattern set. It must not be used by production code paths.
package baseline

import (
	"hash/fnv"
	"sort"
	"time"

	"specmine/internal/iterpattern"
	"specmine/internal/qre"
	"specmine/internal/seqdb"
)

// The result and option shapes are shared with the rewritten miner so outputs
// compare field for field. Workers is ignored: the baseline is sequential.
type (
	Options      = iterpattern.Options
	Result       = iterpattern.Result
	MinedPattern = iterpattern.MinedPattern
	Stats        = iterpattern.Stats
)

// Positions is the seed's positional index: for each sequence, the sorted
// occurrence positions of every event in it.
type Positions []map[seqdb.EventID][]int

// Index builds the seed's positional index over db. The seed built it once
// per database, before mining, so a timed miner call excludes it: build it
// outside the timed section and pass it to every miner call over db.
func Index(db *seqdb.Database) Positions {
	pos := make(Positions, len(db.Sequences))
	for si, s := range db.Sequences {
		m := make(map[seqdb.EventID][]int)
		for i, e := range s {
			m[e] = append(m[e], i)
		}
		pos[si] = m
	}
	return pos
}

// Mine runs the closed miner when closed is true and the full miner
// otherwise. pos is Index(db).
func Mine(db *seqdb.Database, pos Positions, opts Options, closed bool) (*Result, error) {
	if closed {
		return MineClosed(db, pos, opts)
	}
	return MineFull(db, pos, opts)
}

// absoluteSupport mirrors the threshold resolution of iterpattern.Mine
// (seqdb.AbsoluteSupport for a relative threshold); the oracle keeps its own
// copy.
func absoluteSupport(o Options, numSequences int) int {
	if o.MinSupportRel > 0 {
		n := int(o.MinSupportRel*float64(numSequences) + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	return o.MinInstanceSupport
}

// MineFull mines the complete set of frequent iterative patterns. pos is
// Index(db).
func MineFull(db *seqdb.Database, pos Positions, opts Options) (*Result, error) {
	return mine(db, pos, opts, false)
}

// MineClosed mines the closed set of frequent iterative patterns
// (Definition 4.2). The search prunes subtrees that can only produce
// non-closed patterns (see equivalence pruning in grow) and the surviving
// candidates pass through an exact closedness filter before being reported.
// pos is Index(db).
func MineClosed(db *seqdb.Database, pos Positions, opts Options) (*Result, error) {
	return mine(db, pos, opts, true)
}

func mine(db *seqdb.Database, pos Positions, opts Options, closed bool) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := &miner{
		db:     db,
		pos:    pos,
		opts:   opts,
		minSup: absoluteSupport(opts, db.NumSequences()),
		closed: closed,
	}
	if closed {
		m.landmarks = make(map[uint64][]landmark)
	}
	m.run()
	patterns := m.emitted
	if closed {
		patterns = m.closednessFilter(patterns)
		if !opts.IncludeInstances {
			for i := range patterns {
				patterns[i].Instances = nil
			}
		}
	}
	// Deliberate deviation from the seed: Stats are copied after the
	// closedness filter, matching the reporting fix in the rewritten miner so
	// NonClosedSuppressed stays comparable. Mining behaviour is unchanged.
	res := &Result{Patterns: patterns, Stats: m.stats, MinSupport: m.minSup}
	res.Stats.PatternsEmitted = len(res.Patterns)
	res.Stats.Duration = time.Since(start)
	res.Sort()
	return res, nil
}

// instance is the internal, allocation-friendly form of qre.Instance.
type instance struct {
	seq, start, end int32
}

func (in instance) export() qre.Instance {
	return qre.Instance{Seq: int(in.seq), Start: int(in.start), End: int(in.end)}
}

// landmark records an already-explored search node for the closed miner's
// equivalence pruning.
type landmark struct {
	pattern   seqdb.Pattern
	instances []instance
}

type miner struct {
	db     *seqdb.Database
	pos    Positions
	opts   Options
	minSup int
	closed bool

	emitted   []MinedPattern
	stats     Stats
	landmarks map[uint64][]landmark
}

func (m *miner) run() {
	// Frequent single events by instance count (apriori base case).
	counts := make(map[seqdb.EventID]int)
	for _, s := range m.db.Sequences {
		for _, e := range s {
			counts[e]++
		}
	}
	events := make([]seqdb.EventID, 0, len(counts))
	for e, c := range counts {
		if c >= m.minSup {
			events = append(events, e)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })

	for _, e := range events {
		insts := m.singleEventInstances(e)
		m.grow(seqdb.Pattern{e}, insts)
	}
}

func (m *miner) singleEventInstances(e seqdb.EventID) []instance {
	var out []instance
	for si := range m.db.Sequences {
		for _, p := range m.pos[si][e] {
			out = append(out, instance{seq: int32(si), start: int32(p), end: int32(p)})
		}
	}
	return out
}

// grow explores the search-tree node for pattern p with instance list insts.
func (m *miner) grow(p seqdb.Pattern, insts []instance) {
	m.stats.NodesExplored++

	extInsts, windowEvents := m.extensions(p, insts)

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
		if witness, pruneSubtree := m.checkLandmarks(p, insts, windowEvents); witness {
			emit = false
			m.stats.NonClosedSuppressed++
			if pruneSubtree {
				m.stats.SubtreesPrunedEquivalent++
				return
			}
		}
		// A suffix extension that preserves the support also witnesses
		// non-closedness of p (Definition 4.2 with a suffix super-sequence).
		if emit {
			for _, list := range extInsts {
				if len(list) == len(insts) {
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

	if m.opts.MaxPatternLength > 0 && len(p) >= m.opts.MaxPatternLength {
		return
	}

	// Deterministic extension order.
	exts := make([]seqdb.EventID, 0, len(extInsts))
	for e := range extInsts {
		exts = append(exts, e)
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i] < exts[j] })

	for _, e := range exts {
		list := extInsts[e]
		if len(list) < m.minSup {
			m.stats.NodesPrunedInfrequent++
			continue
		}
		m.grow(p.Append(e), list)
	}
}

// extensions computes, for every event e, the instance list of p ++ <e>, and
// the set of all events observed in the forward windows of the instances.
//
// For each instance the candidate events are exactly the distinct events of
// the forward window: the run of non-alphabet events following the instance,
// terminated (inclusively) by the first alphabet event. A non-alphabet event
// additionally requires that it does not occur inside the instance span,
// because extending the pattern adds it to the QRE's exclusion set
// (Definition 4.1).
func (m *miner) extensions(p seqdb.Pattern, insts []instance) (map[seqdb.EventID][]instance, map[seqdb.EventID]struct{}) {
	alphabet := p.Alphabet()
	out := make(map[seqdb.EventID][]instance)
	window := make(map[seqdb.EventID]struct{})
	seen := make(map[seqdb.EventID]bool)
	for _, in := range insts {
		s := m.db.Sequences[in.seq]
		for k := range seen {
			delete(seen, k)
		}
		positions := m.pos[in.seq]
		for j := int(in.end) + 1; j < len(s); j++ {
			ev := s[j]
			window[ev] = struct{}{}
			if _, inAlpha := alphabet[ev]; inAlpha {
				// First alphabet event: always a valid extension, and the
				// window ends here.
				out[ev] = append(out[ev], instance{seq: in.seq, start: in.start, end: int32(j)})
				break
			}
			if seen[ev] {
				continue
			}
			seen[ev] = true
			// New symbol: its addition to the alphabet must not invalidate the
			// existing gaps, so it may not occur inside the span.
			if countInRange(positions[ev], int(in.start), int(in.end)+1) > 0 {
				continue
			}
			out[ev] = append(out[ev], instance{seq: in.seq, start: in.start, end: int32(j)})
		}
	}
	return out, window
}

// countInRange returns how many occurrences listed in positions fall in the
// half-open interval [lo, hi).
func countInRange(positions []int, lo, hi int) int {
	if hi <= lo {
		return 0
	}
	a := sort.SearchInts(positions, lo)
	b := sort.SearchInts(positions, hi)
	return b - a
}

func (m *miner) emit(p seqdb.Pattern, insts []instance) {
	mp := MinedPattern{Pattern: p.Clone(), Support: len(insts), SeqSupport: seqSupportOf(insts)}
	if m.opts.IncludeInstances || m.closed {
		// The closed miner always keeps instances while mining: the
		// closedness filter needs them. They are dropped afterwards unless
		// the caller asked for them.
		mp.Instances = exportInstances(insts)
	}
	m.emitted = append(m.emitted, mp)
}

func seqSupportOf(insts []instance) int {
	n := 0
	last := int32(-1)
	for _, in := range insts {
		if in.seq != last {
			n++
			last = in.seq
		}
	}
	return n
}

func exportInstances(insts []instance) []qre.Instance {
	out := make([]qre.Instance, len(insts))
	for i, in := range insts {
		out[i] = in.export()
	}
	return out
}

// checkLandmarks consults and updates the landmark table. It returns
// witness=true when an earlier pattern with an identical instance list is a
// super-sequence of p (so p is certainly not closed), and pruneSubtree=true
// when additionally none of the witness's extra events appears in p's forward
// windows (so no extension of p can behave differently from the witness's
// matching extension and the subtree holds no closed pattern).
func (m *miner) checkLandmarks(p seqdb.Pattern, insts []instance, windowEvents map[seqdb.EventID]struct{}) (witness, pruneSubtree bool) {
	sig := signatureOf(insts)
	entries := m.landmarks[sig]
	for i, lm := range entries {
		if !sameInstances(lm.instances, insts) {
			continue
		}
		if p.IsSubsequenceOf(lm.pattern) && len(p) < len(lm.pattern) {
			witness = true
			pruneSubtree = true
			for _, ev := range lm.pattern {
				if p.Contains(ev) {
					continue
				}
				if _, inWindow := windowEvents[ev]; inWindow {
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
	m.landmarks[sig] = append(entries, landmark{pattern: p.Clone(), instances: append([]instance(nil), insts...)})
	return false, false
}

func signatureOf(insts []instance) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, in := range insts {
		buf[0] = byte(in.seq)
		buf[1] = byte(in.seq >> 8)
		buf[2] = byte(in.seq >> 16)
		buf[3] = byte(in.seq >> 24)
		buf[4] = byte(in.start)
		buf[5] = byte(in.start >> 8)
		buf[6] = byte(in.start >> 16)
		buf[7] = byte(in.start >> 24)
		buf[8] = byte(in.end)
		buf[9] = byte(in.end >> 8)
		buf[10] = byte(in.end >> 16)
		buf[11] = byte(in.end >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func sameInstances(a, b []instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
