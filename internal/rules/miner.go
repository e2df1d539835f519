package rules

import (
	"slices"
	"sync"
	"time"

	"specmine/internal/mine"
	"specmine/internal/seqdb"
)

// Mine mines the recurrent rules of db: the non-redundant set of Definition
// 5.2 by default, every significant rule with Options.Full.
func Mine(db *seqdb.Database, opts Options) (*Result, error) {
	return MineSource(mine.Resident(db), opts)
}

// MineSource is the one search driver, over any mine.Source — a resident
// database or a store's segment catalog. It runs three phases. Phase 1
// enumerates every s-frequent premise with its projection; seeds root
// independent subtrees and no state crosses them, so the premise tree fans
// out across Options.Workers. Phase 2 (non-redundant mode) drops premises
// whose temporal points coincide with a longer premise's via canonical
// signature-based dedup — an order-free decision, so it is unaffected by the
// parallel enumeration. Phase 3 mines one consequent subtree per surviving
// premise, also across the worker pool. Both fan-outs return their outputs
// in seed / job order (mine.ForSeeds), which phase 3 relies on for its view
// cache (below). The result is byte-identical for any worker count because
// the rules are sorted and the Stats summed, whatever order they come in.
//
// Why seed views are exact: a premise grown from seed e starts with e, so
// its projection, its backward-insertion windows (hasEquivalentInsertion
// reads only db.Sequences[pr.Seq] for supporting traces) and its whole
// consequent subtree (PositionsFrom/Extensions over supporting traces only)
// live entirely in traces containing e — traces every SeedView holds. A
// view holding more traces than e's, up to a call-wide view shared by every
// seed and worker, changes nothing: the seed projection comes from e's
// postings, so the other traces are never visited, and the miner only reads
// the view. The only view-local artefacts are the sequence ids inside
// projections; phase 1 remaps them to global ids before jobs leave the
// seed, which makes the canonical premise signatures (and hence the global
// dedup of phase 2) independent of the Source. Global ids map back to
// view-local ones in phase 3; the ascending Global table preserves
// projection order in both directions, so every count, extension set and
// emitted rule is identical for every Source.
func MineSource(src mine.Source, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	nonRedundant := !opts.Full
	minSeqSup := opts.MinSeqSupport
	if opts.MinSeqSupportRel > 0 {
		minSeqSup = seqdb.AbsoluteSupport(opts.MinSeqSupportRel, src.NumSequences())
	}
	events := src.FrequentBySeqSupport(minSeqSup)
	workers := mine.EffectiveWorkers(opts.Workers)
	var stats Stats

	// Phase 1: premise enumeration, one seed's view at a time. The walker's
	// per-event scratch sizes by the shared dictionary space; its one
	// extender rebinds to each view.
	type seedOut struct {
		jobs     []consequentJob
		explored int
		pruned   int
		err      error
	}
	numEvents := src.NumEvents()
	outs := mine.ForSeeds(len(events), workers, func() *premiseWalker {
		return &premiseWalker{
			opts:      opts,
			minSeqSup: minSeqSup,
			nr:        nonRedundant,
			path:      make(seqdb.Pattern, 0, 32),
			seen:      mine.NewStampSet(numEvents),
			cnt:       make([]int32, numEvents),
			cntStamp:  make([]uint32, numEvents),
		}
	}, func(wk *premiseWalker, i int) seedOut {
		sv, err := src.AcquireSeed(events[i])
		if err != nil {
			return seedOut{err: err}
		}
		defer sv.Release()
		wk.db = sv.DB
		wk.ext.Rebind(sv.Idx)
		wk.jobs = nil
		wk.explored = 0
		wk.pruned = 0
		wk.walkSeed(events[i])
		if sv.Global != nil {
			// Remap every job's projection to global sequence ids and
			// recompute its signature over them. The fresh slices also free
			// the jobs from the extender's arenas, so the view is
			// collectable once released.
			for j := range wk.jobs {
				gp := make([]mine.Proj, len(wk.jobs[j].proj))
				for k, pr := range wk.jobs[j].proj {
					gp[k] = mine.Proj{Seq: sv.Global[pr.Seq], Pos: pr.Pos}
				}
				wk.jobs[j].proj = gp
				wk.jobs[j].sig = premiseSignature(wk.jobs[j].pre.Last(), gp)
			}
		}
		return seedOut{jobs: wk.jobs, explored: wk.explored, pruned: wk.pruned}
	})
	var jobs []consequentJob
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		jobs = append(jobs, outs[i].jobs...)
		stats.PremisesExplored += outs[i].explored
		stats.PremisesPrunedRedundant += outs[i].pruned
	}

	// Phase 2: canonical premise dedup over global projections (Definition
	// 5.2 applied at the premise level; see dedupPremises).
	if nonRedundant {
		jobs = dedupPremises(jobs, &stats)
	}

	// Phase 3: consequent mining. Jobs arrive seed-major (phase 1 merges in
	// seed order and dedup preserves order), so each worker caches the view of
	// the last seed it served and only re-acquires on a seed change.
	type jobOut struct {
		rules []Rule
		stats Stats
		err   error
	}
	var (
		liveMu sync.Mutex
		live   []*consequentWorker
	)
	jouts := mine.ForSeeds(len(jobs), workers, func() *consequentWorker {
		cw := &consequentWorker{src: src, w: ruleWorker{opts: opts, nr: nonRedundant}}
		liveMu.Lock()
		live = append(live, cw)
		liveMu.Unlock()
		return cw
	}, func(cw *consequentWorker, i int) jobOut {
		if err := cw.bind(jobs[i].pre[0]); err != nil {
			return jobOut{err: err}
		}
		proj := jobs[i].proj
		if cw.sv.Global != nil {
			lp := make([]mine.Proj, len(proj))
			for k, pr := range proj {
				lp[k] = mine.Proj{Seq: cw.sv.LocalOf(pr.Seq), Pos: pr.Pos}
			}
			proj = lp
		}
		cw.w.rules = nil
		cw.w.mineConsequents(jobs[i].pre, proj)
		var out jobOut
		out.rules = cw.w.rules
		cw.w.drainStats(&out.stats)
		return out
	})
	// ForSeeds offers no per-worker teardown, so the workers' final views are
	// released here.
	for _, cw := range live {
		cw.release()
	}
	var mined []Rule
	for i := range jouts {
		if jouts[i].err != nil {
			return nil, jouts[i].err
		}
		mined = append(mined, jouts[i].rules...)
		stats.ConsequentNodesExplored += jouts[i].stats.ConsequentNodesExplored
		stats.RulesSuppressedRedundant += jouts[i].stats.RulesSuppressedRedundant
	}

	if nonRedundant {
		kept := FilterRedundant(mined)
		stats.RulesSuppressedRedundant += len(mined) - len(kept)
		mined = kept
	}
	res := &Result{
		Rules:      mined,
		Stats:      stats,
		MinSeqSup:  minSeqSup,
		MinInstSup: opts.MinInstanceSupport,
		MinConf:    opts.MinConfidence,
	}
	res.Stats.RulesEmitted = len(res.Rules)
	res.Stats.Duration = time.Since(start)
	res.Sort()
	return res, nil
}

// consequentWorker is one phase-3 pool goroutine's state: the currently
// bound seed view and the one ruleWorker that mines every job it serves.
// Rebinding releases the previous view.
type consequentWorker struct {
	src mine.Source

	seed  seqdb.EventID
	sv    *mine.SeedView
	w     ruleWorker
	bound bool
}

// bind ensures the worker holds seed's view, rebinding the ruleWorker's
// index and extender to it. Every job releases its extension sets before it
// returns, so nothing in the extender's arenas outlives the previous view.
func (cw *consequentWorker) bind(seed seqdb.EventID) error {
	if cw.bound && cw.seed == seed {
		return nil
	}
	cw.release()
	sv, err := cw.src.AcquireSeed(seed)
	if err != nil {
		return err
	}
	cw.seed, cw.sv, cw.bound = seed, sv, true
	cw.w.idx = sv.Idx
	cw.w.ext.Rebind(sv.Idx)
	return nil
}

func (cw *consequentWorker) release() {
	if cw.bound {
		cw.sv.Release()
		cw.sv, cw.bound = nil, false
	}
}

// The miner's pseudo-projections are the framework's mine.Proj entries:
//
//   - a premise projection holds, per sequence containing the premise, the
//     position of the premise's earliest completion (its first temporal
//     point);
//   - a consequent record stands for one temporal point and holds the
//     position reached by the earliest embedding of the current consequent
//     after it.

// consequentJob is one unit of parallel work: an enumerated premise whose
// consequent subtree is mined independently of every other premise. sig is
// the canonical signature of the premise's temporal-point identity (last
// event plus first temporal point per sequence), which drives the
// non-redundant miner's dedup.
type consequentJob struct {
	pre  seqdb.Pattern
	proj []mine.Proj
	sig  uint64
}

// dedupPremises drops every premise that has an equivalent proper
// super-sequence among the enumerated premises. Two premises are equivalent
// when they share the last event and the first temporal point in every
// sequence: their full temporal-point sets then coincide, so for any
// consequent the two resulting rules carry identical statistics, and
// Definition 5.2 keeps the one with the longer (super-sequence)
// concatenation. The decision depends only on the premise set — not on any
// exploration order — so it commutes with the parallel walk; rules the
// dropped premises would have produced are covered by the kept equivalent
// super-sequences (redundancy chains terminate at a maximal premise, which
// is never dropped), and the exact FilterRedundant pass still runs last.
func dedupPremises(jobs []consequentJob, stats *Stats) []consequentJob {
	groups := make(map[uint64][]int32, len(jobs))
	for i := range jobs {
		groups[jobs[i].sig] = append(groups[jobs[i].sig], int32(i))
	}
	// Decide every drop against the pristine job list before compacting:
	// the group lists address jobs by index, so compacting in place while
	// still deciding would compare against overwritten slots.
	drop := make([]bool, len(jobs))
	for i := range jobs {
		last := jobs[i].pre.Last()
		for _, k := range groups[jobs[i].sig] {
			if int(k) == i {
				continue
			}
			other := &jobs[k]
			if len(other.pre) <= len(jobs[i].pre) || other.pre.Last() != last || !sameProj(other.proj, jobs[i].proj) {
				continue
			}
			if jobs[i].pre.IsSubsequenceOf(other.pre) {
				drop[i] = true
				break
			}
		}
	}
	kept := jobs[:0]
	for i := range jobs {
		if drop[i] {
			stats.PremisesPrunedRedundant++
			continue
		}
		kept = append(kept, jobs[i])
	}
	return kept
}

// premiseWalker enumerates the premise search tree below one seed event
// (step 1 of Section 5). Each pool goroutine owns a walker, so the scratch
// buffers are never shared. Extension passes run on the shared framework's
// count-first Extender, rebound to each seed's view; because every
// enumerated premise's projection is retained inside its consequent job, the
// walker never releases extension sets back to the arenas.
type premiseWalker struct {
	db        *seqdb.Database
	opts      Options
	minSeqSup int
	nr        bool

	ext      mine.Extender
	path     seqdb.Pattern
	jobs     []consequentJob
	explored int
	pruned   int

	// Backscan scratch (see hasEquivalentInsertion).
	seen     mine.StampSet
	cnt      []int32
	cntStamp []uint32
	cntEpoch uint32
	abTab    []int32
}

func (wk *premiseWalker) walkSeed(e seqdb.EventID) {
	wk.path = append(wk.path[:0], e)
	wk.growPremise(wk.path, wk.ext.SeedProj(e))
}

// growPremise records the node as a consequent job and recurses into its
// s-frequent extensions. In non-redundant mode, premises dominated by an
// equivalent single-insertion super-sequence are skipped subtree and all:
// the dominating premise's subtree produces rules with identical statistics
// and longer concatenations for everything this subtree could emit.
//
// Candidate premise extensions are events occurring after the first temporal
// point in at least minSeqSup sequences (Theorem 2, apriori on s-support);
// the framework's count-first pass counts each event at its first occurrence
// per suffix and materialises only supra-threshold extension projections —
// infrequent projections would otherwise be pinned inside jobs for nothing.
func (wk *premiseWalker) growPremise(pre seqdb.Pattern, proj []mine.Proj) {
	wk.explored++
	if wk.nr && wk.hasEquivalentInsertion(pre, proj) {
		wk.pruned++
		return
	}
	wk.jobs = append(wk.jobs, consequentJob{
		pre:  pre.Clone(),
		proj: proj,
		sig:  premiseSignature(pre.Last(), proj),
	})

	if wk.opts.MaxPremiseLength > 0 && len(pre) >= wk.opts.MaxPremiseLength {
		return
	}

	es := wk.ext.Extensions(proj, int32(wk.minSeqSup))
	for i := range es.Exts {
		if int(es.Exts[i].Count) < wk.minSeqSup {
			continue
		}
		wk.growPremise(append(pre, es.Exts[i].Event), es.Exts[i].Proj)
	}
}

// hasEquivalentInsertion is the canonical (order-free) counterpart of
// landmark-based premise pruning: it reports whether some single event can be
// inserted into pre's prefix to give a longer premise with the *same*
// temporal-point identity — same last event, same first temporal point in
// every supporting sequence, hence the same supporting sequences. When such
// an insertion exists (and stays within MaxPremiseLength, so the dominating
// premise is itself enumerated), every rule minable from pre or any of its
// extensions is redundant per Definition 5.2 against the dominating
// premise's subtree, so pre's subtree is skipped. Chains of insertions
// terminate at a maximal premise, which this test never skips.
//
// The test is exact, in the BIDE backward-extension style: an event e can be
// inserted at slot i of the prefix P' = pre[:len-1] while preserving the
// first temporal point fe of a sequence s iff e occurs strictly between the
// end of the greedy (earliest) embedding of P'[:i] and the start of the
// latest embedding of P'[i:] within s[0..fe-1]. The skip fires iff for some
// slot one event lies in that window in every supporting sequence.
func (wk *premiseWalker) hasEquivalentInsertion(pre seqdb.Pattern, proj []mine.Proj) bool {
	if wk.opts.MaxPremiseLength > 0 && len(pre)+1 > wk.opts.MaxPremiseLength {
		return false
	}
	m := len(pre) - 1
	prefix := pre[:m]

	// Per sequence: a[i] = end position of the greedy embedding of P'[:i]
	// (-1 for the empty prefix), b[i] = start position of the latest
	// embedding of P'[i:] within s[0..fe-1] (fe for the empty suffix). Both
	// embeddings exist because fe is pre's first temporal point, so the
	// prefix embeds within s[0..fe-1].
	width := m + 1
	need := 2 * width * len(proj)
	if cap(wk.abTab) < need {
		wk.abTab = make([]int32, need)
	}
	ab := wk.abTab[:need]
	for si, pr := range proj {
		s := wk.db.Sequences[pr.Seq]
		a := ab[2*si*width : (2*si+1)*width]
		b := ab[(2*si+1)*width : (2*si+2)*width]
		a[0] = -1
		j := 0
		for k := 0; k < m; k++ {
			for s[j] != prefix[k] {
				j++
			}
			a[k+1] = int32(j)
			j++
		}
		b[m] = pr.Pos
		j = int(pr.Pos) - 1
		for k := m - 1; k >= 0; k-- {
			for s[j] != prefix[k] {
				j--
			}
			b[k] = int32(j)
			j--
		}
	}

	// Slot-major intersection: cnt[ev] counts the sequences (so far) whose
	// slot-i window contains ev; an event reaching len(proj) proves the
	// insertion. The strict cnt[ev] == si chain ensures membership in every
	// previous sequence.
	for i := 0; i <= m; i++ {
		cntEpoch := seqdb.BumpEpoch(&wk.cntEpoch, wk.cntStamp)
		for si, pr := range proj {
			s := wk.db.Sequences[pr.Seq]
			lo := ab[2*si*width+i] + 1
			hi := ab[(2*si+1)*width+i]
			wk.seen.Begin()
			for p := lo; p < hi; p++ {
				ev := s[p]
				if !wk.seen.TestAndSet(ev) {
					continue
				}
				if si == 0 {
					wk.cntStamp[ev] = cntEpoch
					wk.cnt[ev] = 1
					if len(proj) == 1 {
						return true
					}
					continue
				}
				if wk.cntStamp[ev] == cntEpoch && wk.cnt[ev] == int32(si) {
					wk.cnt[ev] = int32(si) + 1
					if si+1 == len(proj) {
						return true
					}
				}
			}
		}
	}
	return false
}

// premiseSignature hashes the premise's temporal-point identity — the last
// event plus the first temporal point in every supporting sequence — with
// stack-allocated FNV-1a (this runs once per premise node).
func premiseSignature(last seqdb.EventID, proj []mine.Proj) uint64 {
	h := seqdb.NewHash64().Mix16(int32(last))
	for _, pr := range proj {
		h = h.Mix32(pr.Seq).Mix32(pr.Pos)
	}
	return uint64(h)
}

func sameProj(a, b []mine.Proj) bool {
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

// ruleWorker mines consequent subtrees. Each pool goroutine owns one, so the
// scratch buffers are never shared. Unlike the premise walker, the
// consequent search retains nothing past a node's subtree, so extension sets
// are released back to the extender's arenas as soon as a node is explored.
type ruleWorker struct {
	idx       *seqdb.PositionIndex
	opts      Options
	nr        bool
	ext       mine.Extender
	rules     []Rule
	nodes     int
	redundant int

	// points holds, per premise sequence, the premise's temporal points
	// while mineConsequents builds the records.
	points [][]int32

	// The premise whose consequents are being grown, its s-support, its
	// number of temporal points and the confidence floor on the temporal
	// points a consequent must still satisfy (Theorem 3).
	pre          seqdb.Pattern
	seqSup       int
	totalTP      int
	minSatisfied int
}

// drainStats moves the worker's counters into stats.
func (w *ruleWorker) drainStats(stats *Stats) {
	stats.ConsequentNodesExplored += w.nodes
	stats.RulesSuppressedRedundant += w.redundant
	w.nodes = 0
	w.redundant = 0
}

// mineConsequents performs steps 2–4 for one premise: it projects the
// database at the premise's temporal points, one record per point, and grows
// consequents with confidence-based pruning (Theorem 3).
func (w *ruleWorker) mineConsequents(pre seqdb.Pattern, proj []mine.Proj) {
	last := pre.Last()
	total := 0
	// One list per premise sequence: size the scratch once per premise.
	w.points = slices.Grow(w.points[:0], len(proj))
	for _, pr := range proj {
		ps := w.idx.PositionsFrom(int(pr.Seq), last, int(pr.Pos))
		w.points = append(w.points, ps)
		total += len(ps)
	}
	records := make([]mine.Proj, 0, total)
	for k, pr := range proj {
		for _, t := range w.points[k] {
			records = append(records, mine.Proj{Seq: pr.Seq, Pos: t})
		}
	}
	// The lists alias the view's rows: drop them, so a released view is not
	// kept reachable through the worker.
	clear(w.points)
	w.points = w.points[:0]
	if total == 0 {
		return
	}
	// The confidence floor is fixed for the whole premise, so it also decides
	// which candidate extensions are worth materialising: extensions below
	// the floor are never grown, and the redundancy check in growConsequent
	// can only match extensions whose count equals len(records) >=
	// minSatisfied.
	minSatisfied := int(w.opts.MinConfidence*float64(total) - 1e-9)
	if float64(minSatisfied) < w.opts.MinConfidence*float64(total)-1e-9 {
		minSatisfied++
	}
	w.pre, w.seqSup, w.totalTP, w.minSatisfied = pre, len(proj), total, max(minSatisfied, 1)
	w.growConsequent(nil, records, 0)
}

// growConsequent explores the consequent search tree below post for the
// worker's premise. records holds the temporal points at which post is still
// satisfied, positioned at the earliest embedding of post after each point.
// iSup is the rule's i-support, carried from the parent's extension
// (mine.Ext.ISup): the occurrences of post's last event at or after the
// first record of each sequence, which carries the sequence's earliest
// completion of pre ++ post. It is unused at the root (empty post).
//
// When the node's children reach MaxConsequentLength they are leaves: no
// child of theirs is grown and, at the bound, none has a longer consequent
// to be redundant against, so a leaf reads only its count and i-support. The
// node then takes mine.Extender.Counts instead of Extensions and emits each
// leaf's rule straight from its extension, materialising no projection.
func (w *ruleWorker) growConsequent(post seqdb.Pattern, records []mine.Proj, iSup int) {
	w.nodes++
	leaves := w.opts.MaxConsequentLength > 0 && len(post)+1 >= w.opts.MaxConsequentLength
	var es mine.ExtSet
	if leaves {
		es = w.ext.Counts(records, int32(w.minSatisfied))
	} else {
		es = w.ext.Extensions(records, int32(w.minSatisfied))
	}

	if len(post) > 0 && w.significant(len(records), iSup) {
		emit := true
		if w.nr {
			// A consequent extension that keeps every statistic identical
			// makes this rule redundant (Definition 5.2 keeps the longer
			// consequent), so it is not reported on its own. Such an
			// extension has count == len(records) >= minSatisfied, so its
			// i-support is always counted.
			for i := range es.Exts {
				if int(es.Exts[i].Count) == len(records) && int(es.Exts[i].ISup) == iSup {
					emit = false
					w.redundant++
					break
				}
			}
		}
		if emit {
			w.emit(post, len(records), iSup)
		}
	}

	for i := range es.Exts {
		x := &es.Exts[i]
		// Theorem 3: extending the consequent can only lose satisfied temporal
		// points, so subtrees below the confidence threshold are pruned.
		if int(x.Count) < w.minSatisfied {
			continue
		}
		if !leaves {
			w.growConsequent(post.Append(x.Event), x.Proj, int(x.ISup))
			continue
		}
		w.nodes++
		if w.significant(int(x.Count), int(x.ISup)) {
			w.emit(post.Append(x.Event), int(x.Count), int(x.ISup))
		}
	}
	w.ext.Release(es)
}

// significant reports whether a consequent satisfied at the given number of
// the premise's temporal points, with i-support iSup, meets the
// instance-support and confidence thresholds.
func (w *ruleWorker) significant(satisfied, iSup int) bool {
	conf := float64(satisfied) / float64(w.totalTP)
	return iSup >= w.opts.MinInstanceSupport && conf+1e-12 >= w.opts.MinConfidence
}

// emit records the rule pre -> post. post is the node's own slice (every
// consequent is built by Pattern.Append), so the rule keeps it.
func (w *ruleWorker) emit(post seqdb.Pattern, satisfied, iSup int) {
	w.rules = append(w.rules, Rule{
		Pre:             w.pre.Clone(),
		Post:            post,
		SeqSupport:      w.seqSup,
		InstanceSupport: iSup,
		Confidence:      float64(satisfied) / float64(w.totalTP),
	})
}
