// Package seqpattern implements classic sequential pattern mining over a
// sequence database: patterns supported by the number of sequences that
// contain them as subsequences (Agrawal & Srikant; mined here with
// PrefixSpan-style prefix-projected pattern growth).
//
// The repository uses it as the comparator that Section 2 of the paper
// contrasts iterative patterns against (core.MineSequential, and
// rank.SeqPatterns for ranking its output). The recurrent rule miner's
// premises are frequent in the same sense (enough sequences contain them as
// subsequences — Theorem 2), but internal/rules enumerates them with its own
// premise walker over the same kernel rather than calling this package.
//
// Since the unified-kernel refactor the miner runs on the shared count-first
// search framework (internal/mine) over seqdb.PositionIndex: seed patterns
// come straight from the per-event postings, each search node keeps the
// classic last-position pseudo-projection (one mine.Proj per supporting
// sequence), and one counting pass over the projected suffixes decides
// frequency before any extension projection is materialised. The seed
// implementation is preserved under internal/bench/baseline as the
// equivalence oracle.
package seqpattern

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"specmine/internal/mine"
	"specmine/internal/seqdb"
)

// Options configures sequential pattern mining.
type Options struct {
	// MinSeqSupport is the absolute minimum number of sequences that must
	// contain a pattern.
	MinSeqSupport int
	// MinSupportRel, when positive, overrides MinSeqSupport with
	// seqdb.AbsoluteSupport(rel, number of sequences).
	MinSupportRel float64
	// MaxPatternLength bounds pattern length; 0 means unlimited.
	MaxPatternLength int
	// ClosedOnly keeps only closed sequential patterns: patterns with no
	// super-sequence of equal sequence support.
	ClosedOnly bool
	// Workers bounds the parallel worker pool (0/1 sequential, negative =
	// GOMAXPROCS). Results are identical for any value.
	Workers int
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.MinSeqSupport < 1 && o.MinSupportRel <= 0 {
		return errors.New("seqpattern: MinSeqSupport must be >= 1 or MinSupportRel > 0")
	}
	if err := seqdb.CheckSupportRel("MinSupportRel", o.MinSupportRel); err != nil {
		return fmt.Errorf("seqpattern: %w", err)
	}
	if o.MaxPatternLength < 0 {
		return errors.New("seqpattern: MaxPatternLength must be >= 0")
	}
	return nil
}

// MinedPattern is a sequential pattern with its sequence support.
type MinedPattern struct {
	Pattern    seqdb.Pattern
	SeqSupport int
}

// Result is the outcome of a mining run.
type Result struct {
	Patterns   []MinedPattern
	MinSupport int
	Duration   time.Duration
}

// Sort orders patterns by decreasing support then content for deterministic
// output.
func (r *Result) Sort() {
	sort.Slice(r.Patterns, func(i, j int) bool {
		a, b := r.Patterns[i], r.Patterns[j]
		if a.SeqSupport != b.SeqSupport {
			return a.SeqSupport > b.SeqSupport
		}
		return seqdb.ComparePatterns(a.Pattern, b.Pattern) < 0
	})
}

// Mine returns the frequent sequential patterns of db under opts.
func Mine(db *seqdb.Database, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	minSup := opts.MinSeqSupport
	if opts.MinSupportRel > 0 {
		minSup = seqdb.AbsoluteSupport(opts.MinSupportRel, db.NumSequences())
	}
	idx := db.FlatIndex()

	// Frequent seed events straight from the postings (apriori base case:
	// a pattern's support is bounded by its rarest event's sequence support).
	events := idx.FrequentEventsBySeqSupport(minSup)
	workers := mine.EffectiveWorkers(opts.Workers)
	newWorker := func() *worker {
		return &worker{
			ext:    mine.NewExtender(idx),
			minSup: minSup,
			maxLen: opts.MaxPatternLength,
			path:   make(seqdb.Pattern, 0, 32),
		}
	}
	// Each frequent seed event roots an independent subtree. The merged
	// patterns are sorted below, so the result is byte-identical to the
	// sequential run for any worker count, whatever the merge order.
	outs := mine.ForSeeds(len(events), workers, newWorker, func(w *worker, i int) []MinedPattern {
		w.out = nil
		w.mineSeed(events[i])
		return w.out
	})
	res := &Result{MinSupport: minSup}
	for _, o := range outs {
		res.Patterns = append(res.Patterns, o...)
	}
	if opts.ClosedOnly {
		res.Patterns = filterClosed(res.Patterns)
	}
	res.Duration = time.Since(start)
	res.Sort()
	return res, nil
}

type worker struct {
	ext    *mine.Extender
	minSup int
	maxLen int

	// path is the shared pattern buffer for the current search path; the
	// node for depth d works on path[:d+1], so descending never allocates.
	// Emission clones it.
	path seqdb.Pattern
	out  []MinedPattern
}

func (w *worker) mineSeed(e seqdb.EventID) {
	proj := w.ext.SeedProj(e)
	w.path = append(w.path[:0], e)
	w.emit(w.path, len(proj))
	w.grow(w.path, proj)
	w.ext.ReleaseProj(proj)
}

// grow extends the pattern p (a view of the shared path buffer) whose
// pseudo-projection is proj. Count-first: the extension pass counts every
// candidate's sequence support (one projection entry per sequence, so counts
// are supports), and only supra-threshold extensions carry a materialised
// projection to recurse on. When the children reach MaxPatternLength they
// are leaves, emitted straight from their counts: the pass is
// mine.Extender.Counts and materialises no projection.
func (w *worker) grow(p seqdb.Pattern, proj []mine.Proj) {
	if w.maxLen > 0 && len(p) >= w.maxLen {
		return
	}
	leaves := w.maxLen > 0 && len(p)+1 >= w.maxLen
	var es mine.ExtSet
	if leaves {
		es = w.ext.Counts(proj, int32(w.minSup))
	} else {
		es = w.ext.Extensions(proj, int32(w.minSup))
	}
	for i := range es.Exts {
		x := &es.Exts[i]
		if int(x.Count) < w.minSup {
			continue
		}
		child := append(p, x.Event)
		w.emit(child, int(x.Count))
		if !leaves {
			w.grow(child, x.Proj)
		}
	}
	w.ext.Release(es)
}

func (w *worker) emit(p seqdb.Pattern, support int) {
	w.out = append(w.out, MinedPattern{Pattern: p.Clone(), SeqSupport: support})
}

// patternHash is the content hash the closedness filter buckets on.
func patternHash(p seqdb.Pattern) uint64 {
	h := seqdb.NewHash64()
	for _, e := range p {
		h = h.Mix32(int32(e))
	}
	return uint64(h)
}

// filterClosed removes patterns that have a super-sequence with equal
// sequence support among the mined set.
//
// The seed compared all pairs within each equal-support group — quadratic,
// and catastrophically so on dense workloads where most patterns share one
// support level. This pass is exact and near-linear instead: because the
// miner emits the complete frequent set, a pattern p is non-closed exactly
// when some mined pattern one event longer is a super-sequence with equal
// support (any longer witness q implies such an intermediate — drop all but
// one of q's extra events; the result contains p, is a subsequence of q, is
// therefore frequent with the same sandwiched support, and was mined). So
// it suffices to take every mined pattern q, form each of its len(q)
// single-deletion subsequences, and mark the ones present in the set with
// q's support. Patterns are located through a content-hash index; the
// support check keeps the decision within equal-support buckets.
func filterClosed(patterns []MinedPattern) []MinedPattern {
	byHash := make(map[uint64][]int32, len(patterns))
	for i := range patterns {
		h := patternHash(patterns[i].Pattern)
		byHash[h] = append(byHash[h], int32(i))
	}
	nonClosed := make([]bool, len(patterns))
	sub := make(seqdb.Pattern, 0, 64)
	for i := range patterns {
		q := patterns[i].Pattern
		if len(q) < 2 {
			continue
		}
		for d := 0; d < len(q); d++ {
			if d > 0 && q[d] == q[d-1] {
				// Deleting either of two equal adjacent events yields the
				// same subsequence.
				continue
			}
			sub = append(sub[:0], q[:d]...)
			sub = append(sub, q[d+1:]...)
			for _, j := range byHash[patternHash(sub)] {
				p := &patterns[j]
				if !nonClosed[j] && p.SeqSupport == patterns[i].SeqSupport && p.Pattern.Equal(sub) {
					nonClosed[j] = true
				}
			}
		}
	}
	keep := make([]MinedPattern, 0, len(patterns))
	for i := range patterns {
		if !nonClosed[i] {
			keep = append(keep, patterns[i])
		}
	}
	return keep
}

// SeqSupport recounts the sequence support of p directly, independent of the
// miner. It is used by tests and by callers that need to evaluate arbitrary
// patterns.
func SeqSupport(db *seqdb.Database, p seqdb.Pattern) int {
	n := 0
	for _, s := range db.Sequences {
		if s.ContainsSubsequence(p) {
			n++
		}
	}
	return n
}
