// Package plan compiles trace-selection predicates for predicated queries:
// a Where clause becomes a lazy pull-based iterator over a trace fragment
// (the rarest required event's postings drive enumeration, the rest become
// residual filters), Where's ordinal helpers push the clause into a segment
// catalog, and Explain reports how a query was answered — the selection
// operator, the segments statistics pruned, and the verifier's counters.
package plan

import (
	"sort"

	"specmine/internal/seqdb"
)

// Where is a trace-selection predicate for MineWhere/CheckWhere-style
// queries. The database carries no wall-clock timestamps or external trace
// ids, so windows and id lists are expressed over trace ordinals — the stable
// seal-order position every trace keeps in memory and across the segment
// catalog. The zero value selects every trace; all set fields conjoin.
type Where struct {
	// HasAll keeps traces containing every listed event.
	HasAll []seqdb.EventID
	// HasAny keeps traces containing at least one listed event (when non-empty).
	HasAny []seqdb.EventID
	// From/To keep traces with ordinal in the half-open window [From, To).
	// To <= 0 means "to the end".
	From, To int
	// IDs keeps only the listed trace ordinals (when non-empty). Duplicates
	// and out-of-range entries are ignored.
	IDs []int
}

// Iter is a lazy pull-based trace enumerator: Next returns ascending trace
// ordinals and -1 when exhausted. Operators compose by wrapping; nothing is
// materialised until the consumer pulls.
type Iter interface {
	Next() int
}

// rangeIter drives enumeration with a plain ordinal scan over [next, end).
type rangeIter struct{ next, end int }

func (it *rangeIter) Next() int {
	if it.next >= it.end {
		return -1
	}
	v := it.next
	it.next++
	return v
}

// listIter drives enumeration with an explicit ascending ordinal list,
// windowed to [lo, hi).
type listIter struct {
	ids    []int
	i      int
	lo, hi int
}

func (it *listIter) Next() int {
	for it.i < len(it.ids) {
		v := it.ids[it.i]
		it.i++
		if v >= it.lo && v < it.hi {
			return v
		}
	}
	return -1
}

// postingsIter drives enumeration with an index postings list — the ascending
// sequence ids containing the rarest required event — windowed to [lo, hi).
type postingsIter struct {
	seqs   []int32
	i      int
	lo, hi int
}

func (it *postingsIter) Next() int {
	for it.i < len(it.seqs) {
		v := int(it.seqs[it.i])
		it.i++
		if v >= it.hi {
			return -1 // ascending: nothing later can re-enter the window
		}
		if v >= it.lo {
			return v
		}
	}
	return -1
}

// filterIter applies a residual predicate to each candidate its input yields.
type filterIter struct {
	in   Iter
	keep func(int) bool
}

func (it *filterIter) Next() int {
	for {
		v := it.in.Next()
		if v < 0 || it.keep(v) {
			return v
		}
	}
}

// emptyIter is the provably-empty selection (e.g. a required event that is
// not in the dictionary).
type emptyIter struct{}

func (emptyIter) Next() int { return -1 }

// CompileWhere compiles w into a lazy operator tree over a fragment of n
// traces and returns the enumerator plus an explanation of the chosen driver:
// an explicit id list beats everything, else the rarest HasAll event's
// postings drive (predicate pushdown into the index), else an ordinal scan;
// remaining predicates become residual filters. idx indexes the fragment and
// is consulted only for w's event predicates, so it may be nil when w has
// none.
func CompileWhere(n int, idx *seqdb.PositionIndex, w Where) (Iter, SelectionExplain) {
	lo, hi := w.From, w.To
	if lo < 0 {
		lo = 0
	}
	if hi <= 0 || hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}

	// A required event outside the index's event space occurs nowhere.
	for _, e := range w.HasAll {
		if e < 0 || int(e) >= idx.NumEvents() {
			return emptyIter{}, SelectionExplain{Driver: "empty"}
		}
	}

	var (
		it      Iter
		exp     SelectionExplain
		residue []seqdb.EventID // HasAll events not consumed by the driver
	)
	switch {
	case len(w.IDs) > 0:
		ids := append([]int(nil), w.IDs...)
		sort.Ints(ids)
		dedup := ids[:0]
		for i, v := range ids {
			if i == 0 || v != ids[i-1] {
				dedup = append(dedup, v)
			}
		}
		it = &listIter{ids: dedup, lo: lo, hi: hi}
		exp = SelectionExplain{Driver: "ids", EstTraces: len(dedup)}
		residue = w.HasAll
	case len(w.HasAll) > 0:
		driver := w.HasAll[0]
		for _, e := range w.HasAll[1:] {
			if sup, ds := idx.EventSeqSupport(e), idx.EventSeqSupport(driver); sup < ds || (sup == ds && e < driver) {
				driver = e
			}
		}
		for _, e := range w.HasAll {
			if e != driver {
				residue = append(residue, e)
			}
		}
		it = &postingsIter{seqs: idx.SeqsContaining(driver), lo: lo, hi: hi}
		exp = SelectionExplain{Driver: "postings", DriverEvent: driver, EstTraces: idx.EventSeqSupport(driver)}
	default:
		it = &rangeIter{next: lo, end: hi}
		exp = SelectionExplain{Driver: "scan", EstTraces: hi - lo}
	}

	if len(residue) > 0 {
		events := residue
		exp.Filters++
		it = &filterIter{in: it, keep: func(s int) bool {
			for _, e := range events {
				if !idx.SeqContains(s, e) {
					return false
				}
			}
			return true
		}}
	}
	if len(w.HasAny) > 0 {
		events := append([]seqdb.EventID(nil), w.HasAny...)
		exp.Filters++
		it = &filterIter{in: it, keep: func(s int) bool {
			for _, e := range events {
				if idx.SeqContains(s, e) {
					return true
				}
			}
			return false
		}}
	}
	return it, exp
}

// Local re-expresses w's ordinal predicates relative to a segment whose
// first trace has global ordinal base, so CompileWhere can run over the
// segment's own index, whose ordinals start at 0. Event predicates carry
// over unchanged. The segment must overlap w (OrdinalOverlap): shifted past
// its end, a window would read as open-ended.
func (w Where) Local(base int) Where {
	if base == 0 {
		return w
	}
	l := w
	l.From -= base
	if l.To > 0 {
		l.To -= base
	}
	if len(w.IDs) > 0 {
		l.IDs = make([]int, len(w.IDs))
		for i, id := range w.IDs {
			l.IDs[i] = id - base
		}
	}
	return l
}

// matchesOrdinal checks only the ordinal predicates (window and id list).
func (w Where) matchesOrdinal(global int) bool {
	if global < w.From || (w.To > 0 && global >= w.To) {
		return false
	}
	if len(w.IDs) > 0 {
		ok := false
		for _, id := range w.IDs {
			if id == global {
				ok = true
				break
			}
		}
		return ok
	}
	return true
}

// OrdinalOverlap reports whether any ordinal in the half-open range
// [base, base+n) can satisfy w's ordinal predicates — the catalog-level prune
// for segment sweeps (a segment's traces occupy one contiguous ordinal range).
func (w Where) OrdinalOverlap(base, n int) bool {
	end := base + n
	if end <= w.From || (w.To > 0 && base >= w.To) {
		return false
	}
	if len(w.IDs) > 0 {
		for _, id := range w.IDs {
			if id >= base && id < end && w.matchesOrdinal(id) {
				return true
			}
		}
		return false
	}
	return true
}

// CountOrdinalMatches returns how many ordinals in [base, base+n) satisfy w's
// ordinal predicates. When w has no event predicates this answers "how many
// traces of this segment are selected" without decoding the body — the bulk
// accounting path for segments every rule is statically dead on.
func (w Where) CountOrdinalMatches(base, n int) int {
	if len(w.IDs) > 0 {
		count := 0
		seen := make(map[int]struct{}, len(w.IDs))
		for _, id := range w.IDs {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			if id >= base && id < base+n && w.matchesOrdinal(id) {
				count++
			}
		}
		return count
	}
	lo, hi := base, base+n
	if w.From > lo {
		lo = w.From
	}
	if w.To > 0 && w.To < hi {
		hi = w.To
	}
	if hi < lo {
		hi = lo
	}
	return hi - lo
}

// HasEventPredicates reports whether w constrains trace contents (as opposed
// to ordinals only).
func (w Where) HasEventPredicates() bool {
	return len(w.HasAll) > 0 || len(w.HasAny) > 0
}
