// Package plan compiles trace-selection predicates for predicated queries: a
// Where clause compiles once per query to a Selection, which answers every
// level a query reads traces at — the segment catalog (MaySelect), a
// segment's statistics (Count) and its traces (Traces, a lazy sequence the
// rarest required event's postings drive, the rest applied as residual
// filters) — and Explain reports how a query was answered: the selection
// driver, the segments statistics pruned, and the verifier's counters.
package plan

import (
	"iter"
	"slices"
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

// HasEventPredicates reports whether w constrains trace contents (as opposed
// to ordinals only).
func (w Where) HasEventPredicates() bool {
	return len(w.HasAll) > 0 || len(w.HasAny) > 0
}

// Selection is a Where compiled once per query. Every method takes the
// ordinal range [base, base+n) of the traces it is asked about — a catalog
// segment, or a whole in-memory database at base 0 — so one Selection serves
// every segment of a sweep without rewriting the predicate per segment.
type Selection struct {
	w   Where
	ids []int // w.IDs sorted and deduplicated; nil when w.IDs is empty
}

// Compile compiles w into its Selection.
func (w Where) Compile() *Selection {
	s := &Selection{w: w}
	if len(w.IDs) > 0 {
		s.ids = slices.Compact(slices.Sorted(slices.Values(w.IDs)))
	}
	return s
}

// window clips w's ordinal window to [base, base+n), as global ordinals.
func (s *Selection) window(base, n int) (lo, hi int) {
	lo, hi = max(base, s.w.From), base+n
	if s.w.To > 0 {
		hi = min(hi, s.w.To)
	}
	return lo, max(lo, hi)
}

// idsIn returns the listed ordinals inside [lo, hi).
func (s *Selection) idsIn(lo, hi int) []int {
	return s.ids[sort.SearchInts(s.ids, lo):sort.SearchInts(s.ids, hi)]
}

// Count returns how many of the ordinals [base, base+n) satisfy the ordinal
// predicates (window and id list). When the Where has no event predicates
// this answers "how many traces of this segment are selected" from the
// catalog alone — the bulk accounting path for segments every rule is
// statically dead on.
func (s *Selection) Count(base, n int) int {
	lo, hi := s.window(base, n)
	if s.ids != nil {
		return len(s.idsIn(lo, hi))
	}
	return hi - lo
}

// MaySelect reports whether the Selection can select any trace of the
// ordinals [base, base+n), whose events are has — the catalog pushdown: an
// ordinal-range or id-list miss, or a required event the statistics prove
// absent, prunes the segment without decoding it.
func (s *Selection) MaySelect(base, n int, has func(seqdb.EventID) bool) bool {
	if s.Count(base, n) == 0 {
		return false
	}
	for _, e := range s.w.HasAll {
		if !has(e) {
			return false
		}
	}
	return len(s.w.HasAny) == 0 || slices.ContainsFunc(s.w.HasAny, has)
}

// Traces returns the selected traces among the ordinals [base, base+n) as a
// lazy ascending sequence of local ordinals (0 is base), plus an explanation
// of the driver: an explicit id list beats everything, else the rarest HasAll
// event's postings drive (predicate pushdown into the index), else an
// ordinal scan; remaining predicates become residual filters. idx indexes
// those n traces by local ordinal and is consulted only for event
// predicates, so it may be nil when the Where has none.
func (s *Selection) Traces(base, n int, idx *seqdb.PositionIndex) (iter.Seq[int], SelectionExplain) {
	// A required event outside the index's event space occurs nowhere.
	for _, e := range s.w.HasAll {
		if e < 0 || int(e) >= idx.NumEvents() {
			return func(func(int) bool) {}, SelectionExplain{Driver: "empty"}
		}
	}

	lo, hi := s.window(base, n)
	lo, hi = lo-base, hi-base
	var (
		drive   iter.Seq[int]
		exp     SelectionExplain
		residue []seqdb.EventID // HasAll events not consumed by the driver
	)
	switch {
	case s.ids != nil:
		ids := s.idsIn(base+lo, base+hi)
		drive = func(yield func(int) bool) {
			for _, id := range ids {
				if !yield(id - base) {
					return
				}
			}
		}
		exp = SelectionExplain{Driver: "ids", EstTraces: len(ids)}
		residue = s.w.HasAll
	case len(s.w.HasAll) > 0:
		driver := s.w.HasAll[0]
		for _, e := range s.w.HasAll[1:] {
			if sup, ds := idx.EventSeqSupport(e), idx.EventSeqSupport(driver); sup < ds || (sup == ds && e < driver) {
				driver = e
			}
		}
		for _, e := range s.w.HasAll {
			if e != driver {
				residue = append(residue, e)
			}
		}
		seqs := idx.SeqsContaining(driver)
		drive = func(yield func(int) bool) {
			for _, v := range seqs {
				l := int(v)
				if l >= hi {
					return // ascending: nothing later can re-enter the window
				}
				if l >= lo && !yield(l) {
					return
				}
			}
		}
		exp = SelectionExplain{Driver: "postings", DriverEvent: driver, EstTraces: idx.EventSeqSupport(driver)}
	default:
		drive = func(yield func(int) bool) {
			for l := lo; l < hi; l++ {
				if !yield(l) {
					return
				}
			}
		}
		exp = SelectionExplain{Driver: "scan", EstTraces: hi - lo}
	}

	anyOf := s.w.HasAny
	if len(residue) > 0 {
		exp.Filters++
	}
	if len(anyOf) > 0 {
		exp.Filters++
	}
	if exp.Filters == 0 {
		return drive, exp
	}
	keep := func(l int) bool {
		for _, e := range residue {
			if !idx.SeqContains(l, e) {
				return false
			}
		}
		if len(anyOf) == 0 {
			return true
		}
		for _, e := range anyOf {
			if idx.SeqContains(l, e) {
				return true
			}
		}
		return false
	}
	return func(yield func(int) bool) {
		for l := range drive {
			if keep(l) && !yield(l) {
				return
			}
		}
	}, exp
}
