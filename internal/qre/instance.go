package qre

import (
	"fmt"

	"specmine/internal/seqdb"
)

// Instance identifies one occurrence of an iterative pattern: the sequence it
// occurs in and the (inclusive, 0-based) start and end positions of the
// matching substring. An instance of P in the paper is the triple
// (seq_P, start_P, end_P); correspondence between instances (Definition 4.2)
// is containment of spans within the same sequence.
type Instance struct {
	Seq   int
	Start int
	End   int
}

// String renders the instance compactly for diagnostics.
func (in Instance) String() string {
	return fmt.Sprintf("(seq=%d,%d..%d)", in.Seq, in.Start, in.End)
}

// Span is the packed form of Instance used inside the mining hot paths: three
// int32s instead of three ints, so instance lists pack twice as densely into
// cache lines and arenas. Spans are exported to Instances only at result
// boundaries.
type Span struct {
	Seq, Start, End int32
}

// Export widens the span to the public Instance form.
func (sp Span) Export() Instance {
	return Instance{Seq: int(sp.Seq), Start: int(sp.Start), End: int(sp.End)}
}

// Contains reports whether in's span contains other's span (same sequence,
// start <= other.Start and end >= other.End). This is exactly the
// correspondence relation of Definition 4.2 read from the super-pattern side.
func (in Instance) Contains(other Instance) bool {
	return in.Seq == other.Seq && in.Start <= other.Start && in.End >= other.End
}

// MatchAt attempts to match pattern p as an iterative-pattern instance
// starting exactly at position start of s. It returns the end position and
// true on success. The match is deterministic: from a given start there is at
// most one instance, because each gap must be free of the pattern's alphabet,
// so the next pattern event must be the first alphabet event encountered.
//
// Alphabet membership is tested by scanning the pattern itself: mined
// patterns are short, so the linear probe beats a map both in time and in
// allocations (none).
func MatchAt(s seqdb.Sequence, p seqdb.Pattern, start int) (end int, ok bool) {
	if len(p) == 0 || start < 0 || start >= len(s) || s[start] != p[0] {
		return 0, false
	}
	pos := start
	for k := 1; k < len(p); k++ {
		pos++
		for pos < len(s) && !p.Contains(s[pos]) {
			pos++
		}
		if pos >= len(s) || s[pos] != p[k] {
			return 0, false
		}
	}
	return pos, true
}

// FindAllInstances returns every instance of p across the whole database in
// (sequence, start) order. Instances may overlap but each start position
// contributes at most one instance. All instances grow one shared slice, so
// the call costs O(log instances) allocations rather than one per sequence.
func FindAllInstances(db *seqdb.Database, p seqdb.Pattern) []Instance {
	if len(p) == 0 {
		return nil
	}
	var out []Instance
	first := p[0]
	for i, s := range db.Sequences {
		for j, ev := range s {
			if ev != first {
				continue
			}
			if end, ok := MatchAt(s, p, j); ok {
				out = append(out, Instance{Seq: i, Start: j, End: end})
			}
		}
	}
	return out
}

// CountInstances returns the instance support of p: the total number of
// instances across the database. It avoids materialising the instance list.
func CountInstances(db *seqdb.Database, p seqdb.Pattern) int {
	if len(p) == 0 {
		return 0
	}
	n := 0
	first := p[0]
	for _, s := range db.Sequences {
		for i, ev := range s {
			if ev != first {
				continue
			}
			if _, ok := MatchAt(s, p, i); ok {
				n++
			}
		}
	}
	return n
}

// CorrespondsTo reports whether every instance in sub corresponds to a unique
// instance in super, i.e. each sub-instance is contained in the span of a
// distinct super-instance (Definition 4.2, condition 2). Both slices must be
// sorted by (Seq, Start), which is how all finders in this package produce
// them.
func CorrespondsTo(sub, super []Instance) bool {
	if len(sub) == 0 {
		return true
	}
	if len(super) < len(sub) {
		return false
	}
	used := make([]bool, len(super))
	for _, si := range sub {
		found := false
		for j, qi := range super {
			if used[j] {
				continue
			}
			if qi.Contains(si) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
