package qre

import "specmine/internal/seqdb"

// SpanRun is one arithmetic run of pattern instances within a single
// sequence: Count instances whose spans are
//
//	(Seq, Start + i*Stride, End + i*Stride)   for i in [0, Count)
//
// Looping traces — the dense regime of the paper's scalability study — emit
// near-periodic instance lists: a pattern matched inside a loop body produces
// one instance per iteration, each shifted by the loop period. A run captures
// an entire loop's worth of instances in 16 bytes, where the explicit Span
// list costs 12 bytes per instance.
type SpanRun struct {
	Seq    int32
	Start  int32
	End    int32
	Count  int32
	Stride int32
}

// SpanRuns is a run-length-compressed instance list: the sequence of spans it
// represents is the concatenation of its runs. The compression is canonical —
// Append always extends the last run when the incoming span continues its
// arithmetic progression, and greedy extension is deterministic — so two
// SpanRuns values represent the same span sequence if and only if their run
// slices are element-wise equal. Everything that previously compared or
// hashed explicit span lists (the closed miner's landmark table) can
// therefore operate directly on the compressed form.
//
// The zero value is an empty list ready for use. The runs backing slice may
// be provided by a caller-managed free list via Reset.
type SpanRuns struct {
	runs []SpanRun
	n    int
}

// Reset empties the list, keeping (or adopting) the given backing slice so
// arenas can be recycled across search-tree nodes.
func (rs *SpanRuns) Reset(backing []SpanRun) {
	rs.runs = backing[:0]
	rs.n = 0
}

// Append adds one span at the end of the represented sequence, extending the
// last run when sp continues its progression and opening a new run otherwise.
//
// A single-span run has no committed stride yet: the second span fixes it,
// provided it lives in the same sequence, starts strictly later, and spans
// the same length (the stride shifts start and end together). Subsequent
// spans must continue the committed stride exactly.
func (rs *SpanRuns) Append(sp Span) {
	rs.n++
	if len(rs.runs) > 0 {
		last := &rs.runs[len(rs.runs)-1]
		if sp.Seq == last.Seq {
			if last.Count == 1 {
				if d := sp.Start - last.Start; d > 0 && sp.End-last.End == d {
					last.Stride = d
					last.Count = 2
					return
				}
			} else {
				d := last.Stride * (last.Count - 1)
				if sp.Start == last.Start+d+last.Stride && sp.End == last.End+d+last.Stride {
					last.Count++
					return
				}
			}
		}
	}
	rs.runs = append(rs.runs, SpanRun{Seq: sp.Seq, Start: sp.Start, End: sp.End, Count: 1})
}

// Len returns the number of represented spans.
func (rs SpanRuns) Len() int { return rs.n }

// Runs exposes the raw run slice (shared, not to be modified) so hot loops
// can iterate without closure overhead:
//
//	for _, r := range rs.Runs() {
//	    for i, start, end := int32(0), r.Start, r.End; i < r.Count; i, start, end = i+1, start+r.Stride, end+r.Stride {
//	        ...
//	    }
//	}
func (rs SpanRuns) Runs() []SpanRun { return rs.runs }

// ForEach calls fn for every represented span, in order.
func (rs SpanRuns) ForEach(fn func(Span)) {
	for _, r := range rs.runs {
		start, end := r.Start, r.End
		for i := int32(0); i < r.Count; i++ {
			fn(Span{Seq: r.Seq, Start: start, End: end})
			start += r.Stride
			end += r.Stride
		}
	}
}

// Export materialises the public Instance form in one allocation.
func (rs SpanRuns) Export() []Instance {
	out := make([]Instance, 0, rs.n)
	rs.ForEach(func(sp Span) { out = append(out, sp.Export()) })
	return out
}

// Compact returns an independent copy whose backing array is sized exactly
// to the run count. Long-lived holders (the closed miner's landmark table)
// keep compact copies so the original — typically over-allocated, free-listed
// — backing array can be recycled immediately.
func (rs SpanRuns) Compact() SpanRuns {
	runs := make([]SpanRun, len(rs.runs))
	copy(runs, rs.runs)
	return SpanRuns{runs: runs, n: rs.n}
}

// Equal reports whether rs and other represent the same span sequence. By
// canonicality this is plain element-wise run comparison.
func (rs SpanRuns) Equal(other SpanRuns) bool {
	if rs.n != other.n || len(rs.runs) != len(other.runs) {
		return false
	}
	for i := range rs.runs {
		if rs.runs[i] != other.runs[i] {
			return false
		}
	}
	return true
}

// Signature hashes the represented span sequence with the shared
// stack-allocated FNV-1a hasher. Because compression is canonical, hashing
// runs is equivalence-preserving with hashing the explicit spans — and
// proportionally cheaper on compressible (looping) workloads.
func (rs SpanRuns) Signature() uint64 {
	h := seqdb.NewHash64()
	for _, r := range rs.runs {
		h = h.Mix32(r.Seq).Mix32(r.Start).Mix32(r.End).Mix32(r.Count).Mix32(r.Stride)
	}
	return uint64(h)
}

// SeqSupport returns the number of distinct sequences represented. Runs never
// span sequences and arrive grouped by sequence, so one pass suffices.
func (rs SpanRuns) SeqSupport() int {
	n := 0
	last := int32(-1)
	for _, r := range rs.runs {
		if r.Seq != last {
			n++
			last = r.Seq
		}
	}
	return n
}
