package verify

import "specmine/internal/seqdb"

// Out-of-core checking support: segment-level skip decisions driven by
// per-segment event statistics.
//
// A rule accumulates temporal points on a trace only if its full premise
// embeds, which requires every premise event to occur. When some premise
// event provably never occurs anywhere in a segment, no trace in the segment
// produces a temporal point for that rule, and Close never visits the rule
// there. If that holds for EVERY rule in the engine, Close does exactly one
// thing per trace of the segment: count it. The whole segment can then be
// answered without decoding its body — Tally.Skip adds the count in bulk.

// SegmentSkippable reports whether a segment whose event population is
// described by mayContain can be skipped: for every rule, at least one
// premise event is absent. mayContain may overapproximate; a false positive
// only loses the skip, never correctness.
func (e *Engine) SegmentSkippable(mayContain func(seqdb.EventID) bool) bool {
	for r := range e.ruleSet {
		if e.premiseMayOccur(r, mayContain) {
			return false
		}
	}
	return true
}

// premiseMayOccur reports whether every premise event of rule r may occur
// according to mayContain. The premise is ruleLast[r] plus the trie-prefix
// chain from rulePreNode[r] up to (excluding) the root.
func (e *Engine) premiseMayOccur(r int, mayContain func(seqdb.EventID) bool) bool {
	if !mayContain(e.ruleLast[r]) {
		return false
	}
	for n := e.rulePreNode[r]; n != 0; n = e.trieParent[n] {
		if !mayContain(e.trieEvent[n]) {
			return false
		}
	}
	return true
}
