package verify

import "specmine/internal/seqdb"

// Checker is the online conformance automaton for one trace: events are fed
// one at a time with Advance, and Close finalises the trace, folding its
// outcome into a Tally. It evaluates the same compiled rule set as
// Engine.Check — which is a thin driver over this path — but requires
// neither the whole trace nor a positional index up front, so conformance is
// tracked as traffic arrives.
//
// The per-trace state is NFA-like over the engine's shared structures:
//
//   - g[node] is the position at which the premise prefix of a trie node
//     first completed (notYet until it does). An arriving event can only
//     complete nodes labelled with it, found through an event-keyed CSR.
//   - For each distinct consequent <p1..pk>, postState tracks, per prefix
//     length j, the latest position from which p1..pj embeds into the trace
//     seen so far. An arriving event pj can only improve state j from state
//     j-1; entries are visited in descending j so one event never chains two
//     steps. The full-pattern entry equals the "latest embedding start" the
//     batched PR 2 engine computed backwards over the index.
//   - Each occurrence of a premise group's final event after its prefix
//     completion is a temporal point, recorded once per group — rules
//     sharing a whole premise (thousands do in mined rule sets, differing
//     only in consequent) share the list. A group's first point also enters
//     it in fired, so Close visits only the rules of groups that fired. At
//     Close, a rule's satisfied temporal points are exactly those below its
//     consequent's latest embedding start (satisfaction is monotone), found
//     by binary search — the same split the batched engine performed per
//     rule.
//
// A Checker is not safe for concurrent use; create one per goroutine (they
// all share the immutable engine). Close resets the checker, so one checker
// serves any number of traces in sequence without further allocation.
type Checker struct {
	e   *Engine
	pos int32

	g         []int32   // first-completion position per trie node
	postState []int32   // flattened latest-embedding-start DP, -1 = none
	groupTps  [][]int32 // temporal points per premise group, ascending
	fired     []int32   // groups with temporal points, by their first one
}

// notYet marks a trie node whose premise prefix has not completed yet (and,
// at Close, one that never did — a premise that cannot fire). The root uses
// -1 ("completes before position 0"), so the marker must be distinct.
const notYet = int32(-2)

// NewChecker returns a fresh online checker for the engine's rule set.
func (e *Engine) NewChecker() *Checker {
	c := &Checker{
		e:         e,
		g:         make([]int32, len(e.trieEvent)),
		postState: make([]int32, e.postStates),
		groupTps:  make([][]int32, len(e.groupPreNode)),
	}
	c.reset()
	return c
}

// reset discards the current trace's state, making the checker ready for the
// next trace. Only the groups that fired hold temporal points, so only their
// lists are cleared.
func (c *Checker) reset() {
	c.pos = 0
	c.g[0] = -1
	for i := 1; i < len(c.g); i++ {
		c.g[i] = notYet
	}
	for i := range c.postState {
		c.postState[i] = -1
	}
	for _, grp := range c.fired {
		c.groupTps[grp] = c.groupTps[grp][:0]
	}
	c.fired = c.fired[:0]
}

// Advance feeds the next event of the current trace.
func (c *Checker) Advance(ev seqdb.EventID) {
	p := c.pos
	c.pos++
	e := c.e
	if ev < 0 || int(ev) >= e.alphabet {
		return
	}

	// Premise-prefix completions. Node ids ascend within the list, so a
	// parent completing at p is seen before its children, and the strict
	// pg < p guard keeps a child from consuming the same occurrence.
	for _, n := range e.nodesByEvent[e.nodesOff[ev]:e.nodesOff[ev+1]] {
		if c.g[n] == notYet {
			pg := c.g[e.trieParent[n]]
			if pg != notYet && pg < p {
				c.g[n] = p
			}
		}
	}

	// Latest-embedding DP for the distinct consequents (descending j per
	// post, so this occurrence extends at most one step per chain).
	for i := e.stepsOff[ev]; i < e.stepsOff[ev+1]; i++ {
		base := e.postStateOff[e.stepPost[i]]
		j := e.stepJ[i]
		if j == 0 {
			c.postState[base] = p
		} else if s := c.postState[base+j-1]; s >= 0 {
			c.postState[base+j] = s
		}
	}

	// New temporal points: premise groups whose final event this is, with
	// the prefix completed strictly earlier.
	for _, grp := range e.groupsByLast[e.groupsOff[ev]:e.groupsOff[ev+1]] {
		pg := c.g[e.groupPreNode[grp]]
		if pg != notYet && pg < p {
			if len(c.groupTps[grp]) == 0 {
				c.fired = append(c.fired, grp)
			}
			c.groupTps[grp] = append(c.groupTps[grp], p)
		}
	}
}

// Close finalises the current trace as sequence seq into t, which must come
// from the engine's NewTally, and resets the checker for the next trace. It
// counts the trace, and each fired group's temporal points, and visits only
// the rules of the premise groups that fired: a rule whose premise never
// completed satisfies the trace with zero temporal points, which
// Engine.Reports derives from the trace count alone. So Close costs what the
// fired groups' rules cost, not the rule count. A rule's satisfied temporal
// points are those below its consequent's latest embedding start, and a rule
// whose every point is satisfied costs one comparison, since Engine.Reports
// also derives the satisfied counts by subtraction. Every other point is a
// violation, counted for its rule and logged to t as one (rule, seq,
// temporal point) entry — group by group in firing order, rules ascending
// within a group, points ascending within a rule. Once t's log holds
// partEntries violations, Close cuts it into a part, so the log never holds
// more than one Close's violations beyond that bound.
func (c *Checker) Close(seq int, t *Tally) {
	e := c.e
	s := int32(seq)
	t.closed++
	for _, grp := range c.fired {
		tps := c.groupTps[grp]
		t.groupTps[grp] += len(tps)
		last := tps[len(tps)-1]
		lo, hi := e.groupRulesOff[grp], e.groupRulesOff[grp+1]
		rules := e.groupRules[lo:hi]
		for k, li := range e.groupLate[lo:hi] {
			late := c.postState[li]
			if last < late {
				continue // every point satisfied: nothing to count
			}
			sat := lowerBound(tps, late)
			r := rules[k]
			n := &t.counts[r]
			n.violTraces++
			n.violTps += len(tps) - sat
			for _, tp := range tps[sat:] {
				t.entries = append(t.entries, logEntry{rule: r, seq: s, tp: tp})
			}
		}
	}
	if len(t.entries) >= partEntries {
		t.cut()
	}
	c.reset()
}

// lowerBound returns the number of entries in sorted that are < limit. The
// halving loop is branch-free in its data-dependent comparison (a conditional
// add the compiler lowers to CMOV), matching the seqdb postings probes.
func lowerBound(sorted []int32, limit int32) int {
	base, n := 0, len(sorted)
	for n > 1 {
		half := n >> 1
		if sorted[base+half-1] < limit {
			base += half
		}
		n -= half
	}
	if n == 1 && sorted[base] < limit {
		base++
	}
	return base
}
