package verify

import "slices"

// Every check — Engine.Check, the store's segment fan-out and the stream's
// shards — keeps its running outcome in Tallies and builds its reports in
// one place, Engine.Reports, so no per-rule slice ever grows by append:
//
//   - Checker.Close counts each trace and its fired premise groups'
//     temporal points into a Tally, counts the violated traces and points
//     of the rules it visits, and writes each violation it finds as one
//     (rule, seq, tp) entry into the tally's log: one flat, reused buffer
//     instead of one growing slice per rule.
//   - Once the log holds partEntries violations, Close counting-sorts it by
//     rule into a ViolationPart: int32 (seq, tp) pairs grouped per violated
//     rule. Tally.Parts cuts the rest and hands the parts over. A part is
//     independent of every other and never written once cut, so segments
//     checked on different goroutines each produce their own, and the
//     stream's shards keep theirs and share them with every snapshot.
//   - Engine.Reports sums the tallies' counts, derives the satisfied ones by
//     subtraction, and sizes one backing array for all parts' violations,
//     giving every rule its exact-size window of it, filled from the parts
//     in order with Seq rebased.

// partEntries is the log length at which Close cuts a part: the log is then
// a bounded scratch buffer that stops growing after its first part, instead
// of holding a whole segment's or database's violations.
const partEntries = 1 << 16

// Tally is the running check outcome of one goroutine or one stream shard:
// the number of traces closed or skipped into it, the temporal points of
// each premise group over them, each rule's violated traces and points, and
// a log of their violations in the order found: ascending seq, then
// premise group in the order the trace fired them, rules ascending within a
// group, then temporal point. Cutting the log into parts sorts it stably by
// rule, so every rule's violations come out by seq, then temporal point,
// whatever the group order. Sequence numbers are stored as int32: no caller
// numbers 2^31 traces. Create one with Engine.NewTally; a Tally is not safe
// for concurrent use.
type Tally struct {
	closed   int   // traces closed or skipped into the tally
	groupTps []int // temporal points per premise group
	counts   []ruleCounts
	entries  []logEntry      // violations logged and not yet cut
	parts    []ViolationPart // cut by Close, handed out by Parts
	cursor   []int32         // per-rule scratch for cut, all zero between calls
}

// ruleCounts are one rule's violated traces and violated temporal points.
// Its satisfied traces are the tally's trace count minus violTraces, and its
// satisfied points its premise group's points minus violTps.
type ruleCounts struct {
	violTraces, violTps int
}

type logEntry struct{ rule, seq, tp int32 }

// NewTally returns an empty tally for the engine's rules.
func (e *Engine) NewTally() *Tally {
	return &Tally{groupTps: make([]int, len(e.groupPreNode)), counts: make([]ruleCounts, len(e.ruleSet))}
}

// Skip folds n traces into t without checking them: each satisfies every
// rule with zero temporal points, which is precisely what Checker.Close
// records for a trace none of whose rules' premises complete — it counts the
// trace and touches no rule.
func (t *Tally) Skip(n int) { t.closed += n }

// Clone returns a tally holding t's counts and no violations: a frozen copy
// of the counts so far, for a report built beside parts t already handed
// out while t goes on counting.
func (t *Tally) Clone() *Tally {
	return &Tally{closed: t.closed, groupTps: slices.Clone(t.groupTps), counts: slices.Clone(t.counts)}
}

// Parts cuts the violations still logged into a part and returns every part
// cut since the last call, in log order, for Engine.Reports. The log is left
// empty, with no parts; the counts stay.
func (t *Tally) Parts() []ViolationPart {
	if len(t.entries) > 0 {
		t.cut()
	}
	parts := t.parts
	t.parts = nil
	return parts
}

// ViolationPart is a tally's violations grouped by rule, ready for
// Engine.Reports. Each violation takes 8 bytes: an int32 seq and an int32
// temporal point.
type ViolationPart struct {
	base  int     // added to every seq at assembly
	rules []int32 // rules with at least one violation, ascending
	off   []int32 // rules[k]'s pairs are pairs[2*off[k] : 2*off[k+1]]
	pairs []int32 // (seq, tp) interleaved
}

// Rebase returns p with by added to its base: the same pairs, assembled with
// every seq moved by by.
func (p ViolationPart) Rebase(by int) ViolationPart {
	p.base += by
	return p
}

// cut counting-sorts the logged violations by rule into a part and empties
// the log. Within a rule, violations keep log order.
func (t *Tally) cut() {
	if t.cursor == nil {
		t.cursor = make([]int32, len(t.counts))
	}
	count := t.cursor
	for _, en := range t.entries {
		count[en.rule]++
	}
	p := ViolationPart{off: []int32{0}, pairs: make([]int32, 2*len(t.entries))}
	// count becomes each violated rule's write cursor into pairs.
	at := int32(0)
	for r, n := range count {
		if n > 0 {
			p.rules = append(p.rules, int32(r))
			count[r] = at
			at += n
			p.off = append(p.off, at)
		}
	}
	for _, en := range t.entries {
		i := 2 * count[en.rule]
		p.pairs[i], p.pairs[i+1] = en.seq, en.tp
		count[en.rule]++
	}
	for _, r := range p.rules {
		count[r] = 0
	}
	t.entries = t.entries[:0]
	t.parts = append(t.parts, p)
}

// Reports builds one report per rule, in rule order. Each rule's counters
// are summed over tallies: SatisfiedTraces is the traces closed or skipped
// into them minus the rule's violated ones, TotalTemporalPoints its premise
// group's points, and SatisfiedTemporalPoints those minus the rule's
// violated ones. Its Violations are assembled from parts, taken in order —
// rule r's list is the concatenation of each part's violations of r, with
// the part's base added to Seq. Every tally must come from e's NewTally. All
// lists are windows of one backing array sized in a single pass, each with
// cap == len, so appending to one list reallocates it rather than overwrite
// its neighbour. A rule with no violations keeps a nil list.
//
// The array is filled rule by rule, front to back: writing part by part
// instead would scatter every part's writes over all the rules' windows.
func (e *Engine) Reports(tallies []*Tally, parts []ViolationPart) []RuleReport {
	closed := 0
	for _, t := range tallies {
		closed += t.closed
	}
	reports := make([]RuleReport, len(e.ruleSet))
	for r := range reports {
		rep := &reports[r]
		rep.Rule = e.ruleSet[r]
		grp, violTps := e.ruleGroup[r], 0
		for _, t := range tallies {
			n := &t.counts[r]
			rep.ViolatedTraces += n.violTraces
			rep.TotalTemporalPoints += t.groupTps[grp]
			violTps += n.violTps
		}
		rep.SatisfiedTraces = closed - rep.ViolatedTraces
		rep.SatisfiedTemporalPoints = rep.TotalTemporalPoints - violTps
	}

	n := 0
	for _, p := range parts {
		n += len(p.pairs) / 2
	}
	back := make([]RuleViolation, 0, n)
	// next[i] indexes parts[i].rules: the first of its rules not yet copied.
	next := make([]int, len(parts))
	for r := range reports {
		s := len(back)
		for i := range parts {
			p := &parts[i]
			k := next[i]
			if k == len(p.rules) || int(p.rules[k]) != r {
				continue
			}
			next[i]++
			pairs := p.pairs[2*p.off[k] : 2*p.off[k+1]]
			for j := 0; j+1 < len(pairs); j += 2 {
				back = append(back, RuleViolation{Seq: p.base + int(pairs[j]), TemporalPoint: int(pairs[j+1])})
			}
		}
		if end := len(back); end > s {
			reports[r].Violations = back[s:end:end]
		}
	}
	return reports
}
