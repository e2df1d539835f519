package verify

// Every violation list a check returns is built in three steps, so no
// per-rule slice ever grows by append:
//
//   - Checker.Close writes each violation it finds as one (rule, seq, tp)
//     entry into a ViolationLog its caller owns — one flat, reused buffer
//     instead of one growing slice per rule.
//   - ViolationLog.Cut and ViolationLog.Parts counting-sort the log by rule
//     into ViolationParts: int32 (seq, tp) pairs grouped per violated rule.
//     A part is independent of every other and never written once cut, so
//     segments checked on different goroutines each produce their own, and
//     the stream's shards keep theirs and share them with every snapshot.
//   - AssembleViolations sizes one backing array for all parts' violations
//     and gives every rule its exact-size window of it, filled from the parts
//     in order with Seq rebased.

// partEntries is the log length at which Cut cuts a part: the log is then a
// bounded scratch buffer that stops growing after its first part, instead of
// holding a whole segment's or database's violations.
const partEntries = 1 << 16

// ViolationLog collects Checker.Close's violations in the order found:
// ascending seq, then rule, then temporal point. Sequence numbers are stored
// as int32, which holds for every caller: each indexes a trace slice it keeps
// in memory. The zero value is an empty log ready for use; a log is not safe
// for concurrent use.
type ViolationLog struct {
	entries []logEntry
	parts   []ViolationPart // cut by Cut, handed out by Parts
	count   []int32         // per-rule scratch for part, all zero between calls
}

type logEntry struct{ rule, seq, tp int32 }

// Len returns the number of violations logged and not yet cut into a part.
func (l *ViolationLog) Len() int { return len(l.entries) }

// ViolationPart is a log's violations grouped by rule, ready for
// AssembleViolations. Each violation takes 8 bytes: an int32 seq and an
// int32 temporal point.
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

// Cut cuts the logged violations into a part, as Parts does, once the log
// holds partEntries of them. Every check calls it after every Close, so the
// log never holds more than one Close's violations beyond that bound.
func (l *ViolationLog) Cut(numRules, base int) {
	if len(l.entries) >= partEntries {
		l.parts = append(l.parts, l.part(numRules, base))
	}
}

// Parts cuts the violations still logged into a part and returns every part
// cut since the last call, in log order, for AssembleViolations. Each part's
// sequence numbers are relative to the base it was cut with. numRules must
// exceed every logged rule. The log is left empty, with no parts.
func (l *ViolationLog) Parts(numRules, base int) []ViolationPart {
	if len(l.entries) > 0 {
		l.parts = append(l.parts, l.part(numRules, base))
	}
	parts := l.parts
	l.parts = nil
	return parts
}

// part counting-sorts the logged violations by rule into a part whose
// sequence numbers are relative to base, and empties the log. Within a rule,
// violations keep log order.
func (l *ViolationLog) part(numRules, base int) ViolationPart {
	if len(l.count) < numRules {
		l.count = make([]int32, numRules)
	}
	count := l.count[:numRules]
	for _, en := range l.entries {
		count[en.rule]++
	}
	p := ViolationPart{base: base, off: []int32{0}, pairs: make([]int32, 2*len(l.entries))}
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
	for _, en := range l.entries {
		i := 2 * count[en.rule]
		p.pairs[i], p.pairs[i+1] = en.seq, en.tp
		count[en.rule]++
	}
	for _, r := range p.rules {
		count[r] = 0
	}
	l.entries = l.entries[:0]
	return p
}

// AssembleViolations sets every report's Violations from parts, taken in
// order: rule r's list is the concatenation of each part's violations of r,
// with the part's base added to Seq. All lists are windows of one backing
// array sized in a single pass, each with cap == len, so appending to one
// list reallocates it rather than overwrite its neighbour. A rule with no
// violations keeps a nil list. The reports' lists must be empty on entry.
//
// The array is filled rule by rule, front to back: writing part by part
// instead would scatter every part's writes over all the rules' windows.
func AssembleViolations(reports []RuleReport, parts []ViolationPart) {
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
		if e := len(back); e > s {
			reports[r].Violations = back[s:e:e]
		}
	}
}
