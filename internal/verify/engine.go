package verify

import (
	"slices"

	"specmine/internal/ltl"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
)

// Engine is a rule set compiled for conformance checking: the serving path
// for checking fresh traffic against a mined specification. The per-rule
// oracle (baseline.CheckRule) walks every trace once per rule; a production
// rule set has hundreds of rules
// sharing a handful of premise prefixes and consequents, so the engine
// compiles the whole set once — premises into a shared prefix trie,
// consequents into a deduplicated table, plus event-keyed dispatch lists —
// and then answers all rules in a single pass over each trace.
//
// Compile once with NewEngine, then either batch-check whole databases with
// Check, or feed live traces event by event through NewChecker (see
// online.go; Check itself is a thin driver over that path). The engine is
// immutable after compilation and safe for concurrent use; each Check call
// and each Checker owns its scratch.
type Engine struct {
	ruleSet []rules.Rule

	// Premise-prefix trie. Node 0 is the root (empty prefix); children carry
	// the event extending their parent's prefix. Nodes are stored in
	// insertion order, so every parent precedes its children.
	trieEvent  []seqdb.EventID
	trieParent []int32

	// posts holds the distinct consequents of the rule set; post pi's online
	// DP state occupies postState[postStateOff[pi]:postStateOff[pi+1]].
	posts        []seqdb.Pattern
	postStateOff []int32
	postStates   int

	// Per rule: the trie node of its premise prefix (pre minus the last
	// event), the premise's last event, and its premise group.
	rulePreNode []int32
	ruleLast    []seqdb.EventID
	ruleGroup   []int32

	// Premise groups: rules sharing a whole premise — prefix trie node plus
	// final event — share one temporal-point stream. Mined rule sets have
	// orders of magnitude fewer groups than rules, so the online automaton
	// dispatches per group and only fans out to rules at trace close, and
	// then only to the rules of the groups that fired. Group g's rules,
	// ascending, are groupRules[groupRulesOff[g]:groupRulesOff[g+1]], and
	// groupLate holds, at the same index, the postState index of each one's
	// consequent's full-pattern entry (its latest embedding start).
	groupPreNode  []int32
	groupRules    []int32
	groupLate     []int32
	groupRulesOff []int32

	// Event-keyed dispatch CSRs for the online automaton. alphabet bounds the
	// event ids referenced by the rule set; events outside it are no-ops.
	alphabet     int
	nodesByEvent []int32 // trie nodes labelled with the event, id-ascending
	nodesOff     []int32
	stepPost     []int32 // consequent DP steps: post index and position j,
	stepJ        []int32 // descending j within each post
	stepsOff     []int32
	groupsByLast []int32 // premise groups whose final event this is
	groupsOff    []int32
}

// NewEngine compiles a rule set. Rules are validated in order against their
// LTL translation's requirements (ltl.ValidateRule), so the first invalid rule
// produces the same error the per-rule oracle would.
func NewEngine(ruleSet []rules.Rule) (*Engine, error) {
	e := &Engine{
		ruleSet:     ruleSet,
		trieEvent:   []seqdb.EventID{0},
		trieParent:  []int32{-1},
		rulePreNode: make([]int32, len(ruleSet)),
		ruleLast:    make([]seqdb.EventID, len(ruleSet)),
	}
	// rulePost[i] is rule i's consequent's index in posts.
	rulePost := make([]int32, len(ruleSet))
	// children[node] maps extending events to child nodes during compilation.
	children := []map[seqdb.EventID]int32{nil}
	postIndex := make(map[string]int32)
	for i, r := range ruleSet {
		if err := ltl.ValidateRule(r.Pre, r.Post); err != nil {
			return nil, err
		}

		node := int32(0)
		for _, ev := range r.Pre[:len(r.Pre)-1] {
			if children[node] == nil {
				children[node] = make(map[seqdb.EventID]int32, 2)
			}
			child, ok := children[node][ev]
			if !ok {
				child = int32(len(e.trieEvent))
				e.trieEvent = append(e.trieEvent, ev)
				e.trieParent = append(e.trieParent, node)
				children = append(children, nil)
				children[node][ev] = child
			}
			node = child
		}
		e.rulePreNode[i] = node
		e.ruleLast[i] = r.Pre.Last()

		key := r.Post.Key()
		pi, ok := postIndex[key]
		if !ok {
			pi = int32(len(e.posts))
			e.posts = append(e.posts, r.Post)
			postIndex[key] = pi
		}
		rulePost[i] = pi
	}
	e.compileDispatch(rulePost)
	return e, nil
}

// compileDispatch builds the flattened consequent DP layout, the premise
// groups with their rules and the rules' indices into that layout, and the
// event-keyed CSR lists the online automaton dispatches on.
func (e *Engine) compileDispatch(rulePost []int32) {
	e.postStateOff = make([]int32, len(e.posts)+1)
	for pi, post := range e.posts {
		e.postStateOff[pi+1] = e.postStateOff[pi] + int32(len(post))
	}
	e.postStates = int(e.postStateOff[len(e.posts)])

	// Premise groups: one per distinct (prefix node, final event) pair.
	type preKey struct {
		node int32
		last seqdb.EventID
	}
	groupIndex := make(map[preKey]int32)
	e.ruleGroup = make([]int32, len(e.ruleSet))
	var groupLast []seqdb.EventID
	for i := range e.ruleSet {
		key := preKey{e.rulePreNode[i], e.ruleLast[i]}
		grp, ok := groupIndex[key]
		if !ok {
			grp = int32(len(e.groupPreNode))
			groupIndex[key] = grp
			e.groupPreNode = append(e.groupPreNode, key.node)
			groupLast = append(groupLast, key.last)
		}
		e.ruleGroup[i] = grp
	}
	// Each group's rules, ascending: a counting sort of the rules by group.
	e.groupRulesOff = make([]int32, len(e.groupPreNode)+1)
	for _, grp := range e.ruleGroup {
		e.groupRulesOff[grp+1]++
	}
	for grp := range e.groupPreNode {
		e.groupRulesOff[grp+1] += e.groupRulesOff[grp]
	}
	e.groupRules = make([]int32, len(e.ruleSet))
	e.groupLate = make([]int32, len(e.ruleSet))
	at := slices.Clone(e.groupRulesOff[:len(e.groupPreNode)])
	for i, grp := range e.ruleGroup {
		e.groupRules[at[grp]] = int32(i)
		e.groupLate[at[grp]] = e.postStateOff[rulePost[i]+1] - 1
		at[grp]++
	}

	maxEv := seqdb.EventID(-1)
	for _, ev := range e.trieEvent[1:] {
		if ev > maxEv {
			maxEv = ev
		}
	}
	for _, ev := range e.ruleLast {
		if ev > maxEv {
			maxEv = ev
		}
	}
	for _, post := range e.posts {
		for _, ev := range post {
			if ev > maxEv {
				maxEv = ev
			}
		}
	}
	e.alphabet = int(maxEv) + 1

	counts := make([]int32, e.alphabet)
	fillCSR := func(n int, eventOf func(k int) seqdb.EventID, emit func(k int, at int32)) (off []int32) {
		clear(counts)
		for k := 0; k < n; k++ {
			counts[eventOf(k)]++
		}
		off = make([]int32, e.alphabet+1)
		for ev := 0; ev < e.alphabet; ev++ {
			off[ev+1] = off[ev] + counts[ev]
		}
		cursor := make([]int32, e.alphabet)
		copy(cursor, off[:e.alphabet])
		for k := 0; k < n; k++ {
			ev := eventOf(k)
			emit(k, cursor[ev])
			cursor[ev]++
		}
		return off
	}

	// Trie nodes (excluding the root), in ascending node id so parents come
	// before children within one event's list.
	e.nodesByEvent = make([]int32, len(e.trieEvent)-1)
	e.nodesOff = fillCSR(len(e.trieEvent)-1,
		func(k int) seqdb.EventID { return e.trieEvent[k+1] },
		func(k int, at int32) { e.nodesByEvent[at] = int32(k + 1) })

	// Consequent DP steps, enumerated per post with descending j.
	type step struct {
		post, j int32
	}
	var steps []step
	for pi, post := range e.posts {
		for j := len(post) - 1; j >= 0; j-- {
			steps = append(steps, step{int32(pi), int32(j)})
		}
	}
	e.stepPost = make([]int32, len(steps))
	e.stepJ = make([]int32, len(steps))
	e.stepsOff = fillCSR(len(steps),
		func(k int) seqdb.EventID { return e.posts[steps[k].post][steps[k].j] },
		func(k int, at int32) { e.stepPost[at], e.stepJ[at] = steps[k].post, steps[k].j })

	// Premise groups keyed by their final event, id-ascending.
	e.groupsByLast = make([]int32, len(e.groupPreNode))
	e.groupsOff = fillCSR(len(e.groupPreNode),
		func(k int) seqdb.EventID { return groupLast[k] },
		func(k int, at int32) { e.groupsByLast[at] = int32(k) })
}

// Check evaluates every compiled rule against every trace of db and returns
// one report per rule, in rule order — byte-identical to the per-rule
// oracle. It is a thin driver over the online path: one Checker consumes
// each trace event by event into one Tally, so batch and streaming
// verification cannot drift apart, and Reports builds the reports as it
// does for every other check.
func (e *Engine) Check(db *seqdb.Database) []RuleReport {
	t := e.NewTally()
	c := e.NewChecker()
	for si, s := range db.Sequences {
		for _, ev := range s {
			c.Advance(ev)
		}
		c.Close(si, t)
	}
	return e.Reports([]*Tally{t}, t.Parts())
}
