// Package ltl implements the Linear Temporal Logic fragment of Section 3.3 of
// the paper: formulas built from atomic events with the operators G
// (globally), F (finally/eventually), X (next), conjunction and implication,
// evaluated over finite traces (a program trace is one finite path).
//
// The package provides the translation from mined recurrent rules to LTL
// (Table 2), English readings of formulas and rules (Table 1), a renderer, a
// parser-free constructor API and a finite-trace evaluator (Holds), the
// semantics oracle the verifier's reports are tested against.
package ltl

import (
	"fmt"
	"strings"

	"specmine/internal/seqdb"
)

// Formula is an LTL formula over event propositions. A formula is evaluated
// at a position of a finite trace; an atomic event proposition holds at a
// position iff the event at that position is the proposition's event.
type Formula interface {
	// String renders the formula using dict for event names.
	String(dict *seqdb.Dictionary) string
	// holds reports whether the formula is satisfied by trace s at position i
	// (0-based). Positions run from 0 to len(s); at position len(s) the trace
	// has ended and only vacuously true formulas hold.
	holds(s seqdb.Sequence, i int) bool
}

// Atom is the proposition "the current event is Event".
type Atom struct {
	Event seqdb.EventID
}

// Globally is G(φ): φ holds at every position from the current one onwards.
type Globally struct {
	Body Formula
}

// Finally is F(φ): φ holds at the current position or some later one.
type Finally struct {
	Body Formula
}

// Next is X(φ): φ holds at the next position.
type Next struct {
	Body Formula
}

// And is φ ∧ ψ.
type And struct {
	Left, Right Formula
}

// Implies is φ → ψ.
type Implies struct {
	Left, Right Formula
}

// String implementations render in the paper's notation.

func (a Atom) String(dict *seqdb.Dictionary) string { return dict.Name(a.Event) }

func (g Globally) String(dict *seqdb.Dictionary) string {
	return "G(" + g.Body.String(dict) + ")"
}

func (f Finally) String(dict *seqdb.Dictionary) string {
	return "F(" + f.Body.String(dict) + ")"
}

func (x Next) String(dict *seqdb.Dictionary) string {
	// XF(...) and XG(...) read better without extra parentheses, matching the
	// paper's rendering (e.g. "G(lock -> XF(unlock))").
	switch body := x.Body.(type) {
	case Finally:
		return "XF(" + body.Body.String(dict) + ")"
	case Globally:
		return "XG(" + body.Body.String(dict) + ")"
	default:
		return "X(" + x.Body.String(dict) + ")"
	}
}

func (a And) String(dict *seqdb.Dictionary) string {
	return a.Left.String(dict) + " /\\ " + a.Right.String(dict)
}

func (im Implies) String(dict *seqdb.Dictionary) string {
	return im.Left.String(dict) + " -> " + wrapIfCompound(im.Right, dict)
}

func wrapIfCompound(f Formula, dict *seqdb.Dictionary) string {
	switch f.(type) {
	case Atom, Finally, Globally, Next:
		return f.String(dict)
	default:
		return "(" + f.String(dict) + ")"
	}
}

// holds implementations: finite-trace semantics.

func (a Atom) holds(s seqdb.Sequence, i int) bool {
	return i >= 0 && i < len(s) && s[i] == a.Event
}

func (g Globally) holds(s seqdb.Sequence, i int) bool {
	for j := i; j < len(s); j++ {
		if !g.Body.holds(s, j) {
			return false
		}
	}
	return true
}

func (f Finally) holds(s seqdb.Sequence, i int) bool {
	for j := i; j < len(s); j++ {
		if f.Body.holds(s, j) {
			return true
		}
	}
	return false
}

func (x Next) holds(s seqdb.Sequence, i int) bool {
	return x.Body.holds(s, i+1)
}

func (a And) holds(s seqdb.Sequence, i int) bool {
	return a.Left.holds(s, i) && a.Right.holds(s, i)
}

func (im Implies) holds(s seqdb.Sequence, i int) bool {
	return !im.Left.holds(s, i) || im.Right.holds(s, i)
}

// Holds evaluates the formula over the whole trace (position 0).
func Holds(f Formula, s seqdb.Sequence) bool {
	return f.holds(s, 0)
}

// --- rule translation (Table 2 and the BNF of Section 3.3) ---

// FromRule translates a recurrent rule pre -> post into its LTL formula
// following the grammar of Section 3.3:
//
//	rules   := G(prepost)
//	prepost := event -> post | event -> XG(prepost)
//	post    := XF(event) | XF(event /\ XF(post))
//
// Examples (Table 2):
//
//	<a> -> <b>        G(a -> XF(b))
//	<a,b> -> <c>      G(a -> XG(b -> XF(c)))
//	<a> -> <b,c>      G(a -> XF(b /\ XF(c)))
//	<a,b> -> <c,d>    G(a -> XG(b -> XF(c /\ XF(d))))
func FromRule(pre, post seqdb.Pattern) (Formula, error) {
	if err := ValidateRule(pre, post); err != nil {
		return nil, err
	}
	return Globally{Body: prepost(pre, post)}, nil
}

// ValidateRule reports whether pre -> post has an LTL translation, returning
// FromRule's error without building the formula: both sides must be
// non-empty.
func ValidateRule(pre, post seqdb.Pattern) error {
	if len(pre) == 0 || len(post) == 0 {
		return fmt.Errorf("ltl: rule must have a non-empty premise and consequent (pre=%d post=%d events)", len(pre), len(post))
	}
	return nil
}

func prepost(pre, post seqdb.Pattern) Formula {
	head := Atom{Event: pre[0]}
	if len(pre) == 1 {
		return Implies{Left: head, Right: Next{Body: Finally{Body: postFormula(post)}}}
	}
	return Implies{Left: head, Right: Next{Body: Globally{Body: prepost(pre[1:], post)}}}
}

func postFormula(post seqdb.Pattern) Formula {
	head := Atom{Event: post[0]}
	if len(post) == 1 {
		return head
	}
	return And{Left: head, Right: Next{Body: Finally{Body: postFormula(post[1:])}}}
}

// Describe returns an English reading of the formula in the style of Table 1.
// Only the simple F/XF forms of Table 1 receive bespoke wording; other
// formulas fall back to their symbolic form. Rule formulas are read by
// DescribeRule, which starts from the rule rather than its formula.
func Describe(f Formula, dict *seqdb.Dictionary) string {
	switch v := f.(type) {
	case Finally:
		if a, ok := v.Body.(Atom); ok {
			return fmt.Sprintf("Eventually %s is called", dict.Name(a.Event))
		}
	case Next:
		if fin, ok := v.Body.(Finally); ok {
			if a, ok := fin.Body.(Atom); ok {
				return fmt.Sprintf("From the next event onwards, eventually %s is called", dict.Name(a.Event))
			}
		}
	}
	return f.String(dict)
}

// DescribeRule returns the English reading of the rule pre -> post's formula
// (Table 1's rule rows), e.g. "Globally whenever lock is called, then from
// the next event onwards, eventually unlock is called".
func DescribeRule(pre, post seqdb.Pattern, dict *seqdb.Dictionary) string {
	return fmt.Sprintf("Globally whenever %s %s called, then from the next event onwards, eventually %s %s called",
		nameList(pre, dict), isAre(pre), nameList(post, dict), isAre(post))
}

// isAre returns the verb agreeing with the number of events listed.
func isAre(p seqdb.Pattern) string {
	if len(p) == 1 {
		return "is"
	}
	return "are"
}

func nameList(p seqdb.Pattern, dict *seqdb.Dictionary) string {
	names := make([]string, len(p))
	for i, e := range p {
		names[i] = dict.Name(e)
	}
	if len(names) == 1 {
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + " followed by " + names[len(names)-1]
}
