// Package verify checks traces against mined (or hand-written)
// specifications. It serves the paper's second motivation for specification
// mining: "aid program verification (also runtime monitoring) in automating
// the process of formulating specifications" (Section 1). Mined rules become
// LTL properties; this package evaluates them over fresh traces and reports
// where they are violated, so regressions show up as conformance failures.
package verify

import (
	"fmt"
	"slices"
	"strings"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
)

// RuleViolation describes one temporal point at which a rule's premise held
// but its consequent never followed. The violated rule is not repeated here:
// it lives once in the enclosing RuleReport, so a violation is two ints with
// no pointers for the garbage collector to scan.
type RuleViolation struct {
	// Seq is the index of the violating trace.
	Seq int
	// TemporalPoint is the position (0-based) at which the premise completed
	// without the consequent following.
	TemporalPoint int
}

// String renders the violation of r, the rule of its enclosing report.
func (v RuleViolation) String(r rules.Rule, dict *seqdb.Dictionary) string {
	return fmt.Sprintf("trace %d, position %d: %s -> %s not followed",
		v.Seq, v.TemporalPoint, r.Pre.String(dict), r.Post.String(dict))
}

// RuleReport summarises checking one rule against a database.
type RuleReport struct {
	Rule rules.Rule
	// SatisfiedTraces and ViolatedTraces count traces on which the LTL
	// formula holds / fails.
	SatisfiedTraces int
	ViolatedTraces  int
	// TotalTemporalPoints and SatisfiedTemporalPoints give the finer-grained
	// view used for confidence-style reporting.
	TotalTemporalPoints     int
	SatisfiedTemporalPoints int
	// Violations lists each violating temporal point of Rule, ordered by
	// trace then position; nil when there are none. Every check (Engine.Check,
	// the store and predicated checks, and the stream's snapshots) builds its
	// reports with Engine.Reports, which returns every rule's list as a
	// window of one shared backing array with cap == len, so an append
	// reallocates the list and never writes into the next rule's.
	Violations []RuleViolation
}

// HoldRate is the fraction of temporal points at which the rule held; 1.0 for
// rules whose premise never fires.
func (r RuleReport) HoldRate() float64 {
	if r.TotalTemporalPoints == 0 {
		return 1.0
	}
	return float64(r.SatisfiedTemporalPoints) / float64(r.TotalTemporalPoints)
}

// Summary aggregates rule reports into a ranked conformance summary: the
// rules most often violated come first.
type Summary struct {
	Reports []RuleReport
}

// NewSummary sorts the reports by the number of violations (descending),
// keeping input order among equal counts. It sorts one uint64 key per
// report and then gathers the reports once, so the sort never moves whole
// reports. A key holds the report's violation count, complemented so that
// larger counts sort first, above its index: the keys are distinct, so
// sorting them ascending gives exactly the stable order. Counts and indices
// fit in 32 bits, as no check holds 2^32 rules or 2^32 violations of one.
func NewSummary(reports []RuleReport) Summary {
	keys := make([]uint64, len(reports))
	for i := range reports {
		keys[i] = uint64(^uint32(len(reports[i].Violations)))<<32 | uint64(i)
	}
	slices.Sort(keys)
	sorted := make([]RuleReport, len(reports))
	for k, key := range keys {
		sorted[k] = reports[uint32(key)]
	}
	return Summary{Reports: sorted}
}

// TotalViolations returns the violation count across all rules.
func (s Summary) TotalViolations() int {
	n := 0
	for _, r := range s.Reports {
		n += len(r.Violations)
	}
	return n
}

// Render writes a human-readable conformance report showing up to
// maxViolations violations per rule.
func (s Summary) Render(dict *seqdb.Dictionary, maxViolations int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance summary: %d rules checked, %d violations\n", len(s.Reports), s.TotalViolations())
	for _, rep := range s.Reports {
		fmt.Fprintf(&b, "  %s -> %s: hold rate %.1f%%, %d violating traces\n",
			rep.Rule.Pre.String(dict), rep.Rule.Post.String(dict), rep.HoldRate()*100, rep.ViolatedTraces)
		limit := len(rep.Violations)
		if maxViolations > 0 && maxViolations < limit {
			limit = maxViolations
		}
		for _, v := range rep.Violations[:limit] {
			fmt.Fprintf(&b, "    %s\n", v.String(rep.Rule, dict))
		}
		if limit < len(rep.Violations) {
			fmt.Fprintf(&b, "    ... %d more\n", len(rep.Violations)-limit)
		}
	}
	return b.String()
}
