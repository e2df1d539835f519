// Package rules implements recurrent rule mining (Section 5 of the paper).
//
// A recurrent rule pre -> post states: "whenever the series of events pre has
// just occurred at a point in time, eventually the series of events post
// occurs". Rules are evaluated at the temporal points of the premise
// (Definition 5.1): the positions at which the premise has just completed as
// a subsequence of the trace prefix. Three statistics qualify a rule:
//
//   - sequence support (s-support): the number of traces containing the
//     premise;
//   - instance support (i-support): the number of occurrences (temporal
//     points) of pre ++ post across the database;
//   - confidence: the fraction of the premise's temporal points that are
//     followed by the consequent.
//
// Mine returns the non-redundant set of Definition 5.2 using early pruning of
// redundant premises and consequents (the "NR" series of Figures 2–3), or
// with Options.Full every significant rule (the "Full" series).
package rules

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"specmine/internal/seqdb"
)

// Options configures a rule mining run.
type Options struct {
	// MinSeqSupport is the absolute minimum s-support (number of sequences
	// containing the premise).
	MinSeqSupport int
	// MinSeqSupportRel, when positive, overrides MinSeqSupport with
	// seqdb.AbsoluteSupport(rel, number of sequences), matching the relative
	// thresholds on the x-axes of Figures 2 and 3.
	MinSeqSupportRel float64
	// MinInstanceSupport is the minimum i-support (occurrences of
	// pre ++ post). The paper's experiments use 1.
	MinInstanceSupport int
	// MinConfidence is the minimum confidence in (0, 1].
	MinConfidence float64
	// MaxPremiseLength and MaxConsequentLength bound the rule shape;
	// 0 means unlimited.
	MaxPremiseLength    int
	MaxConsequentLength int

	// Full mines every significant rule: all rules meeting the s-support,
	// i-support and confidence thresholds. The zero value mines the
	// non-redundant set (Definition 5.2): premises whose temporal points
	// coincide with those of a longer premise are dropped by a canonical
	// dedup before any consequent is mined, consequents that can be extended
	// without changing any statistic are not reported on their own, and a
	// final filter removes any remaining redundancy.
	//
	// Known gap at the premise bound: the premise walk skips a premise's
	// subtree when an equivalent single insertion dominates it, and at
	// MaxPremiseLength that dominating insertion is one event past the
	// bound. So a rule whose premise sits at MaxPremiseLength can be
	// non-redundant within the bounds and still go unmined; FilterRedundant
	// of the full set keeps it, and the two can differ for MaxPremiseLength
	// >= 2. The ROADMAP item on bounded non-redundancy tracks the fix.
	Full bool

	// Workers bounds the worker pool that walks premise subtrees (one
	// frequent seed event per task) and then mines consequent subtrees (one
	// surviving premise per task). 0 and 1 run sequentially; negative values
	// use GOMAXPROCS. Results are byte-identical to a sequential run for any
	// worker count.
	Workers int
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.MinSeqSupport < 1 && o.MinSeqSupportRel <= 0 {
		return errors.New("rules: MinSeqSupport must be >= 1 or MinSeqSupportRel > 0")
	}
	if err := seqdb.CheckSupportRel("MinSeqSupportRel", o.MinSeqSupportRel); err != nil {
		return fmt.Errorf("rules: %w", err)
	}
	if o.MinInstanceSupport < 1 {
		return errors.New("rules: MinInstanceSupport must be >= 1")
	}
	if o.MinConfidence <= 0 || o.MinConfidence > 1 {
		return errors.New("rules: MinConfidence must be in (0, 1]")
	}
	if o.MaxPremiseLength < 0 || o.MaxConsequentLength < 0 {
		return errors.New("rules: length bounds must be >= 0")
	}
	return nil
}

// Rule is one mined recurrent rule pre -> post with its statistics.
type Rule struct {
	Pre  seqdb.Pattern
	Post seqdb.Pattern
	// SeqSupport is the number of sequences containing the premise.
	SeqSupport int
	// InstanceSupport is the number of temporal points of pre ++ post.
	InstanceSupport int
	// Confidence is the fraction of the premise's temporal points followed by
	// the consequent.
	Confidence float64
}

// Concat returns pre ++ post, the concatenation used by the redundancy
// definition (Definition 5.2).
func (r Rule) Concat() seqdb.Pattern { return r.Pre.Concat(r.Post) }

// String renders the rule with its statistics.
func (r Rule) String(dict *seqdb.Dictionary) string {
	return fmt.Sprintf("%s -> %s  s-sup=%d i-sup=%d conf=%.3f",
		r.Pre.String(dict), r.Post.String(dict), r.SeqSupport, r.InstanceSupport, r.Confidence)
}

// Key returns a canonical map key for the rule's syntactic identity.
func (r Rule) Key() string {
	return r.Pre.Key() + "=>" + r.Post.Key()
}

// Stats aggregates counters describing a mining run.
type Stats struct {
	// PremisesExplored counts premise search-tree nodes evaluated.
	PremisesExplored int
	// PremisesPrunedRedundant counts premise subtrees skipped by the
	// non-redundant miner's temporal-point equivalence pruning.
	PremisesPrunedRedundant int
	// ConsequentNodesExplored counts consequent search-tree nodes evaluated
	// across all premises.
	ConsequentNodesExplored int
	// RulesSuppressedRedundant counts rules withheld by redundancy checks.
	RulesSuppressedRedundant int
	// RulesEmitted is the number of rules in the result.
	RulesEmitted int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// Result is the outcome of a rule mining run.
type Result struct {
	Rules      []Rule
	Stats      Stats
	MinSeqSup  int
	MinInstSup int
	MinConf    float64
}

// Sort orders the rules by decreasing confidence, then i-support, then
// content, giving deterministic output.
func (r *Result) Sort() {
	sort.Slice(r.Rules, func(i, j int) bool {
		a, b := r.Rules[i], r.Rules[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.InstanceSupport != b.InstanceSupport {
			return a.InstanceSupport > b.InstanceSupport
		}
		if c := seqdb.ComparePatterns(a.Pre, b.Pre); c != 0 {
			return c < 0
		}
		return seqdb.ComparePatterns(a.Post, b.Post) < 0
	})
}

// Find returns the mined rule with the given premise and consequent.
func (r *Result) Find(pre, post seqdb.Pattern) (Rule, bool) {
	for _, rule := range r.Rules {
		if rule.Pre.Equal(pre) && rule.Post.Equal(post) {
			return rule, true
		}
	}
	return Rule{}, false
}

// Render writes a human-readable listing of up to limit rules (all when
// limit <= 0).
func (r *Result) Render(dict *seqdb.Dictionary, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rules (min s-sup %d, min i-sup %d, min conf %.0f%%, %v)\n",
		len(r.Rules), r.MinSeqSup, r.MinInstSup, r.MinConf*100, r.Stats.Duration.Round(time.Millisecond))
	n := len(r.Rules)
	if limit > 0 && limit < n {
		n = limit
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  %s\n", r.Rules[i].String(dict))
	}
	if n < len(r.Rules) {
		fmt.Fprintf(&b, "  ... %d more\n", len(r.Rules)-n)
	}
	return b.String()
}

// --- direct (non-incremental) statistics, shared with tests and verifiers ---

// TemporalPoints returns the temporal points of pattern p in sequence s
// (Definition 5.1, 0-based): positions j with s[j] = last(p) and p a
// subsequence of s[0..j].
func TemporalPoints(s seqdb.Sequence, p seqdb.Pattern) []int {
	return s.SubsequenceEndPositions(p)
}

// EvaluateRule computes the statistics of an arbitrary rule directly from the
// database, independent of the miners. It is used by tests, by the verifier
// and by callers that want to score hand-written rules.
func EvaluateRule(db *seqdb.Database, pre, post seqdb.Pattern) Rule {
	rule := Rule{Pre: pre.Clone(), Post: post.Clone()}
	totalTP := 0
	satisfied := 0
	for _, s := range db.Sequences {
		tps := TemporalPoints(s, pre)
		if len(tps) > 0 {
			rule.SeqSupport++
		}
		totalTP += len(tps)
		for _, j := range tps {
			if seqdb.Sequence(s[j+1:]).ContainsSubsequence(post) {
				satisfied++
			}
		}
		rule.InstanceSupport += len(TemporalPoints(s, pre.Concat(post)))
	}
	if totalTP > 0 {
		rule.Confidence = float64(satisfied) / float64(totalTP)
	}
	return rule
}
