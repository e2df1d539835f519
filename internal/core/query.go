package core

import (
	"specmine/internal/obs"
	"specmine/internal/plan"
	"specmine/internal/seqdb"
	"specmine/internal/verify"
)

// Predicated queries: CheckWhere and MineWhere/MineRulesWhere run
// verification and mining over the subset of traces a Where predicate
// selects, compiled once to a plan.Selection whose Traces is a lazy sequence
// over the flat index — the rarest required event's postings drive
// enumeration, the rest become residual filters — instead of materialising
// candidate sets eagerly.
// Checking runs the same segment loop as CheckStoreWhere, with the database
// as one resident segment, so every query returns a renderable Explain with
// the selected trace count and, for checks, the registry holding the
// verifier's work counters.

// Where selects traces for predicated queries; see plan.Where for the
// predicate fields (required/optional events, trace-ordinal windows, explicit
// ordinal lists). The zero value selects everything.
type Where = plan.Where

// Explain is the per-query report; see plan.Explain. Render it with
// Explain.Render(db.Dict).
type Explain = plan.Explain

// CheckWhere verifies ruleSet against the traces of db selected by where:
// every selected trace runs through the online automaton, and violations
// carry the traces' ordinals in db. With a zero Where this is a
// byte-identical CheckRules — same summary, plus the Explain, whose Obs is
// a standalone registry holding this call's verify.* counts.
func CheckWhere(db *Database, ruleSet []Rule, where Where) (verify.Summary, *Explain, error) {
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		return verify.Summary{}, nil, err
	}
	reports, ex, err := checkSegments(residentSegment{db}, engine, where, obs.NewRegistry())
	if err != nil {
		return verify.Summary{}, nil, err
	}
	return verify.NewSummary(reports), ex, nil
}

// MineWhere mines iterative patterns over the traces of db selected by where.
// Results are byte-identical to MinePatterns over a database holding exactly
// the selected traces (in ordinal order); pattern statistics and any retained
// instances are therefore relative to the selection, with trace indices local
// to it.
func MineWhere(db *Database, opts PatternOptions, where Where) (*PatternResult, *Explain, error) {
	sub, ex := selectDatabase(db, where)
	res, err := MinePatterns(sub, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, ex, nil
}

// MineRulesWhere mines recurrent rules over the traces of db selected by
// where; the MineWhere caveats about selection-relative statistics apply.
func MineRulesWhere(db *Database, opts RuleOptions, where Where) (*RuleResult, *Explain, error) {
	sub, ex := selectDatabase(db, where)
	res, err := MineRules(sub, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, ex, nil
}

// selectDatabase ranges over the compiled selection into a sub-database sharing
// db's dictionary and sequence storage (headers only; event payloads are not
// copied).
func selectDatabase(db *Database, where Where) (*Database, *Explain) {
	traces, sel := where.Compile().Traces(0, db.NumSequences(), db.FlatIndex())
	sub := seqdb.NewDatabaseWithDict(db.Dict)
	for s := range traces {
		sub.Append(db.Sequences[s])
	}
	return sub, &Explain{Selected: sub.NumSequences(), Selection: &sel}
}
