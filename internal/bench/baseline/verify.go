package baseline

import (
	"specmine/internal/ltl"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/verify"
)

// CheckRule is the per-rule checking oracle: it rescans every trace of db
// for rule's temporal points and tests each one for the consequent directly,
// with no shared state between rules. verify.Engine must report exactly what
// this reports, rule by rule.
func CheckRule(db *seqdb.Database, rule rules.Rule) (verify.RuleReport, error) {
	if err := ltl.ValidateRule(rule.Pre, rule.Post); err != nil {
		return verify.RuleReport{}, err
	}
	report := verify.RuleReport{Rule: rule}
	for si, s := range db.Sequences {
		violatedTrace := false
		tps := rules.TemporalPoints(s, rule.Pre)
		report.TotalTemporalPoints += len(tps)
		for _, tp := range tps {
			if seqdb.Sequence(s[tp+1:]).ContainsSubsequence(rule.Post) {
				report.SatisfiedTemporalPoints++
				continue
			}
			violatedTrace = true
			report.Violations = append(report.Violations, verify.RuleViolation{Seq: si, TemporalPoint: tp})
		}
		if violatedTrace {
			report.ViolatedTraces++
		} else {
			report.SatisfiedTraces++
		}
	}
	return report, nil
}
