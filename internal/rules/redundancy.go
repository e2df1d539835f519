package rules

import "specmine/internal/seqdb"

// FilterRedundant returns the non-redundant subset of the given rules, in
// input order: Definition 5.2 applied to the whole set (step 5 of the mining
// outline). A rule RX is redundant when another rule RY with identical
// s-support, i-support and confidence has a concatenation that is a proper
// super-sequence of RX's, or the same concatenation with a shorter premise.
// The non-redundant miner runs it last; it is exposed so that callers
// holding a full rule set (for example from Mine with Options.Full) can
// derive the non-redundant view without re-mining.
//
// Only rules with equal integer supports can make one another redundant, so
// rules are bucketed by (SeqSupport, InstanceSupport) and compared within a
// bucket only; floatEqual still decides confidence there, so the result is
// exactly the pairwise test against the whole set. Within a bucket, a pair
// is dismissed by the rules' event signatures before any pattern is
// compared: a concatenation holding an event whose signature bit another
// concatenation lacks can be neither equal to it nor a subsequence of it.
func FilterRedundant(in []Rule) []Rule {
	type supports struct{ seq, inst int }
	buckets := make(map[supports][]int32)
	concats := make([]seqdb.Pattern, len(in))
	sigs := make([]uint64, len(in))
	for i, r := range in {
		k := supports{r.SeqSupport, r.InstanceSupport}
		buckets[k] = append(buckets[k], int32(i))
		concats[i] = r.Concat()
		for _, e := range concats[i] {
			sigs[i] |= 1 << (e & 63)
		}
	}
	out := make([]Rule, 0, len(in))
rules:
	for i, r := range in {
		for _, k := range buckets[supports{r.SeqSupport, r.InstanceSupport}] {
			if sigs[i]&^sigs[k] != 0 {
				continue
			}
			if redundantAgainst(r, concats[i], in[k], concats[k]) {
				continue rules
			}
		}
		out = append(out, r)
	}
	return out
}

// redundantAgainst reports whether other, a rule of r's support bucket, makes
// r redundant (Definition 5.2); rc and oc are the rules' concatenations.
func redundantAgainst(r Rule, rc seqdb.Pattern, other Rule, oc seqdb.Pattern) bool {
	if !floatEqual(other.Confidence, r.Confidence) {
		return false
	}
	if r.Pre.Equal(other.Pre) && r.Post.Equal(other.Post) {
		return false // the same rule
	}
	if rc.Equal(oc) {
		// Same concatenation: the rule with the longer premise (and hence
		// the shorter consequent) is the redundant one.
		return len(r.Pre) > len(other.Pre)
	}
	return len(oc) > len(rc) && rc.IsSubsequenceOf(oc)
}

func floatEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
