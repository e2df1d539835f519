package seqdb

import "strings"

// Sequence is one program execution trace: an ordered list of events.
// Positions are 0-based internally; the paper's definitions use 1-based
// temporal points, and the conversion is confined to rendering code.
type Sequence []EventID

// Clone returns an independent copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// String renders the sequence using dict for event names.
func (s Sequence) String(dict *Dictionary) string {
	var b strings.Builder
	b.WriteByte('<')
	for i, e := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(dict.Name(e))
	}
	b.WriteByte('>')
	return b.String()
}

// ContainsSubsequence reports whether p embeds into s as a (not necessarily
// contiguous) subsequence, i.e. whether p ⊑ s in the paper's notation.
func (s Sequence) ContainsSubsequence(p Pattern) bool {
	if len(p) == 0 {
		return true
	}
	j := 0
	for _, e := range s {
		if e == p[j] {
			j++
			if j == len(p) {
				return true
			}
		}
	}
	return false
}

// SubsequenceEndPositions returns every position j (0-based) such that
// s[j] == last(p) and p is a subsequence of s[0..j]. These are exactly the
// temporal points of Definition 5.1 (shifted to 0-based indexing).
func (s Sequence) SubsequenceEndPositions(p Pattern) []int {
	if len(p) == 0 {
		return nil
	}
	var out []int
	// matched is the length of the longest prefix of p embedded in s[0..i-1].
	matched := 0
	last := p[len(p)-1]
	for i, e := range s {
		if matched < len(p)-1 && e == p[matched] {
			matched++
		}
		if e == last && matched >= len(p)-1 {
			// The first len(p)-1 events embed strictly before i only when the
			// prefix completed at an earlier position; when p has length 1 the
			// prefix is empty and every occurrence of last counts.
			if len(p) == 1 {
				out = append(out, i)
				continue
			}
			// Ensure the embedding of the first len(p)-1 events finishes
			// strictly before i. matched counts prefix events consumed so far
			// including possibly the event at i itself when p[matched-1]==last
			// was just consumed here; re-check with an explicit scan only in
			// that ambiguous case.
			if prefixEmbedsBefore(s, p[:len(p)-1], i) {
				out = append(out, i)
			}
		}
	}
	return out
}

// prefixEmbedsBefore reports whether pre embeds into s[0..end-1].
func prefixEmbedsBefore(s Sequence, pre Pattern, end int) bool {
	if len(pre) == 0 {
		return true
	}
	j := 0
	for i := 0; i < end; i++ {
		if s[i] == pre[j] {
			j++
			if j == len(pre) {
				return true
			}
		}
	}
	return false
}
