package seqdb

import (
	"strings"
)

// Pattern is a series of events: the syntactic object shared by iterative
// patterns, sequential patterns, rule premises and rule consequents. The
// notation of the paper writes a pattern as <e1, e2, ..., en>.
type Pattern []EventID

// ParsePattern interns each space-separated event name in spec and returns
// the resulting pattern. It is a convenience for tests, examples and CLIs.
func ParsePattern(dict *Dictionary, spec string) Pattern {
	fields := strings.Fields(spec)
	p := make(Pattern, 0, len(fields))
	for _, f := range fields {
		p = append(p, dict.Intern(f))
	}
	return p
}

// Len returns the number of events in the pattern.
func (p Pattern) Len() int { return len(p) }

// First returns first(P): the first event of the pattern. It panics on an
// empty pattern, mirroring the paper which only applies first/last to
// non-empty patterns.
func (p Pattern) First() EventID { return p[0] }

// Last returns last(P): the final event of the pattern.
func (p Pattern) Last() EventID { return p[len(p)-1] }

// Clone returns an independent copy of p.
func (p Pattern) Clone() Pattern {
	out := make(Pattern, len(p))
	copy(out, p)
	return out
}

// Concat returns p ++ q, the concatenation of the two patterns, as a fresh
// slice that shares storage with neither operand.
func (p Pattern) Concat(q Pattern) Pattern {
	out := make(Pattern, 0, len(p)+len(q))
	out = append(out, p...)
	out = append(out, q...)
	return out
}

// Append returns the suffix extension p ++ <e> as a fresh pattern.
func (p Pattern) Append(e EventID) Pattern {
	out := make(Pattern, 0, len(p)+1)
	out = append(out, p...)
	out = append(out, e)
	return out
}

// Equal reports whether p and q are identical event for event.
func (p Pattern) Equal(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsSubsequenceOf reports whether p ⊑ q: there exist indices
// i1 < i2 < ... < in into q such that p matches q at those indices.
func (p Pattern) IsSubsequenceOf(q Pattern) bool {
	if len(p) > len(q) {
		return false
	}
	j := 0
	for _, e := range q {
		if j < len(p) && e == p[j] {
			j++
		}
	}
	return j == len(p)
}

// Alphabet returns the set of distinct events used by the pattern. The QRE
// instance semantics of Definition 4.1 excludes exactly this set from the
// gaps between consecutive pattern events.
func (p Pattern) Alphabet() map[EventID]struct{} {
	set := make(map[EventID]struct{}, len(p))
	for _, e := range p {
		set[e] = struct{}{}
	}
	return set
}

// Contains reports whether event e appears anywhere in the pattern.
func (p Pattern) Contains(e EventID) bool {
	for _, x := range p {
		if x == e {
			return true
		}
	}
	return false
}

// Key returns a compact string key that uniquely identifies the pattern.
// It is suitable for use as a map key; it is not meant for display.
func (p Pattern) Key() string {
	var b strings.Builder
	b.Grow(len(p) * 3)
	for i, e := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		writeInt(&b, int(e))
	}
	return b.String()
}

// String renders the pattern in the paper's angle-bracket notation using
// dict for event names. A nil dictionary falls back to numeric names.
func (p Pattern) String(dict *Dictionary) string {
	var b strings.Builder
	b.WriteByte('<')
	for i, e := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(dict.Name(e))
	}
	b.WriteByte('>')
	return b.String()
}

// ComparePatterns orders patterns first by length, then lexicographically by
// event id. It gives deterministic output orderings across the repository.
func ComparePatterns(a, b Pattern) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// writeInt appends the decimal representation of v to b without allocating.
func writeInt(b *strings.Builder, v int) {
	if v < 0 {
		b.WriteByte('-')
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	b.Write(buf[i:])
}
