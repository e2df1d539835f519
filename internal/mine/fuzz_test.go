package mine

import (
	"testing"

	"specmine/internal/seqdb"
)

// FuzzExtensions decodes its input into traces, a projection, tags and a
// threshold, and compares one Extensions pass against bruteExtensions. The
// layout: byte 0 picks the trace count (1-4), byte 1 the alphabet (1-8),
// byte 2 the materialise threshold (1-4) and byte 3's low bit a tagged pass;
// then, per trace, a length byte (1-256 events) and one byte per event; then
// a projection size byte (0-63 entries) and two bytes per entry, its trace
// and its position (-1 up to the trace's last). Bytes past the end read as
// zero, so every input decodes to a valid pass. The seed corpus in
// testdata/fuzz/FuzzExtensions replays under plain go test.
func FuzzExtensions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		numSeqs, alphabet := 1+next()%4, 1+next()%8
		min, tagged := int32(1+next()%4), next()&1 == 1
		seqs := make([]seqdb.Sequence, numSeqs)
		for i := range seqs {
			s := make(seqdb.Sequence, 1+next())
			for k := range s {
				s[k] = seqdb.EventID(next() % alphabet)
			}
			seqs[i] = s
		}
		proj := make([]Proj, next()%64)
		for i := range proj {
			si := next() % numSeqs
			proj[i] = Proj{Seq: int32(si), Pos: int32(next()%(len(seqs[si])+1)) - 1}
		}
		var tags []int32
		if tagged {
			tags = make([]int32, len(proj))
			for i := range tags {
				tags[i] = int32(1000 + i)
			}
		}
		idx := seqdb.BuildPositionIndex(seqs, alphabet)
		x := NewExtender(idx)
		es := x.Extensions(proj, tags, min)
		checkAgainstBrute(t, "fuzz input", seqs, idx, proj, tags, min, es)
		x.Release(es)
	})
}
