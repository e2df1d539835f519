package mine

import (
	"testing"

	"specmine/internal/seqdb"
)

// FuzzExtensions decodes its input into traces, a projection and a
// threshold, and compares one Extensions or Counts pass against
// bruteExtensions. The layout: byte 0 picks the trace count (1-4), byte 1
// the alphabet (1-8), byte 2 the materialise threshold (1-4) and byte 3's
// low bit the pass (set: Counts, clear: Extensions); then, per trace, a
// length byte (1-256 events) and one byte per event; then a projection size
// byte (0-63 entries) and two bytes per entry, its trace and its position
// (-1 up to the trace's last). Bytes past the end read as zero, so every
// input decodes to a valid pass. The seed corpus in
// testdata/fuzz/FuzzExtensions replays under plain go test and covers both
// passes.
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
		min, countsOnly := int32(1+next()%4), next()&1 == 1
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
		idx := seqdb.BuildPositionIndex(seqs, alphabet)
		x := NewExtender(idx)
		es := runPass(x, proj, min, countsOnly)
		checkAgainstBrute(t, "fuzz input", seqs, idx, proj, min, countsOnly, es)
		x.Release(es)
	})
}
