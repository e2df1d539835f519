package seqdb

import (
	"encoding/binary"
	"fmt"
)

// Sequence block codec: the on-disk representation of one trace inside a
// sealed segment file (see internal/store). The encoding is chosen for the
// trace shapes this system actually stores — long runs of repeated events
// (loops) and small alphabets with strong locality — and for decode speed:
//
//   - the event stream is split into maximal runs of one repeated event;
//   - each run is written as (zigzag varint delta from the previous run's
//     event id, uvarint run length), so loops collapse to one pair and
//     locality keeps deltas in one byte;
//   - the block is prefixed with the uvarint event count, which lets a reader
//     allocate exactly once and detect truncation without trailing markers.
//
// Blocks are self-delimiting: DecodeSequenceBlock reports how many bytes it
// consumed, so segments can concatenate blocks back to back and still support
// random access through their footer offset table.

// AppendSequenceBlock appends the block encoding of s to dst and returns the
// extended slice. An empty sequence encodes to a single zero byte.
func AppendSequenceBlock(dst []byte, s Sequence) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	prev := EventID(0)
	for i := 0; i < len(s); {
		ev := s[i]
		run := 1
		for i+run < len(s) && s[i+run] == ev {
			run++
		}
		dst = binary.AppendVarint(dst, int64(ev)-int64(prev))
		dst = binary.AppendUvarint(dst, uint64(run))
		prev = ev
		i += run
	}
	return dst
}

// DecodeSequenceBlock decodes one block from the front of buf, returning the
// sequence and the number of bytes consumed. Truncated or malformed input
// returns a descriptive error and consumes nothing.
func DecodeSequenceBlock(buf []byte) (Sequence, int, error) {
	total, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("seqdb: sequence block: bad event count")
	}
	off := n
	// Run-length encoding packs arbitrarily long sequences into few bytes, so
	// the declared count cannot be sanity-checked against the input size. Cap
	// the up-front allocation instead: a corrupt count either trips the run
	// accumulation check below or runs out of input, never out of memory.
	capHint := total
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	s := make(Sequence, 0, capHint)
	prev := int64(0)
	for uint64(len(s)) < total {
		delta, n := binary.Varint(buf[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("seqdb: sequence block: truncated run delta at byte %d", off)
		}
		off += n
		run, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("seqdb: sequence block: truncated run length at byte %d", off)
		}
		off += n
		prev += delta
		if prev < 0 || prev > int64(^uint32(0)>>1) {
			return nil, 0, fmt.Errorf("seqdb: sequence block: event id %d out of range", prev)
		}
		if run == 0 || uint64(len(s))+run > total {
			return nil, 0, fmt.Errorf("seqdb: sequence block: run length %d overflows declared count %d", run, total)
		}
		for k := uint64(0); k < run; k++ {
			s = append(s, EventID(prev))
		}
	}
	return s, off, nil
}
