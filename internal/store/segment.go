package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"specmine/internal/fsim"
	"specmine/internal/seqdb"
)

// Sealed segment files. A segment is the immutable resting place of a run of
// sealed traces from one shard, written once when the shard's sealed tail
// reaches Options.SegmentBytes or at a checkpoint. The current (v2) layout:
//
//	magic [8]byte "SPMSEG2\n"
//	header [12]byte, fixed width so the core can be located from the front:
//	  uint32 LE body length | uint32 LE footer length | uint32 LE stats length
//	body: one sequence block per trace (seqdb.AppendSequenceBlock — varint
//	      delta event ids with run-length compression), back to back
//	footer:
//	  uvarint format version (2)
//	  uvarint shard
//	  uvarint fromOrdinal     — shard-local seal ordinal of the first trace
//	  uvarint numTraces
//	  numTraces x uvarint block length — prefix sums give per-trace offsets
//	trailer [20]byte:
//	  uint32 LE body length | uint32 LE footer length |
//	  uint32 LE CRC-32(body) | uint32 LE CRC-32(footer) | uint32 LE tail magic
//	stats block [stats length bytes]: per-event statistics, CRC'd
//	  independently and versioned on its own (v2 since the event filter
//	  was dropped; see stats.go)
//
// Everything up to and including the trailer is the segment core; its layout
// and integrity guarantees are unchanged from v1 apart from the magic, the
// fixed header, and the footer version number. The stats block rides BEHIND
// the trailer precisely so it is advisory: the core is parsed from front
// (header) and cross-checked against the trailer, so damage anywhere at or
// after the trailer's end — a torn stats tail, a flipped stats byte, a bogus
// header stats length — leaves the segment fully openable with stats absent,
// to be recomputed lazily from the body. Damage inside the core is detected
// exactly as before and fails the open.
//
// v1 files ("SPMSEG1\n": no header, no stats, trailer at end of file) remain
// readable forever, their stats recomputed from the body on demand; nothing
// rewrites them as v2. parseSegment dispatches on the magic. The golden files
// in testdata freeze both generations, and both stats-block versions of v2.
//
// Segments are written once and never modified, merged or removed by the
// store that wrote them; only Open discards a torn file or one a later
// segment subsumes.

var (
	segMagicV1 = [8]byte{'S', 'P', 'M', 'S', 'E', 'G', '1', '\n'}
	segMagic   = [8]byte{'S', 'P', 'M', 'S', 'E', 'G', '2', '\n'}
)

const (
	segFormatV1      = 1
	segFormatVersion = 2
	segHeaderLen     = 12
	segTrailerLen    = 20
	segTailMagic     = 0x53504753 // "SPGS"
)

// segmentInfo is the in-memory ledger entry for one live segment file.
// from/to are shard-local seal ordinals, to exclusive.
type segmentInfo struct {
	from, to int
	path     string
	size     int64
}

func segmentName(from, to int) string {
	return fmt.Sprintf("seg-%09d-%09d.seg", from, to)
}

func parseSegmentName(name string) (from, to int, ok bool) {
	var f, t int
	if n, err := fmt.Sscanf(name, "seg-%d-%d.seg", &f, &t); n != 2 || err != nil {
		return 0, 0, false
	}
	return f, t, f >= 0 && t > f
}

// encodeSegment renders the full segment file image for the given traces:
// the core (magic, header, body, footer, trailer), then the stats block.
func encodeSegment(seqs []seqdb.Sequence, shard, from int) []byte {
	buf := append([]byte(nil), segMagic[:]...)
	headerStart := len(buf)
	buf = append(buf, make([]byte, segHeaderLen)...)
	bodyStart := len(buf)
	blockLens := make([]int, len(seqs))
	for i, s := range seqs {
		before := len(buf)
		buf = seqdb.AppendSequenceBlock(buf, s)
		blockLens[i] = len(buf) - before
	}
	bodyLen := len(buf) - bodyStart

	footerStart := len(buf)
	buf = binary.AppendUvarint(buf, segFormatVersion)
	buf = binary.AppendUvarint(buf, uint64(shard))
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(len(blockLens)))
	for _, n := range blockLens {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	footerLen := len(buf) - footerStart

	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(footerLen))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[bodyStart:bodyStart+bodyLen]))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[footerStart:footerStart+footerLen]))
	buf = binary.LittleEndian.AppendUint32(buf, segTailMagic)

	statsStart := len(buf)
	buf = appendSegmentStats(buf, computeSegmentStats(seqs))
	binary.LittleEndian.PutUint32(buf[headerStart:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(buf[headerStart+4:], uint32(footerLen))
	binary.LittleEndian.PutUint32(buf[headerStart+8:], uint32(len(buf)-statsStart))
	return buf
}

// segmentView is a parsed (but not yet decoded) segment: validated checksums,
// header fields and the per-trace block spans over body. stats is nil when
// the file predates the stats block or the block arrived damaged — the
// segment itself is still fully usable.
type segmentView struct {
	shard     int
	from      int
	body      []byte
	blockLens []int
	stats     *SegmentStats
}

// parseFooter validates and decodes the uvarint footer shared by both format
// generations.
func parseFooter(footer []byte, bodyLen int, wantVersion uint64) (shard, from int, blockLens []int, err error) {
	off := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(footer[off:])
		if n <= 0 {
			return 0, fmt.Errorf("store: segment footer truncated at byte %d", off)
		}
		off += n
		return v, nil
	}
	ver, err := next()
	if err != nil {
		return 0, 0, nil, err
	}
	if ver != wantVersion {
		return 0, 0, nil, fmt.Errorf("store: unsupported segment format version %d", ver)
	}
	sh, err := next()
	if err != nil {
		return 0, 0, nil, err
	}
	fr, err := next()
	if err != nil {
		return 0, 0, nil, err
	}
	numTraces, err := next()
	if err != nil {
		return 0, 0, nil, err
	}
	if numTraces > uint64(len(footer)) { // each block length costs >= 1 footer byte
		return 0, 0, nil, fmt.Errorf("store: segment claims %d traces in a %d-byte footer", numTraces, len(footer))
	}
	blockLens = make([]int, numTraces)
	total := 0
	for i := range blockLens {
		bl, err := next()
		if err != nil {
			return 0, 0, nil, err
		}
		blockLens[i] = int(bl)
		total += int(bl)
	}
	if total != bodyLen {
		return 0, 0, nil, fmt.Errorf("store: segment block lengths sum to %d, body is %d", total, bodyLen)
	}
	return int(sh), int(fr), blockLens, nil
}

// checkTrailer validates the 20-byte trailer against the body and footer it
// covers.
func checkTrailer(tr, body, footer []byte) error {
	if binary.LittleEndian.Uint32(tr[16:]) != segTailMagic {
		return fmt.Errorf("store: segment trailer magic mismatch")
	}
	if int(binary.LittleEndian.Uint32(tr[0:])) != len(body) || int(binary.LittleEndian.Uint32(tr[4:])) != len(footer) {
		return fmt.Errorf("store: segment trailer lengths disagree with header")
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tr[8:]) {
		return fmt.Errorf("store: segment body checksum mismatch")
	}
	if crc32.ChecksumIEEE(footer) != binary.LittleEndian.Uint32(tr[12:]) {
		return fmt.Errorf("store: segment footer checksum mismatch")
	}
	return nil
}

// parseSegment validates data as a segment file (either generation) and
// returns its view.
func parseSegment(data []byte) (*segmentView, error) {
	if len(data) >= len(segMagicV1) && string(data[:len(segMagicV1)]) == string(segMagicV1[:]) {
		return parseSegmentV1(data)
	}
	if len(data) < len(segMagic)+segHeaderLen+segTrailerLen || string(data[:len(segMagic)]) != string(segMagic[:]) {
		return nil, fmt.Errorf("store: not a segment file")
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[len(segMagic):]))
	footerLen := int(binary.LittleEndian.Uint32(data[len(segMagic)+4:]))
	statsLen := int(binary.LittleEndian.Uint32(data[len(segMagic)+8:]))
	bodyStart := len(segMagic) + segHeaderLen
	coreLen := bodyStart + bodyLen + footerLen + segTrailerLen
	if bodyLen < 0 || footerLen < 0 || coreLen > len(data) {
		return nil, fmt.Errorf("store: segment length %d does not match body %d + footer %d", len(data), bodyLen, footerLen)
	}
	body := data[bodyStart : bodyStart+bodyLen]
	footer := data[bodyStart+bodyLen : bodyStart+bodyLen+footerLen]
	if err := checkTrailer(data[coreLen-segTrailerLen:coreLen], body, footer); err != nil {
		return nil, err
	}
	shard, from, blockLens, err := parseFooter(footer, bodyLen, segFormatVersion)
	if err != nil {
		return nil, err
	}
	v := &segmentView{shard: shard, from: from, body: body, blockLens: blockLens}
	// Everything past the core is the advisory stats block: parse it when
	// intact, silently drop it otherwise (lazy backfill recomputes it).
	if statsLen > 0 && len(data) == coreLen+statsLen {
		if s, err := parseSegmentStats(data[coreLen:]); err == nil {
			v.stats = s
		}
	}
	return v, nil
}

// parseSegmentV1 handles the original generation: no fixed header, no stats,
// trailer at the very end of the file.
func parseSegmentV1(data []byte) (*segmentView, error) {
	if len(data) < len(segMagicV1)+segTrailerLen {
		return nil, fmt.Errorf("store: not a segment file")
	}
	tr := data[len(data)-segTrailerLen:]
	bodyLen := int(binary.LittleEndian.Uint32(tr[0:]))
	footerLen := int(binary.LittleEndian.Uint32(tr[4:]))
	if len(segMagicV1)+bodyLen+footerLen+segTrailerLen != len(data) {
		return nil, fmt.Errorf("store: segment length %d does not match body %d + footer %d", len(data), bodyLen, footerLen)
	}
	body := data[len(segMagicV1) : len(segMagicV1)+bodyLen]
	footer := data[len(segMagicV1)+bodyLen : len(segMagicV1)+bodyLen+footerLen]
	if err := checkTrailer(tr, body, footer); err != nil {
		return nil, err
	}
	shard, from, blockLens, err := parseFooter(footer, bodyLen, segFormatV1)
	if err != nil {
		return nil, err
	}
	return &segmentView{shard: shard, from: from, body: body, blockLens: blockLens}, nil
}

// numTraces returns the number of traces the segment holds.
func (v *segmentView) numTraces() int { return len(v.blockLens) }

// trace decodes trace i (0-based within the segment) using the footer's
// offset table — no other block is touched.
func (v *segmentView) trace(i int) (seqdb.Sequence, error) {
	off := 0
	for k := 0; k < i; k++ {
		off += v.blockLens[k]
	}
	s, n, err := seqdb.DecodeSequenceBlock(v.body[off : off+v.blockLens[i]])
	if err != nil {
		return nil, fmt.Errorf("store: segment trace %d: %w", i, err)
	}
	if n != v.blockLens[i] {
		return nil, fmt.Errorf("store: segment trace %d: block is %d bytes, decoded %d", i, v.blockLens[i], n)
	}
	return s, nil
}

// decodeAll decodes every trace in order.
func (v *segmentView) decodeAll() ([]seqdb.Sequence, error) {
	out := make([]seqdb.Sequence, 0, len(v.blockLens))
	off := 0
	for i, bl := range v.blockLens {
		s, n, err := seqdb.DecodeSequenceBlock(v.body[off : off+bl])
		if err != nil {
			return nil, fmt.Errorf("store: segment trace %d: %w", i, err)
		}
		if n != bl {
			return nil, fmt.Errorf("store: segment trace %d: block is %d bytes, decoded %d", i, bl, n)
		}
		out = append(out, s)
		off += bl
	}
	return out, nil
}

// ensureStats returns the segment's stats block, recomputing it from the
// decoded body when the file predates stats or the block arrived damaged.
func (v *segmentView) ensureStats() (*SegmentStats, error) {
	if v.stats != nil {
		return v.stats, nil
	}
	seqs, err := v.decodeAll()
	if err != nil {
		return nil, err
	}
	v.stats = computeSegmentStats(seqs)
	return v.stats, nil
}

// writeSegmentFile publishes a segment image at dir/segmentName(from,to).
// The write is direct, not temp-file + rename: a crash can leave a torn
// file, but recovery detects it (checksummed trailer) and, because a
// segment's WAL records are flushed before the segment is written and WAL
// generations are only retired after a completed rotation, a torn segment at
// the chain tail is always still covered by the surviving WAL — recovery
// discards the file and replays the log instead. (A tear confined to the
// trailing stats block is not even that: the core validates and the segment
// is used as-is with stats recomputed.) Saving the rename matters: segment
// publishes sit on the ingestion barrier path.
func writeSegmentFile(fs fsim.FS, dir string, from, to int, data []byte, sync bool) (segmentInfo, error) {
	path := filepath.Join(dir, segmentName(from, to))
	if err := fs.WriteFile(path, data, 0o644); err != nil {
		return segmentInfo{}, fmt.Errorf("store: writing %s: %w", path, err)
	}
	if sync {
		if err := syncFile(fs, path); err != nil {
			return segmentInfo{}, err
		}
		if err := syncDir(fs, path); err != nil {
			return segmentInfo{}, err
		}
	}
	return segmentInfo{from: from, to: to, path: path, size: int64(len(data))}, nil
}
