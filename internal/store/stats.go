package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"specmine/internal/seqdb"
)

// Per-segment event statistics. Every v2 segment carries a stats block
// recording, for each distinct event in the segment, its total occurrence
// count and the number of traces it appears in. The block is advisory:
// readers that find it damaged, absent (v1 files, torn tails) or of an
// unknown version recompute it from the decoded body instead of failing the
// open — see parseSegment.
//
// Stats block wire format, version 2 (appended after the segment trailer,
// see segment.go for the enclosing layout):
//
//	uvarint stats version (2)
//	uvarint number of distinct events
//	per distinct event, ascending by id:
//	  uvarint event id delta (first event absolute, then id - previous id)
//	  uvarint occurrence count
//	  uvarint trace count
//	uint32 LE CRC-32 of everything above
//
// Version 1 blocks also carry a fixed-size event filter between the event
// count and the entries — uvarint filter length, uvarint hash count, then
// the filter bytes. The parser skips it, so v1 blocks keep their stats.

const (
	segStatsV1      = 1
	segStatsVersion = 2
)

// SegmentStats summarises the event content of one sealed segment: exact
// per-event occurrence and trace counts. A zero count proves the event cannot
// occur anywhere in the segment — the property segment skipping relies on.
type SegmentStats struct {
	events []seqdb.EventID
	occ    []int64
	traces []int64
}

// Count returns the exact occurrence and trace counts for event e, both zero
// when the event does not occur in the segment.
func (s *SegmentStats) Count(e seqdb.EventID) (occurrences, traces int64) {
	i := sort.Search(len(s.events), func(i int) bool { return s.events[i] >= e })
	if i == len(s.events) || s.events[i] != e {
		return 0, 0
	}
	return s.occ[i], s.traces[i]
}

// NumDistinctEvents returns the number of distinct events in the segment.
func (s *SegmentStats) NumDistinctEvents() int { return len(s.events) }

// ForEachEvent calls fn for every distinct event in ascending id order.
func (s *SegmentStats) ForEachEvent(fn func(e seqdb.EventID, occurrences, traces int64)) {
	for i, e := range s.events {
		fn(e, s.occ[i], s.traces[i])
	}
}

// computeSegmentStats builds the stats summary for a run of traces. This is
// both the seal-time path (encodeSegment) and the lazy backfill path for v1
// segments or damaged stats blocks.
func computeSegmentStats(seqs []seqdb.Sequence) *SegmentStats {
	type acc struct {
		occ, traces int64
		lastTrace   int
	}
	counts := make(map[seqdb.EventID]*acc)
	for ti, s := range seqs {
		for _, e := range s {
			a := counts[e]
			if a == nil {
				a = &acc{lastTrace: -1}
				counts[e] = a
			}
			a.occ++
			if a.lastTrace != ti {
				a.lastTrace = ti
				a.traces++
			}
		}
	}
	st := &SegmentStats{
		events: make([]seqdb.EventID, 0, len(counts)),
		occ:    make([]int64, 0, len(counts)),
		traces: make([]int64, 0, len(counts)),
	}
	for e := range counts {
		st.events = append(st.events, e)
	}
	sort.Slice(st.events, func(i, j int) bool { return st.events[i] < st.events[j] })
	for _, e := range st.events {
		a := counts[e]
		st.occ = append(st.occ, a.occ)
		st.traces = append(st.traces, a.traces)
	}
	return st
}

// appendSegmentStats encodes the stats block (content + trailing CRC) onto buf.
func appendSegmentStats(buf []byte, s *SegmentStats) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(buf, segStatsVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.events)))
	prev := seqdb.EventID(0)
	for i, e := range s.events {
		buf = binary.AppendUvarint(buf, uint64(e-prev))
		prev = e
		buf = binary.AppendUvarint(buf, uint64(s.occ[i]))
		buf = binary.AppendUvarint(buf, uint64(s.traces[i]))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// parseSegmentStats decodes a stats block of either version. Any damage —
// bad CRC, truncation, unknown version — returns an error; callers treat that
// as "stats absent" and fall back to recomputation, never a failed open.
func parseSegmentStats(data []byte) (*SegmentStats, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("store: stats block too short")
	}
	content := data[:len(data)-4]
	if crc32.ChecksumIEEE(content) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("store: stats block checksum mismatch")
	}
	off := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(content[off:])
		if n <= 0 {
			return 0, fmt.Errorf("store: stats block truncated at byte %d", off)
		}
		off += n
		return v, nil
	}
	ver, err := next()
	if err != nil {
		return nil, err
	}
	if ver != segStatsV1 && ver != segStatsVersion {
		return nil, fmt.Errorf("store: unsupported stats version %d", ver)
	}
	numEvents, err := next()
	if err != nil {
		return nil, err
	}
	if ver == segStatsV1 {
		// Skip the v1 event filter: its length, hash count and bytes.
		filterLen, err := next()
		if err != nil {
			return nil, err
		}
		if _, err := next(); err != nil {
			return nil, err
		}
		if filterLen > uint64(len(content)-off) {
			return nil, fmt.Errorf("store: stats filter truncated")
		}
		off += int(filterLen)
	}
	if numEvents > uint64(len(content)) { // each entry costs >= 3 bytes
		return nil, fmt.Errorf("store: stats block claims %d events in %d bytes", numEvents, len(content))
	}
	s := &SegmentStats{
		events: make([]seqdb.EventID, 0, numEvents),
		occ:    make([]int64, 0, numEvents),
		traces: make([]int64, 0, numEvents),
	}
	prev := seqdb.EventID(0)
	for i := uint64(0); i < numEvents; i++ {
		d, err := next()
		if err != nil {
			return nil, err
		}
		occ, err := next()
		if err != nil {
			return nil, err
		}
		tr, err := next()
		if err != nil {
			return nil, err
		}
		e := prev + seqdb.EventID(d)
		if i > 0 && e <= prev {
			return nil, fmt.Errorf("store: stats event ids not ascending")
		}
		prev = e
		s.events = append(s.events, e)
		s.occ = append(s.occ, int64(occ))
		s.traces = append(s.traces, int64(tr))
	}
	if off != len(content) {
		return nil, fmt.Errorf("store: stats block has %d trailing bytes", len(content)-off)
	}
	return s, nil
}
