package store

import (
	"fmt"

	"specmine/internal/seqdb"
)

// Segment catalog: the read-side API that lets out-of-core mining iterate a
// store's sealed traces segment by segment instead of materialising one
// global database. See internal/store/cache for the pin-and-evict pool built
// on top of it.

// SegmentMeta describes one live segment file. From/To are shard-local seal
// ordinals (To exclusive); Base is the global index of the segment's first
// trace in the shard-major order that Recovered().Database uses, so the
// global id of trace i within the segment is Base+i.
type SegmentMeta struct {
	Shard    int
	From, To int
	Base     int
	Path     string
	Size     int64
}

// NumTraces returns the number of traces the segment covers.
func (m SegmentMeta) NumTraces() int { return m.To - m.From }

// Segments returns the live segment catalog in global trace order:
// shard-major, then ascending seal ordinal — the same order in which
// Recovered().Database concatenates traces. Opening a store canonicalises
// each shard (WAL-recovered sealed traces are rolled into segments), so on a
// store that has not ingested since Open the catalog covers exactly the
// recovered sealed traces and a segment-by-segment sweep visits the same
// traces, in the same order, as the in-memory database.
//
// During live ingest the catalog covers a consistent prefix of every shard:
// a live reader sees a sealed trace once its shard's unsegmented tail has
// reached Options.SegmentBytes and a seal barrier has written it, or once a
// checkpoint (WAL rotation, clean close, Open) has. Until then the trace
// lives only in the WAL. Every entry stays readable for as long as the store
// is open, since segments are never merged or removed while it runs.
func (st *Store) Segments() []SegmentMeta {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	var out []SegmentMeta
	base := 0
	for si, sl := range st.shards {
		covered := 0
		for _, info := range sl.segs {
			out = append(out, SegmentMeta{
				Shard: si,
				From:  info.from,
				To:    info.to,
				Base:  base + info.from,
				Path:  info.path,
				Size:  info.size,
			})
			covered = info.to
		}
		base += covered
	}
	return out
}

// loadSegmentView reads and validates the segment file behind meta.
func (st *Store) loadSegmentView(meta SegmentMeta) (*segmentView, error) {
	var buf []byte
	err := st.retryTransient(func() error {
		var rerr error
		buf, rerr = st.fs.ReadFile(meta.Path)
		return rerr
	})
	if err != nil {
		return nil, st.ioError(err, "segment read")
	}
	v, err := parseSegment(buf)
	if err != nil {
		return nil, err
	}
	if v.shard != meta.Shard || v.from != meta.From || v.numTraces() != meta.NumTraces() {
		return nil, fmt.Errorf("store: %s: footer (shard %d, from %d, %d traces) contradicts the catalog entry", meta.Path, v.shard, v.from, v.numTraces())
	}
	return v, nil
}

// LoadSegment reads, validates and fully decodes one segment: its traces in
// seal order plus its stats. Stats are recomputed from the decoded body when
// the file predates the stats block (v1) or the block arrived damaged.
func (st *Store) LoadSegment(meta SegmentMeta) ([]seqdb.Sequence, *SegmentStats, error) {
	v, err := st.loadSegmentView(meta)
	if err != nil {
		return nil, nil, err
	}
	seqs, err := v.decodeAll()
	if err != nil {
		return nil, nil, err
	}
	stats := v.stats
	if stats == nil {
		stats = computeSegmentStats(seqs)
	}
	return seqs, stats, nil
}

// LoadSegmentStats returns only the segment's stats block. The file is read
// and its checksums validated either way (the fs API is whole-file), but the
// body is only decoded on the lazy-backfill path — v1 files or damaged stats
// blocks — so for current-generation segments the call does no per-trace
// work.
func (st *Store) LoadSegmentStats(meta SegmentMeta) (*SegmentStats, error) {
	v, err := st.loadSegmentView(meta)
	if err != nil {
		return nil, err
	}
	return v.ensureStats()
}
