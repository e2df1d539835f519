package bench

import (
	"fmt"

	"specmine/internal/core"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/stream"
)

// --- out-of-core mining fixture ---------------------------------------------
//
// OocoreCase builds the durable fixture behind TestOocoreFixture's
// equivalence checks and segment-skip floor: equal-size trace clusters with
// fully disjoint event alphabets, each cluster canonicalised into its own
// sealed segment (one ingest-and-close cycle per cluster; each cycle's
// checkpoint rolls its WAL tail into one segment, and segments never merge).
// Per-segment statistics can then prove every cluster-pure segment irrelevant
// to a workload that only touches other clusters — which is what the
// segment-skip floor measures — while the full-sweep mining workload (seeds
// in every cluster) runs the pin-and-evict cache against the in-memory miner.
//
// The database deliberately fits in RAM. Scale-out correctness (DB many
// times the cache, GOMEMLIMIT-capped) is the CI out-of-core job's territory,
// not the benchmark's.

const (
	// oocoreOps (op, ...) slots per trace, cycling over an alphabet of
	// oocoreAlphabet op events, so each op event appears in ops/alphabet of
	// the cluster's traces. oocoreDrop drops every Nth close event.
	oocoreOps      = 12
	oocoreAlphabet = 16
	oocoreDrop     = 9
)

// OocoreCase is one out-of-core benchmark fixture: Clusters clusters of
// PerCluster traces each, disjoint alphabets, one sealed segment per cluster.
type OocoreCase struct {
	Clusters   int
	PerCluster int
}

// OocoreCases returns the out-of-core benchmark matrix. The headline (and
// only) case is sized to fit comfortably in RAM — see the package comment
// above — with enough clusters that the selective workload's ≥ 90% skip
// floor has real slack (1 cluster of 24 touched ⇒ ~96% skipped).
func OocoreCases() []OocoreCase {
	return []OocoreCase{{Clusters: 24, PerCluster: 200}}
}

// MinSupport is the pattern threshold every out-of-core benchmark mines at:
// strictly between each cluster's op events (12/16 of its traces) and its
// close event (8/9 of them), so the seed set is exactly the open/use/close
// triple of every cluster — a full-sweep workload with bounded fan-out.
func (c OocoreCase) MinSupport() int { return c.PerCluster * 8 / 10 }

// EventBase interns cluster k's alphabet (idempotent — Intern returns the
// existing id on reopen) and returns the id of c{k}_open; c{k}_use,
// c{k}_close and the op events follow at stable offsets +1, +2, +3...
func (c OocoreCase) EventBase(dict *seqdb.Dictionary, k int) seqdb.EventID {
	base := dict.Intern(fmt.Sprintf("c%d_open", k))
	dict.Intern(fmt.Sprintf("c%d_use", k))
	dict.Intern(fmt.Sprintf("c%d_close", k))
	for j := 0; j < oocoreAlphabet; j++ {
		dict.Intern(fmt.Sprintf("c%d_op%d", k, j))
	}
	return base
}

// trace writes cluster trace i into buf: open, a run of op slots, use, and —
// unless i hits the drop cadence — close.
func (c OocoreCase) trace(buf []seqdb.EventID, base seqdb.EventID, i int) []seqdb.EventID {
	buf = buf[:0]
	buf = append(buf, base)
	for j := 0; j < oocoreOps; j++ {
		buf = append(buf, base+3+seqdb.EventID((i*5+j*7)%oocoreAlphabet))
	}
	buf = append(buf, base+1)
	if i%oocoreDrop != oocoreDrop-1 {
		buf = append(buf, base+2)
	}
	return buf
}

// OpenOptions returns the store options every consumer of the fixture must
// open it with.
func (c OocoreCase) OpenOptions(dir string) store.Options {
	return store.Options{Dir: dir, Shards: 1}
}

// BuildStore writes the fixture into dir and leaves it cleanly closed with
// every cluster in its own sealed segment. Returns the decoded-size estimate
// of the full database in the segment cache's units (24 bytes per trace + 4
// per event) — the quantity cache budgets are expressed against.
func (c OocoreCase) BuildStore(dir string) (int64, error) {
	var decoded int64
	buf := make([]seqdb.EventID, 0, oocoreOps+3)
	for k := 0; k < c.Clusters; k++ {
		st, err := store.Open(c.OpenOptions(dir))
		if err != nil {
			return 0, err
		}
		// Interning the whole alphabet up front (first cycle only) keeps
		// event ids contiguous per cluster regardless of ingest order.
		base := c.EventBase(st.Dict(), k)
		if k == 0 {
			for j := 1; j < c.Clusters; j++ {
				c.EventBase(st.Dict(), j)
			}
		}
		// A flush batch larger than the cluster means no seal barrier fires
		// mid-cluster, so no segment is published with half a cluster in it:
		// the whole cluster stays in the WAL until the next open rolls it into
		// exactly one segment.
		ing, err := stream.Open(stream.Config{FlushBatch: c.PerCluster + 1, Store: st})
		if err != nil {
			st.Close()
			return 0, err
		}
		for i := 0; i < c.PerCluster; i++ {
			buf = c.trace(buf, base, i)
			id := fmt.Sprintf("c%d-%d", k, i)
			if err := ing.IngestIDs(id, buf...); err != nil {
				ing.Close()
				st.Close()
				return 0, err
			}
			if err := ing.CloseTrace(id); err != nil {
				ing.Close()
				st.Close()
				return 0, err
			}
			decoded += int64(24 + 4*len(buf))
		}
		if err := ing.Close(); err != nil {
			st.Close()
			return 0, err
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	// One more open canonicalises the last cluster's WAL tail, and proves the
	// layout the benchmarks depend on actually materialised: one segment per
	// cluster, no more (a split cluster) and no fewer (a merge).
	st, err := store.Open(c.OpenOptions(dir))
	if err != nil {
		return 0, err
	}
	nsegs := len(st.Segments())
	if err := st.Close(); err != nil {
		return 0, err
	}
	if nsegs != c.Clusters {
		return 0, fmt.Errorf("oocore fixture: %d segments for %d clusters — one segment per cluster lost", nsegs, c.Clusters)
	}
	return decoded, nil
}

// SelectiveRules returns the cluster-0-only rule set: both premises are
// events no other cluster's segments contain, so statistics alone answer
// every other segment. This is the segment-skip workload.
func (c OocoreCase) SelectiveRules(db *core.Database) []core.Rule {
	base := c.EventBase(db.Dict, 0)
	return []core.Rule{
		core.EvaluateRule(db, seqdb.Pattern{base}, seqdb.Pattern{base + 2}),
		core.EvaluateRule(db, seqdb.Pattern{base}, seqdb.Pattern{base + 1}),
	}
}
