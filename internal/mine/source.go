package mine

import "specmine/internal/seqdb"

// Seed views. Every miner pulls, per seed event, a view of the database from
// a Source that contains at least the traces the seed's subtree can ever
// touch. A database held wholly in memory is the degenerate case — a store
// whose only segment is always resident (Resident) — so there is one search
// driver per miner, whatever backs the data. Out-of-core sources are
// typically backed by the segment catalog and the pin-and-evict cache;
// segment skipping lives in the Source: per-segment statistics decide which
// bodies a seed needs, so a segment whose stats prove the seed event absent
// is never opened.
//
// The contract that makes per-seed mining byte-identical for every Source:
//
//   - every pattern/premise grown from seed e starts with e, so its
//     supporting traces, extension counts and closedness witnesses all live
//     in traces containing e;
//   - SeedView.DB holds at least those traces, in ascending global order, and
//     Global maps local sequence ids back to global ones;
//   - the view's index covers the full event-id space (NumEvents), so
//     per-event scratch tables size identically.
//
// A view may hold more than its seed's traces, and it may be call-wide: one
// view handed to every seed and every worker of a call (Resident's whole
// database, or an out-of-core source's union of the seeds' segments). Miners
// therefore treat a view as read-only and share it freely. The seeds are the
// events of the Source's last FrequentByInstanceCount/FrequentBySeqSupport
// call, which a miner makes before its first AcquireSeed and whose events
// are the only ones it acquires; a source may plan its views from that list.
//
// A view's index need not be built for it: an out-of-core view borrows the
// rows of its traces from the pinned segments' own index fragments
// (seqdb.BorrowPositionIndex), so it is valid only until Release unpins
// them, or, for a call-wide view, until the call ends.

// SeedView is one seed's slice of the database: at least the traces
// containing the seed event (for a call-wide view, every trace of the call),
// their index, and the local→global id mapping. Release returns what the
// view pins to the cache; the view must not be used after. Release may do
// nothing, when the view outlives the seed.
type SeedView struct {
	DB *seqdb.Database
	// Idx indexes DB.Sequences. It may borrow rows from the pinned segments'
	// fragments, so it is valid only until Release.
	Idx *seqdb.PositionIndex
	// Global maps local sequence ids to global ones, ascending. Nil is the
	// identity map: the view is the whole database.
	Global []int32
	// Release unpins the backing segments. Always non-nil.
	Release func()
}

// LocalOf maps a global sequence id back to the view-local id via binary
// search over the ascending Global table, which must be non-nil. The id must
// be present.
func (v *SeedView) LocalOf(global int32) int32 {
	lo, hi := 0, len(v.Global)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.Global[mid] < global {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// Source supplies per-seed views of a database. Implementations must be safe
// for concurrent AcquireSeed calls from multiple mining workers.
type Source interface {
	// NumSequences is the global trace count — the denominator for relative
	// support thresholds.
	NumSequences() int
	// NumEvents is the event-id space (dictionary size).
	NumEvents() int
	// FrequentByInstanceCount lists, ascending, the events whose global
	// occurrence count reaches min. A miner calls it (or
	// FrequentBySeqSupport) once, before its first AcquireSeed; the events
	// listed are its seeds.
	FrequentByInstanceCount(min int) []seqdb.EventID
	// FrequentBySeqSupport lists, ascending, the events whose global
	// sequence support reaches min.
	FrequentBySeqSupport(min int) []seqdb.EventID
	// AcquireSeed returns the view for one seed event, an event of the last
	// Frequent* list. The view may be shared with other seeds and workers.
	// The caller must call Release exactly once.
	AcquireSeed(e seqdb.EventID) (*SeedView, error)
}

// Resident returns the Source of a database held wholly in memory: a single
// always-resident segment. Every seed's view is the whole database with its
// FlatIndex and the identity id map — no per-seed copy, no index build, and
// nothing to release.
func Resident(db *seqdb.Database) Source {
	return resident{&SeedView{DB: db, Idx: db.FlatIndex(), Release: func() {}}}
}

type resident struct{ view *SeedView }

func (r resident) NumSequences() int { return r.view.DB.NumSequences() }
func (r resident) NumEvents() int    { return r.view.Idx.NumEvents() }

func (r resident) FrequentByInstanceCount(min int) []seqdb.EventID {
	return r.view.Idx.FrequentEventsByInstanceCount(min)
}

func (r resident) FrequentBySeqSupport(min int) []seqdb.EventID {
	return r.view.Idx.FrequentEventsBySeqSupport(min)
}

func (r resident) AcquireSeed(seqdb.EventID) (*SeedView, error) { return r.view, nil }
