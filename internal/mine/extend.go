package mine

import (
	"slices"

	"specmine/internal/seqdb"
)

// Proj is one pseudo-projection entry of a search node: a sequence and the
// position of the node's last matched event in it (-1 when nothing has been
// matched yet). The suffix s[Pos+1:] is the entry's search region. Both the
// sequential-pattern miner (one entry per supporting sequence, positioned at
// the last matched event of the classic PrefixSpan pseudo-projection) and
// the rule miner (premise projections positioned at the first temporal
// point; consequent records positioned at the earliest consequent embedding)
// are instances of this shape.
type Proj struct {
	Seq int32
	Pos int32
}

// Ext is one candidate suffix extension of a search node: the extending
// event, the number of projection entries whose suffix contains it, and —
// only when Extensions finds the count reaching the node's materialise
// threshold — the extension's own projection, positioned at the first
// occurrence of the event within each surviving suffix.
//
// ISup, set on extensions reaching the threshold (by Extensions and Counts
// alike), counts the occurrences of Event at or after the extension's first
// entry on each sequence (its entries on a sequence form a consecutive run,
// and a sequence the projection returns to starts a new one): the rule
// miner's i-support of the extended consequent.
type Ext struct {
	Event seqdb.EventID
	Count int32
	ISup  int32
	Proj  []Proj
}

// ExtSet is the extension set of one search node. All materialised
// projections share one arena block; Release recycles it once the node's
// subtree has been fully explored.
type ExtSet struct {
	Exts []Ext

	projArena []Proj
}

// Extender runs count-first suffix extension over a shared positional index.
// It owns the per-worker scratch (event slots) and the free-listed arenas
// that back projection storage; give each worker goroutine its own Extender
// and Rebind it as the worker moves from one seed view to the next.
//
// Callers that retain materialised projections beyond the node's lifetime
// (the rule miner's premise enumeration stores them in consequent jobs)
// simply never call Release; the arenas then always hand out fresh storage.
type Extender struct {
	idx   *seqdb.PositionIndex
	slots seqdb.EventSlots

	// counted buffers one record per (group, candidate) pair the counting
	// pass finds, so materialisation replays the buffer instead of walking
	// every group's distinct-event list again. It is consumed before
	// Extensions returns, so one buffer serves every node of the worker's
	// search.
	counted []extRec
	// lastSeq holds, per slot, the sequence of the slot's last record that
	// Counts has summed into ISup.
	lastSeq []int32

	projs Arena[Proj]
	exts  Arena[Ext]
}

// extRec is one candidate counted in one group: the candidate's slot, the
// group's first projection entry, the number of leading group entries whose
// suffix contains the candidate, and the candidate's rank in the sequence's
// distinct-event list, which addresses its position list.
type extRec struct {
	slot  int32
	first int32
	n     int32
	rank  int32
}

// NewExtender returns an extender over the given index.
func NewExtender(idx *seqdb.PositionIndex) *Extender {
	x := new(Extender)
	x.Rebind(idx)
	return x
}

// Rebind points the extender at another index, keeping its scratch and
// arenas; a zero Extender is ready once bound. The event slots are
// reallocated only when the event-id space differs, which never happens
// across the seed views of one Source. Projections handed out over the old
// index must not be extended over the new one.
func (x *Extender) Rebind(idx *seqdb.PositionIndex) {
	if x.idx == nil || x.idx.NumEvents() != idx.NumEvents() {
		x.slots = seqdb.NewEventSlots(idx.NumEvents())
	}
	x.idx = idx
}

// SeedProj returns the root projection of seed event e: one entry per
// sequence containing e, positioned at its first occurrence, read straight
// off the index postings. The slice comes from the extender's arena; release
// it with ReleaseProj when the seed subtree is done (or keep it, see above).
func (x *Extender) SeedProj(e seqdb.EventID) []Proj {
	seqs := x.idx.SeqsContaining(e)
	proj := x.projs.GetN(len(seqs))
	for i, si := range seqs {
		proj[i] = Proj{Seq: si, Pos: x.idx.Positions(int(si), e)[0]}
	}
	return proj
}

// ReleaseProj recycles a projection obtained from SeedProj.
func (x *Extender) ReleaseProj(proj []Proj) { x.projs.Put(proj) }

// count is the counting pass shared by Extensions and Counts. An extension's
// Count is the number of entries whose suffix contains its event, so entries
// that keep one entry per sequence count sequence support directly.
//
// Counting never scans a suffix. Consecutive entries on the same sequence
// with non-decreasing Pos form one group (a decreasing neighbour starts a
// new group), and each group is counted once from its sequence's
// distinct-event list in the index (SeqLastOccurrences): an event e is in
// the suffix of exactly the group entries positioned before e's last
// occurrence, a leading run of the group. The list runs latest last
// occurrence first, so that run never grows along the walk: one cursor per
// group, stepped back from the group's end, finds every run with no search.
// The walk stops at the first event absent from the group's first suffix,
// so a group costs the number of distinct events in that suffix plus the
// number of its entries.
//
// count leaves the candidates in the event slots and one record per (group,
// candidate) pair in x.counted, in entry order, and returns the extensions
// with their counts, indexed by slot; nil when no entry's suffix is
// non-empty.
func (x *Extender) count(proj []Proj) []Ext {
	sc := &x.slots
	sc.Begin()
	// A group records at most one candidate per distinct event of its
	// sequence, so one growth sizes the buffer for the whole pass.
	bound := 0
	for i := range proj {
		if i == 0 || proj[i].Seq != proj[i-1].Seq || proj[i].Pos < proj[i-1].Pos {
			bound += len(x.idx.SeqLastOccurrences(int(proj[i].Seq)))
		}
	}
	x.counted = slices.Grow(x.counted[:0], bound)
	for first := 0; first < len(proj); {
		seq := proj[first].Seq
		end := first + 1
		for end < len(proj) && proj[end].Seq == seq && proj[end].Pos >= proj[end-1].Pos {
			end++
		}
		group := proj[first:end]
		events := x.idx.SeqEvents(int(seq))
		n := len(group) // the group entries positioned before lo.Pos
		for _, lo := range x.idx.SeqLastOccurrences(int(seq)) {
			if lo.Pos <= group[0].Pos {
				break // no later event occurs in any entry's suffix
			}
			// Last occurrences only move earlier along the walk, so the run
			// only shrinks; group[0] precedes lo.Pos, so n stays >= 1.
			for group[n-1].Pos >= lo.Pos {
				n--
			}
			slot := sc.AddN(events[lo.Rank], int32(n))
			x.counted = append(x.counted, extRec{slot: slot, first: int32(first), n: int32(n), rank: lo.Rank})
		}
		first = end
	}
	if sc.Len() == 0 {
		return nil
	}
	exts := x.exts.GetN(sc.Len())
	for slot := range exts {
		exts[slot] = Ext{Event: sc.Event(slot), Count: sc.Count(slot)}
	}
	return exts
}

// Extensions performs the count-first extension pass for the node whose
// pseudo-projection is proj (see count).
//
// Only candidates with Count >= materializeMin get their extension
// projection materialised (into one shared arena block): each counted entry,
// in entry order, is positioned at the first occurrence of the event in its
// suffix, found by merging the event's position list with the group's
// entries, galloping on from the previous entry's occurrence (the next one
// is usually a few slots away); the same merge sums the extension's ISup.
// Counts alone serve every pruning decision below the threshold. The
// returned extensions are sorted by event id for deterministic traversal.
func (x *Extender) Extensions(proj []Proj, materializeMin int32) ExtSet {
	exts := x.count(proj)
	es := ExtSet{Exts: exts}
	total := 0
	for _, e := range exts {
		if e.Count >= materializeMin {
			total += int(e.Count)
		}
	}
	if total > 0 {
		es.projArena = x.projs.GetN(total)
		off := 0
		for slot := range exts {
			if c := int(exts[slot].Count); c >= int(materializeMin) {
				// Three-index slices cap each extension at its exact count, so
				// sibling appends can never run into one another's region.
				exts[slot].Proj = es.projArena[off : off : off+c]
				off += c
			}
		}
		// Groups were counted in entry order, so replaying the buffer
		// appends each extension's entries in entry order too.
		for _, rec := range x.counted {
			e := &exts[rec.slot]
			if e.Proj == nil {
				continue
			}
			seq := proj[rec.first].Seq
			ps := x.idx.SeqEventPositions(int(seq), int(rec.rank))
			lead := len(e.Proj) == 0 || e.Proj[len(e.Proj)-1].Seq != seq
			j := 0
			for i := rec.first; i < rec.first+rec.n; i++ {
				// Group positions are non-decreasing, so the first occurrence
				// after each entry never moves backwards: the merge gallops on
				// from where the previous entry's occurrence was found.
				j = seqdb.Gallop(ps, j, proj[i].Pos+1)
				if lead {
					// The sequence's first entry: every occurrence from ps[j]
					// on counts towards ISup.
					e.ISup += int32(len(ps) - j)
					lead = false
				}
				e.Proj = append(e.Proj, Proj{Seq: seq, Pos: ps[j]})
			}
		}
	}
	// Sort only after the replay above: the buffer addresses extensions by
	// slot index.
	slices.SortFunc(exts, func(a, b Ext) int { return int(a.Event) - int(b.Event) })
	return es
}

// Counts is Extensions for a node whose children are leaves of the search:
// it runs the same counting pass and returns every extension's Count, and
// ISup for those with Count >= min, but materialises no projection (every
// Proj is nil) and takes no projection arena block. ISup is summed exactly
// as Extensions sums it — from each sequence's first counted entry — with
// one gallop from the start of the event's position list per extension and
// sequence run, instead of a merge over every entry.
func (x *Extender) Counts(proj []Proj, min int32) ExtSet {
	exts := x.count(proj)
	x.lastSeq = slices.Grow(x.lastSeq[:0], len(exts))[:len(exts)]
	for slot := range x.lastSeq {
		x.lastSeq[slot] = -1
	}
	for _, rec := range x.counted {
		e := &exts[rec.slot]
		seq := proj[rec.first].Seq
		if e.Count < min || x.lastSeq[rec.slot] == seq {
			continue
		}
		x.lastSeq[rec.slot] = seq
		ps := x.idx.SeqEventPositions(int(seq), int(rec.rank))
		e.ISup += int32(len(ps) - seqdb.Gallop(ps, 0, proj[rec.first].Pos+1))
	}
	slices.SortFunc(exts, func(a, b Ext) int { return int(a.Event) - int(b.Event) })
	return ExtSet{Exts: exts}
}

// Release recycles the node's arenas. The caller must be done with every
// extension projection: children explored, nothing retained.
func (x *Extender) Release(es ExtSet) {
	x.projs.Put(es.projArena)
	x.exts.Put(es.Exts)
}
