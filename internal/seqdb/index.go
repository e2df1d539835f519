package seqdb

import "slices"

// PositionIndex is the flat, cache-friendly positional index used by the
// mining hot paths, with one self-contained row per sequence:
//
//   - each row holds its sequence's sorted distinct events, their position
//     lists back to back in the row's own position slice, and an offset table
//     into that slice (relative to the row, not to any shared arena), so a
//     (sequence, event) lookup is a binary search over the sequence's
//     (typically small) local alphabet;
//   - each row also lists its distinct events with their last occurrences,
//     latest first, so the events occurring after any position are a prefix
//     of that list;
//   - prevOcc[j] stores the previous position of event s[j] within the
//     sequence (or -1), which turns "does this event occur inside span
//     [lo..j)?" — the gap-validity test the QRE semantics needs at every
//     search-tree node — into a single O(1) array read;
//   - a per-event postings CSR lists, for every event, the sequences that
//     contain it, which drives seed generation without map iteration.
//
// Because a row depends on nothing outside itself, an index can be assembled
// from rows of other indexes (BorrowPositionIndex) by copying row headers
// only: a seed view over a store's segments borrows the rows of the pinned
// segments' own fragments instead of rebuilding them.
//
// An index is never modified after construction, so one index is safely
// shared by any number of concurrent mining workers.
type PositionIndex struct {
	numEvents    int
	numPositions int

	rows []posRow

	// Per-event postings CSR: postSeqs[postOffsets[e]:postOffsets[e+1]] lists
	// the sequences containing event e, in increasing order.
	postSeqs    []int32
	postOffsets []int32

	// instCount[e] is the total number of occurrences of event e.
	instCount []int32
}

// posRow is one sequence's self-contained slice of the index. Its slices
// alias the backing arrays of the index that built it and are never written
// after construction, so a row header may be copied into any other index.
type posRow struct {
	// events is the sorted distinct-event list; offsets[k] is where the
	// position list of events[k] starts in pos (one trailing sentinel).
	events  []EventID
	offsets []int32
	pos     []int32
	// lastOcc lists the distinct events by last occurrence, latest first.
	lastOcc []LastOccurrence
	// prevOcc[j] is the previous position of the event at j, or -1.
	prevOcc []int32
}

// BuildPositionIndex constructs the index for the given sequences. numEvents
// must be at least one greater than the largest event id referenced.
func BuildPositionIndex(sequences []Sequence, numEvents int) *PositionIndex {
	for _, s := range sequences {
		for _, e := range s {
			if int(e) >= numEvents {
				numEvents = int(e) + 1
			}
		}
	}
	idx := &PositionIndex{
		numEvents: numEvents,
		rows:      make([]posRow, len(sequences)),
		instCount: make([]int32, numEvents),
	}

	totalEvents := 0
	for _, s := range sequences {
		totalEvents += len(s)
	}
	idx.numPositions = totalEvents
	// Rows slice two shared backing arrays; each row's lists are addressed
	// relative to its own slice of them.
	posArena := make([]int32, totalEvents)
	prevArena := make([]int32, totalEvents)

	// Scratch keyed by event id, reset via the per-sequence touched list so
	// building stays O(total events + distinct events log distinct events).
	lastSeen := make([]int32, numEvents)
	counts := make([]int32, numEvents)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	seqSupport := make([]int32, numEvents)
	touched := make([]EventID, 0, 64)

	// One backing array for all distinct-event lists and offset tables keeps
	// the per-sequence headers contiguous too.
	distinctTotal := 0
	for _, s := range sequences {
		touched = touched[:0]
		for _, e := range s {
			if counts[e] == 0 {
				touched = append(touched, e)
			}
			counts[e]++
		}
		distinctTotal += len(touched)
		for _, e := range touched {
			counts[e] = 0
		}
	}
	eventsArena := make([]EventID, 0, distinctTotal)
	offsetsArena := make([]int32, 0, distinctTotal+len(sequences))
	lastArena := make([]LastOccurrence, 0, distinctTotal)

	cursor := make([]int32, numEvents)
	rankOf := make([]int32, numEvents)
	base := 0
	for si, s := range sequences {
		row := &idx.rows[si]
		// Distinct events and their occurrence counts.
		touched = touched[:0]
		for _, e := range s {
			if counts[e] == 0 {
				touched = append(touched, e)
			}
			counts[e]++
			idx.instCount[e]++
		}
		slices.Sort(touched)

		evBase := len(eventsArena)
		eventsArena = append(eventsArena, touched...)
		row.events = eventsArena[evBase:len(eventsArena):len(eventsArena)]

		offBase := len(offsetsArena)
		off := int32(0)
		for k, e := range touched {
			rankOf[e] = int32(k)
			offsetsArena = append(offsetsArena, off)
			cursor[e] = off
			off += counts[e]
			seqSupport[e]++
		}
		offsetsArena = append(offsetsArena, off)
		row.offsets = offsetsArena[offBase:len(offsetsArena):len(offsetsArena)]

		// Fill position lists and the prev-occurrence array in one pass.
		end := base + len(s)
		pos := posArena[base:end:end]
		prev := prevArena[base:end:end]
		base = end
		for j, e := range s {
			pos[cursor[e]] = int32(j)
			cursor[e]++
			prev[j] = lastSeen[e]
			lastSeen[e] = int32(j)
		}
		row.pos, row.prevOcc = pos, prev

		// A backward walk meets each event's last occurrence before any of
		// its earlier ones.
		lastBase := len(lastArena)
		for j := len(s) - 1; j >= 0; j-- {
			if lastSeen[s[j]] == int32(j) {
				lastArena = append(lastArena, LastOccurrence{Pos: int32(j), Rank: rankOf[s[j]]})
			}
		}
		row.lastOcc = lastArena[lastBase:len(lastArena):len(lastArena)]
		for _, e := range touched {
			counts[e] = 0
			lastSeen[e] = -1
		}
	}
	idx.buildPostings(seqSupport)
	return idx
}

// RowSet names rows of one index: the sequences Seqs of From.
type RowSet struct {
	From *PositionIndex
	Seqs []int32
}

// BorrowPositionIndex assembles an index whose sequences are the rows named
// by sets, in order: sets[0].Seqs, then sets[1].Seqs, and so on. It copies
// only the row headers and sums the per-event counts; every position list,
// distinct-event list and prev-occurrence array stays shared with the source
// indexes, so the result is valid only while they are (for a cache fragment:
// while its segment stays pinned). The postings are built over the borrowed
// rows. The event-id space is numEvents, widened to the largest source
// index's. The result answers every query exactly as BuildPositionIndex
// over the same sequences in the same order would.
func BorrowPositionIndex(numEvents int, sets []RowSet) *PositionIndex {
	n := 0
	for _, rs := range sets {
		n += len(rs.Seqs)
		numEvents = max(numEvents, rs.From.numEvents)
	}
	idx := &PositionIndex{
		numEvents: numEvents,
		rows:      make([]posRow, 0, n),
		instCount: make([]int32, numEvents),
	}
	seqSupport := make([]int32, numEvents)
	for _, rs := range sets {
		for _, s := range rs.Seqs {
			row := rs.From.rows[s]
			idx.rows = append(idx.rows, row)
			idx.numPositions += len(row.pos)
			for k, e := range row.events {
				idx.instCount[e] += row.offsets[k+1] - row.offsets[k]
				seqSupport[e]++
			}
		}
	}
	idx.buildPostings(seqSupport)
	return idx
}

// buildPostings fills the per-event postings CSR from the rows, given each
// event's sequence support.
func (idx *PositionIndex) buildPostings(seqSupport []int32) {
	idx.postOffsets = make([]int32, idx.numEvents+1)
	total := int32(0)
	for e, n := range seqSupport {
		idx.postOffsets[e] = total
		total += n
	}
	idx.postOffsets[idx.numEvents] = total
	idx.postSeqs = make([]int32, total)
	// seqSupport becomes the per-event fill cursor.
	copy(seqSupport, idx.postOffsets[:idx.numEvents])
	for si := range idx.rows {
		for _, e := range idx.rows[si].events {
			idx.postSeqs[seqSupport[e]] = int32(si)
			seqSupport[e]++
		}
	}
}

// NumEvents returns the size of the event-id space covered by the index.
func (idx *PositionIndex) NumEvents() int { return idx.numEvents }

// NumSequences returns the number of indexed sequences.
func (idx *PositionIndex) NumSequences() int { return len(idx.rows) }

// NumPositions returns the total number of indexed event occurrences (the
// sum of all sequence lengths). It is the O(1) index-side counterpart of
// Database.NumEvents.
func (idx *PositionIndex) NumPositions() int { return idx.numPositions }

// Positions returns the sorted occurrence positions of event e in sequence s,
// or nil when e does not occur there.
func (idx *PositionIndex) Positions(s int, e EventID) []int32 {
	row := &idx.rows[s]
	k := lowerBound(row.events, e)
	if k == len(row.events) || row.events[k] != e {
		return nil
	}
	return row.pos[row.offsets[k]:row.offsets[k+1]]
}

// SeqEvents returns the sorted distinct events of sequence s. The returned
// slice is shared and must not be modified.
func (idx *PositionIndex) SeqEvents(s int) []EventID { return idx.rows[s].events }

// LastOccurrence is one distinct event of a sequence: the position of its
// last occurrence there and its rank, the event's index in SeqEvents (which
// SeqEventPositions takes).
type LastOccurrence struct {
	Pos  int32
	Rank int32
}

// SeqLastOccurrences returns the distinct events of sequence s ordered by
// last occurrence, latest first: the events occurring after any position p
// are exactly the entries before the first one with Pos <= p. The returned
// slice is shared and must not be modified.
func (idx *PositionIndex) SeqLastOccurrences(s int) []LastOccurrence { return idx.rows[s].lastOcc }

// SeqEventPositions returns the sorted occurrence positions of SeqEvents(s)[k],
// the k-th distinct event of sequence s: Positions without the event lookup,
// for callers already walking the distinct-event list. The list is never
// empty and its last entry is the event's last occurrence in s. The returned
// slice is shared and must not be modified.
func (idx *PositionIndex) SeqEventPositions(s, k int) []int32 {
	row := &idx.rows[s]
	return row.pos[row.offsets[k]:row.offsets[k+1]]
}

// SeqContains reports whether event e occurs in sequence s. It is the cheap
// presence probe Where's residual event filters run: one branchless binary
// search over the sequence's (typically small) distinct-event list, touching
// no position data. Ids outside the index's event space read as absent, like
// EventInstanceCount.
func (idx *PositionIndex) SeqContains(s int, e EventID) bool {
	if e < 0 || int(e) >= idx.numEvents {
		return false
	}
	events := idx.rows[s].events
	k := lowerBound(events, e)
	return k < len(events) && events[k] == e
}

// OccursWithin reports whether the event at position pos of sequence s also
// occurs somewhere in [lo, pos). It relies on the prev-occurrence chain, so it
// is exact only when pos holds the first occurrence at or after lo' for every
// lo' in (prevOcc, pos]; the miners always query it in that regime. Only the
// iterative-pattern miner (iterpattern) calls it: the shared Extender in
// package mine counts extensions from the last-occurrence lists instead.
func (idx *PositionIndex) OccursWithin(s, pos, lo int) bool {
	return idx.rows[s].prevOcc[pos] >= int32(lo)
}

// lowerBound returns the smallest index i with a[i] >= x. The halving loop
// carries a single conditional add per step — no data-dependent branch — so
// the compiler lowers it to CMOV and the mining hot loops stop paying
// mispredictions on the (close to random) comparison outcomes.
func lowerBound[T ~int32](a []T, x T) int {
	base, n := 0, len(a)
	for n > 1 {
		half := n >> 1
		if a[base+half-1] < x {
			base += half
		}
		n -= half
	}
	if n == 1 && a[base] < x {
		base++
	}
	return base
}

// CountFrom returns the number of occurrences of e in sequence s at position
// from or later.
func (idx *PositionIndex) CountFrom(s int, e EventID, from int) int {
	positions := idx.Positions(s, e)
	return len(positions) - lowerBound(positions, int32(from))
}

// PositionsFrom returns the sorted occurrence positions of e in sequence s
// that are >= from.
func (idx *PositionIndex) PositionsFrom(s int, e EventID, from int) []int32 {
	positions := idx.Positions(s, e)
	return positions[lowerBound(positions, int32(from)):]
}

// PosCursor walks one (sequence, event) occurrence list monotonically. It is
// the amortised next-occurrence probe for callers whose probe positions never
// decrease — the episode miner's end-chain advance — resolving the common
// "next occurrence is the next entry" case in O(1) and galloping (doubling
// probe distance, then a branchless binary search inside the bracket) past
// longer skips, so a full monotone scan over n probes costs O(len + n log)
// instead of n independent from-scratch searches.
type PosCursor struct {
	positions []int32
	i         int
}

// Cursor returns a cursor over the occurrences of e in sequence s. A zero
// cursor (no occurrences) is valid and always reports -1.
func (idx *PositionIndex) Cursor(s int, e EventID) PosCursor {
	return PosCursor{positions: idx.Positions(s, e)}
}

// NextAfter returns the smallest occurrence position >= from not yet passed,
// or -1 when none remains. Probe positions must be non-decreasing across
// calls; under that contract it returns the first occurrence at or after from.
func (c *PosCursor) NextAfter(from int32) int32 {
	c.i = Gallop(c.positions, c.i, from)
	if c.i >= len(c.positions) {
		return -1
	}
	return c.positions[c.i]
}

// Gallop returns the index of the first element of the sorted slice a at or
// after index i that is >= x (len(a) when none is), for callers that know
// nothing before i qualifies and whose answer is usually a few slots past i:
// it doubles the probe distance from i to bracket the answer, then
// binary-searches the bracket, so it costs O(log d) for an answer d slots
// away instead of a search over all of a[i:].
func Gallop(a []int32, i int, x int32) int {
	if i >= len(a) || a[i] >= x {
		return i
	}
	return gallop(a, i, x)
}

// gallop is Gallop past its first probe, kept out of line so that Gallop
// inlines and its most common answer, i itself, costs callers no call.
func gallop(a []int32, i int, x int32) int {
	// Bracket the answer between the last probe known < x and the first
	// known >= x (or the end), then binary-search the bracket.
	bound := 1
	for i+bound < len(a) && a[i+bound] < x {
		bound <<= 1
	}
	lo := i + bound>>1 + 1
	hi := min(i+bound+1, len(a))
	return lo + lowerBound(a[lo:hi], x)
}

// SeqsContaining returns the sequences containing event e, in increasing
// order. The returned slice is shared and must not be modified.
func (idx *PositionIndex) SeqsContaining(e EventID) []int32 {
	return idx.postSeqs[idx.postOffsets[e]:idx.postOffsets[e+1]]
}

// EventSeqSupport returns the number of sequences containing event e.
func (idx *PositionIndex) EventSeqSupport(e EventID) int {
	return int(idx.postOffsets[e+1] - idx.postOffsets[e])
}

// EventInstanceCount returns the total number of occurrences of event e. An
// id outside the index's event-id space counts zero occurrences: with a
// shared, still-growing dictionary (the streaming case), callers routinely
// score patterns mined from a newer snapshot against an older one, and an
// event the older snapshot never saw must read as absent, not as a panic.
func (idx *PositionIndex) EventInstanceCount(e EventID) int {
	if int(e) >= len(idx.instCount) || e < 0 {
		return 0
	}
	return int(idx.instCount[e])
}

// FrequentEventsByInstanceCount returns, sorted by id, the events with at
// least min total occurrences.
func (idx *PositionIndex) FrequentEventsByInstanceCount(min int) []EventID {
	var out []EventID
	for e := 0; e < idx.numEvents; e++ {
		if int(idx.instCount[e]) >= min {
			out = append(out, EventID(e))
		}
	}
	return out
}

// FrequentEventsBySeqSupport returns, sorted by id, the events occurring in at
// least min distinct sequences.
func (idx *PositionIndex) FrequentEventsBySeqSupport(min int) []EventID {
	var out []EventID
	for e := 0; e < idx.numEvents; e++ {
		if idx.EventSeqSupport(EventID(e)) >= min {
			out = append(out, EventID(e))
		}
	}
	return out
}
