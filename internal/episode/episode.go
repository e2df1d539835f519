// Package episode implements window-based frequent episode mining in the
// style of Mannila, Toivonen and Verkamo (the WINEPI algorithm for serial
// episodes). The paper's Sections 1–2 position iterative pattern mining
// against episode mining: episodes require their events to occur close
// together (inside a fixed-width window) and are mined from a single long
// sequence, whereas iterative patterns have no window restriction and are
// mined from a database of sequences.
//
// The package exists as the comparator baseline: the episodes example and the
// ablation benchmarks show how window-bounded mining misses rules such as
// <lock, unlock> whose events are separated by arbitrarily many other events.
//
// Since the unified-kernel refactor the miner is posting-driven: instead of
// rescanning every sliding window per candidate (the seed's level-wise pass,
// preserved under internal/bench/baseline), it grows episodes depth-first
// over seqdb.PositionIndex and counts windows by advancing greedy-embedding
// end chains over the occurrence lists. A window contains a serial episode
// exactly when the greedy (earliest) embedding rooted at the window's first
// occurrence of the episode's head event ends inside the window; those ends
// are obtained per head occurrence with one PosCursor.NextAfter chain,
// extended incrementally from the parent node's chain, so counting a
// candidate costs O(occurrences of the head event × log) instead of
// O(trace length × width).
// Counts are computed for every candidate first; the end chains are
// materialised (into free-listed arenas) only for candidates that survive
// and recurse — the framework's count-first discipline.
package episode

import (
	"errors"
	"sort"
	"time"

	"specmine/internal/mine"
	"specmine/internal/seqdb"
)

// Options configures episode mining.
type Options struct {
	// WindowWidth is the sliding-window width in events (the paper's
	// "window size"); it must be at least 1.
	WindowWidth int
	// MinFrequency is the minimum window frequency: the fraction of windows
	// that must contain the episode, in (0, 1].
	MinFrequency float64
	// MaxEpisodeLength bounds the episode length; 0 means bounded only by the
	// window width.
	MaxEpisodeLength int
	// Workers bounds the parallel worker pool (0/1 sequential, negative =
	// GOMAXPROCS). Results are identical for any value.
	Workers int
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.WindowWidth < 1 {
		return errors.New("episode: WindowWidth must be >= 1")
	}
	if o.MinFrequency <= 0 || o.MinFrequency > 1 {
		return errors.New("episode: MinFrequency must be in (0, 1]")
	}
	if o.MaxEpisodeLength < 0 {
		return errors.New("episode: MaxEpisodeLength must be >= 0")
	}
	return nil
}

func (o Options) maxLen() int {
	maxLen := o.WindowWidth
	if o.MaxEpisodeLength > 0 && o.MaxEpisodeLength < maxLen {
		maxLen = o.MaxEpisodeLength
	}
	return maxLen
}

// Episode is a serial episode (an ordered series of events) with its window
// frequency.
type Episode struct {
	Pattern seqdb.Pattern
	// Windows is the number of windows containing the episode.
	Windows int
	// Frequency is Windows divided by the total number of windows.
	Frequency float64
}

// Result is the outcome of an episode mining run.
type Result struct {
	Episodes     []Episode
	TotalWindows int
	Duration     time.Duration
}

// Sort orders episodes by decreasing frequency then content.
func (r *Result) Sort() {
	sort.Slice(r.Episodes, func(i, j int) bool {
		a, b := r.Episodes[i], r.Episodes[j]
		if a.Windows != b.Windows {
			return a.Windows > b.Windows
		}
		return seqdb.ComparePatterns(a.Pattern, b.Pattern) < 0
	})
}

// Find returns the mined entry for pattern p, if present.
func (r *Result) Find(p seqdb.Pattern) (Episode, bool) {
	for _, e := range r.Episodes {
		if e.Pattern.Equal(p) {
			return e, true
		}
	}
	return Episode{}, false
}

// minWindowsFor converts the frequency threshold into an absolute window
// count (never below one).
func minWindowsFor(minFrequency float64, totalWindows int) int {
	minWindows := int(minFrequency*float64(totalWindows) + 0.999999)
	if minWindows < 1 {
		minWindows = 1
	}
	return minWindows
}

// Mine discovers frequent serial episodes in the single event sequence s.
// Following WINEPI, the sequence is observed through a sliding window of
// WindowWidth events (windows are taken at every start position from
// -(width-1) to len(s)-1 so that every event appears in exactly width
// windows); an episode is supported by a window when it is a subsequence of
// the window's events.
func Mine(s seqdb.Sequence, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	if len(s) == 0 {
		return &Result{TotalWindows: 0, Duration: time.Since(start)}, nil
	}
	totalWindows := len(s) + opts.WindowWidth - 1
	minWindows := minWindowsFor(opts.MinFrequency, totalWindows)
	idx := seqdb.BuildPositionIndex([]seqdb.Sequence{s}, 0)
	episodes := run(idx, opts, totalWindows, minWindows)
	res := &Result{Episodes: episodes, TotalWindows: totalWindows, Duration: time.Since(start)}
	res.Sort()
	return res, nil
}

// MineDatabase mines each sequence's windows and merges the counts,
// providing an episode-style view over a sequence database for comparison
// with the iterative pattern miner: an episode's window count is summed over
// all sequences and the frequency threshold applies to the total.
func MineDatabase(db *seqdb.Database, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	totalWindows := 0
	for _, s := range db.Sequences {
		if len(s) > 0 {
			totalWindows += len(s) + opts.WindowWidth - 1
		}
	}
	minWindows := minWindowsFor(opts.MinFrequency, totalWindows)
	episodes := run(db.FlatIndex(), opts, totalWindows, minWindows)
	res := &Result{Episodes: episodes, TotalWindows: totalWindows, Duration: time.Since(start)}
	res.Sort()
	return res, nil
}

// run fans the episode search out across seed (head) events. Window counts
// are summed over every indexed sequence, and minWindows gates both
// reporting and recursion: per-sequence window sets shrink under suffix
// extension, so the merged count is antimonotone and every frequent
// episode's prefixes are frequent too. The callers sort the merged
// episodes, so results are byte-identical for any worker count, whatever
// order the per-seed outputs come in.
func run(idx *seqdb.PositionIndex, opts Options, totalWindows, minWindows int) []Episode {
	seeds := idx.FrequentEventsByInstanceCount(1)
	workers := mine.EffectiveWorkers(opts.Workers)
	newWorker := func() *miner {
		return &miner{
			idx:     idx,
			width:   opts.WindowWidth,
			maxLen:  opts.maxLen(),
			minWins: minWindows,
			total:   totalWindows,
			slots:   seqdb.NewEventSlots(idx.NumEvents()),
			path:    make(seqdb.Pattern, 0, opts.maxLen()+1),
		}
	}
	outs := mine.ForSeeds(len(seeds), workers, newWorker, func(m *miner, i int) []Episode {
		m.out = nil
		m.mineSeed(seeds[i])
		return m.out
	})
	var episodes []Episode
	for _, o := range outs {
		episodes = append(episodes, o...)
	}
	return episodes
}

// epiSeq is one sequence's slice of a node's end-chain storage: the greedy
// embedding of the node's episode rooted at the i-th occurrence of the head
// event ends at ends[off+i], for i < n (the chain fails from occurrence n
// on, monotonically).
type epiSeq struct {
	seq    int32
	off, n int32
}

// node is one search-tree node's materialised state.
type node struct {
	hdr  []epiSeq
	ends []int32
}

type miner struct {
	idx     *seqdb.PositionIndex
	width   int
	maxLen  int
	minWins int
	total   int

	slots seqdb.EventSlots
	hdrs  mine.Arena[epiSeq]
	endsA mine.Arena[int32]
	path  seqdb.Pattern
	out   []Episode
}

// windowCount returns the number of windows that use occ[i] as the first
// head-event occurrence and contain the embedding ending at end: window
// starts range over [max(floor, end-width+1), occ[i]], where floor excludes
// starts whose window already contains the previous head occurrence (those
// windows are counted there) and clips at the leftmost window -(width-1).
func (m *miner) windowCount(occ []int32, i int, end int32) int {
	t := int(occ[i])
	floor := -(m.width - 1)
	if i > 0 {
		floor = int(occ[i-1]) + 1
	}
	a := int(end) - m.width + 1
	if a < floor {
		a = floor
	}
	if t < a {
		return 0
	}
	return t - a + 1
}

func (m *miner) mineSeed(e seqdb.EventID) {
	// Seed chains are the head occurrences themselves (a single event's
	// embedding ends where it starts).
	wins := 0
	for _, si := range m.idx.SeqsContaining(e) {
		occ := m.idx.Positions(int(si), e)
		for i := range occ {
			wins += m.windowCount(occ, i, occ[i])
		}
	}
	if wins < m.minWins {
		return
	}
	m.path = append(m.path[:0], e)
	m.emit(m.path, wins)
	if m.maxLen <= 1 {
		return
	}
	nd := node{hdr: m.hdrs.Get(), ends: m.endsA.Get()}
	for _, si := range m.idx.SeqsContaining(e) {
		occ := m.idx.Positions(int(si), e)
		off := int32(len(nd.ends))
		nd.ends = append(nd.ends, occ...)
		nd.hdr = append(nd.hdr, epiSeq{seq: si, off: off, n: int32(len(occ))})
	}
	m.grow(m.path, nd)
	m.hdrs.Put(nd.hdr)
	m.endsA.Put(nd.ends)
}

// grow expands the episode p (a view of the shared path buffer) whose end
// chains are nd. The counting pass advances every live sequence's chain by
// one PosCursor.NextAfter per end for every candidate event of its local
// alphabet — counts alone decide emission and recursion — and only
// recursed-into children get their chains materialised.
func (m *miner) grow(p seqdb.Pattern, nd node) {
	first := p[0]
	sc := &m.slots
	sc.Begin()
	for _, h := range nd.hdr {
		si := int(h.seq)
		occ := m.idx.Positions(si, first)
		ends := nd.ends[h.off : h.off+h.n]
		for _, ev := range m.idx.SeqEvents(si) {
			// Ends are non-decreasing, so one galloping cursor per candidate
			// event replaces a from-scratch index search per end.
			cur := m.idx.Cursor(si, ev)
			wins := 0
			for i, end := range ends {
				ne := cur.NextAfter(end + 1)
				if ne < 0 {
					// Every later chain fails too.
					break
				}
				wins += m.windowCount(occ, i, ne)
			}
			if wins > 0 {
				sc.AddN(ev, int32(wins))
			}
		}
	}
	// Candidate order is slot (first-seen) order; sort by event id for
	// deterministic traversal.
	type cand struct {
		ev   seqdb.EventID
		wins int
	}
	cands := make([]cand, sc.Len())
	for slot := range cands {
		cands[slot] = cand{ev: sc.Event(slot), wins: int(sc.Count(slot))}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ev < cands[j].ev })

	for _, c := range cands {
		if c.wins < m.minWins {
			continue
		}
		child := append(p, c.ev)
		m.emit(child, c.wins)
		if len(child) >= m.maxLen {
			continue
		}
		cn := m.materialize(nd, first, c.ev)
		m.grow(child, cn)
		m.hdrs.Put(cn.hdr)
		m.endsA.Put(cn.ends)
	}
}

// materialize re-advances the parent's chains for the surviving candidate
// event and stores the child's chains in arena-backed storage. Sequences
// whose child window count drops to zero are dropped: window counts are
// antimonotone per sequence, so no descendant can recover them.
func (m *miner) materialize(parent node, first seqdb.EventID, ev seqdb.EventID) node {
	cn := node{hdr: m.hdrs.Get(), ends: m.endsA.Get()}
	for _, h := range parent.hdr {
		si := int(h.seq)
		occ := m.idx.Positions(si, first)
		ends := parent.ends[h.off : h.off+h.n]
		cur := m.idx.Cursor(si, ev)
		off := int32(len(cn.ends))
		wins := 0
		for i, end := range ends {
			ne := cur.NextAfter(end + 1)
			if ne < 0 {
				break
			}
			cn.ends = append(cn.ends, ne)
			wins += m.windowCount(occ, i, ne)
		}
		if wins > 0 {
			cn.hdr = append(cn.hdr, epiSeq{seq: h.seq, off: off, n: int32(len(cn.ends)) - off})
		} else {
			cn.ends = cn.ends[:off]
		}
	}
	return cn
}

func (m *miner) emit(p seqdb.Pattern, wins int) {
	m.out = append(m.out, Episode{
		Pattern:   p.Clone(),
		Windows:   wins,
		Frequency: float64(wins) / float64(m.total),
	})
}
