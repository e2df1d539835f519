// Package cache implements a pin-and-evict buffer pool over a store's sealed
// segments. Out-of-core mining iterates per-seed or per-segment views of the
// database; the pool keeps recently used decoded segments (and the
// per-segment PositionIndex fragments built over them) resident up to a
// configurable byte budget, evicting least-recently-used unpinned entries
// when the budget overflows. Pinned entries are never evicted, so the budget
// is a target, not a hard ceiling: the working set of the in-flight
// pins may exceed it transiently, exactly like a database buffer pool.
package cache

import (
	"container/list"
	"sync"

	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
)

// Options configures a Pool.
type Options struct {
	// BudgetBytes caps the estimated decoded bytes the pool keeps resident
	// across unpinned entries; <= 0 means unlimited (everything touched stays
	// cached — the fits-in-RAM fast path).
	BudgetBytes int64
	// Obs, when non-nil, is where the pool counts: cache.pins/hits/
	// evictions/bodies_opened/segments_opened/fragments_built,
	// cache.resident_bytes and cache.peak_bytes, live-scrapeable while a mine
	// runs. Give each pool its own registry (a Child of a shared one) to read
	// one pool's counts. Nil means no counting.
	Obs *obs.Registry
}

// poolMetrics are the pool's registry instruments; nil handles no-op.
type poolMetrics struct {
	pins, hits             *obs.Counter
	evictions              *obs.Counter
	bodiesOpened, segsOpen *obs.Counter
	fragsBuilt             *obs.Counter
	curBytes, peakBytes    *obs.Gauge
}

func newPoolMetrics(r *obs.Registry) poolMetrics {
	return poolMetrics{
		pins:         r.Counter("cache.pins"),
		hits:         r.Counter("cache.hits"),
		evictions:    r.Counter("cache.evictions"),
		bodiesOpened: r.Counter("cache.bodies_opened"),
		segsOpen:     r.Counter("cache.segments_opened"),
		fragsBuilt:   r.Counter("cache.fragments_built"),
		curBytes:     r.Gauge("cache.resident_bytes"),
		peakBytes:    r.Gauge("cache.peak_bytes"),
	}
}

// entry is one cached segment: decoded traces plus the lazily built
// per-segment index fragment. Lifecycle: created under mu with pins=1, loaded
// once outside mu (once), then repinned/unpinned; unpinned entries sit on the
// LRU list and are evicted map-and-all when the budget overflows. The
// fragment is likewise built once outside mu (fragOnce), by its first user.
type entry struct {
	idx  int
	once sync.Once
	err  error

	seqs     []seqdb.Sequence
	stats    *store.SegmentStats
	fragOnce sync.Once
	frag     *seqdb.PositionIndex
	bytes    int64 // estimated resident size, updated when frag materialises

	pins int
	elem *list.Element // non-nil while on the LRU list (pins == 0)
}

// Pool is the pin-and-evict segment cache. It snapshots the store's segment
// catalog at construction; safe for concurrent use.
type Pool struct {
	st        *store.Store
	metas     []store.SegmentMeta
	numEvents int

	mu      sync.Mutex
	entries map[int]*entry
	lru     *list.List // front = most recently unpinned
	budget  int64
	used    int64
	opened  map[int]bool // segments ever decoded, so segsOpen counts each once
	met     poolMetrics
}

// New builds a pool over the store's current segment catalog. numEvents is
// the event-id space (dict.Size()) that per-segment index fragments are built
// against.
func New(st *store.Store, opts Options) *Pool {
	return &Pool{
		st:        st,
		metas:     st.Segments(),
		numEvents: st.Dict().Size(),
		entries:   make(map[int]*entry),
		lru:       list.New(),
		budget:    opts.BudgetBytes,
		opened:    make(map[int]bool),
		met:       newPoolMetrics(opts.Obs),
	}
}

// Close gives the unpinned entries' bytes back to cache.resident_bytes, so
// a registry that outlives the pool reads only what live pools hold and what
// a leaked pin still holds; cache.peak_bytes keeps the high-water mark. The
// pool must not be used afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for el := p.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		p.used -= e.bytes
		p.met.curBytes.Add(-e.bytes)
	}
	p.lru.Init()
}

// NumEvents returns the event-id space segment fragments are built against.
func (p *Pool) NumEvents() int { return p.numEvents }

// NumSegments returns the catalog size.
func (p *Pool) NumSegments() int { return len(p.metas) }

// Meta returns the catalog entry for segment i (global order).
func (p *Pool) Meta(i int) store.SegmentMeta { return p.metas[i] }

// Stats returns segment i's statistics, loading them on first use. Stats are
// metadata-sized and stay resident for the pool's lifetime — they are the
// map that decides which bodies are worth opening, so evicting them would
// defeat the point. Loading stats does NOT count as opening the body (v2
// segments carry them pre-computed; v1 backfill decodes once, transiently).
func (p *Pool) Stats(i int) (*store.SegmentStats, error) {
	p.mu.Lock()
	e := p.entries[i]
	if e != nil && e.stats != nil {
		s := e.stats
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	// Loaded outside the lock; a racing duplicate load is harmless (same
	// bytes, last writer wins).
	s, err := p.st.LoadSegmentStats(p.metas[i])
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if e := p.entries[i]; e != nil {
		e.stats = s
	} else {
		p.entries[i] = &entry{idx: i, stats: s}
	}
	p.mu.Unlock()
	return s, nil
}

// Segment is a pinned view of one decoded segment. It stays valid (and the
// backing entry unevictable) until Unpin.
type Segment struct {
	p *Pool
	e *entry
	// Seqs holds the segment's traces in seal order; trace i has global id
	// Base+i.
	Seqs []seqdb.Sequence
	// Base is the segment's first global trace id (shard-major order).
	Base int
}

// Pin returns segment i decoded, loading it on a miss and evicting
// least-recently-used unpinned entries if the byte budget overflows. Every
// Pin must be matched by exactly one Unpin. The one caller that runs the
// entry's loader opens the body (a miss, counted as cache.bodies_opened);
// every other caller — single-flight waiters included — counts a hit, so
// hits + bodies_opened always equals pins.
func (p *Pool) Pin(i int) (*Segment, error) {
	p.met.pins.Inc()
	p.mu.Lock()
	e := p.entries[i]
	if e == nil {
		e = &entry{idx: i}
		p.entries[i] = e
	}
	e.pins++
	if e.elem != nil {
		p.lru.Remove(e.elem)
		e.elem = nil
	}
	p.mu.Unlock()

	loaded := false
	e.once.Do(func() {
		loaded = true
		p.met.bodiesOpened.Inc()
		seqs, stats, err := p.st.LoadSegment(p.metas[i])
		p.mu.Lock()
		defer p.mu.Unlock()
		if !p.opened[i] {
			p.opened[i] = true
			p.met.segsOpen.Inc()
		}
		if err != nil {
			e.err = err
			return
		}
		e.seqs = seqs
		if e.stats == nil {
			e.stats = stats
		}
		e.bytes = estimateBytes(seqs)
		p.account(e.bytes)
	})
	if !loaded {
		p.met.hits.Inc()
	}
	if e.err != nil {
		err := e.err
		p.unpin(e)
		return nil, err
	}
	return &Segment{p: p, e: e, Seqs: e.seqs, Base: p.metas[i].Base}, nil
}

// account adds delta to the pool's resident estimate and evicts to budget.
// Caller holds p.mu.
func (p *Pool) account(delta int64) {
	p.used += delta
	p.met.curBytes.Add(delta)
	p.met.peakBytes.SetMax(p.used)
	if p.budget <= 0 {
		return
	}
	for p.used > p.budget {
		back := p.lru.Back()
		if back == nil {
			return // everything resident is pinned; over budget until unpins
		}
		victim := back.Value.(*entry)
		p.lru.Remove(back)
		victim.elem = nil
		delete(p.entries, victim.idx)
		p.used -= victim.bytes
		p.met.curBytes.Add(-victim.bytes)
		p.met.evictions.Inc()
		// The stats stay resident: re-register a stats-only entry so skip
		// decisions never re-read the file.
		if victim.stats != nil {
			p.entries[victim.idx] = &entry{idx: victim.idx, stats: victim.stats}
		}
	}
}

func (p *Pool) unpin(e *entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.pins--
	if e.pins > 0 {
		return
	}
	if e.err != nil || e.seqs == nil {
		// Failed load: drop the entry so a later Pin retries.
		if e.err != nil {
			delete(p.entries, e.idx)
		}
		return
	}
	e.elem = p.lru.PushFront(e)
	if p.budget > 0 && p.used > p.budget {
		p.account(0)
	}
}

// Unpin releases the pin. The Segment (and any Fragment obtained from it)
// must not be used afterwards.
func (s *Segment) Unpin() { s.p.unpin(s.e) }

// Fragment returns the per-segment PositionIndex, built once per residency:
// the first caller builds it (outside the pool lock) and charges its
// estimated footprint to the pool budget, and concurrent callers wait for
// that build, as Pin's callers wait for the decode. An evicted and re-pinned
// segment builds a fresh one. Only valid while the segment is pinned.
func (s *Segment) Fragment() *seqdb.PositionIndex {
	p, e := s.p, s.e
	e.fragOnce.Do(func() {
		p.met.fragsBuilt.Inc()
		frag := seqdb.BuildPositionIndex(e.seqs, p.numEvents)
		cost := fragmentBytes(e.seqs, p.numEvents)
		p.mu.Lock()
		defer p.mu.Unlock()
		e.frag = frag
		e.bytes += cost
		p.account(cost)
	})
	return e.frag
}

// estimateBytes is EstimateBytes over decoded traces.
func estimateBytes(seqs []seqdb.Sequence) int64 {
	events := 0
	for _, s := range seqs {
		events += len(s)
	}
	return EstimateBytes(len(seqs), events)
}

// EstimateBytes is the resident size the pool charges for a decoded segment
// of the given trace and event counts: 4 bytes per event plus a slice header
// per trace. A segment's statistics give both counts without decoding it.
func EstimateBytes(traces, events int) int64 {
	return int64(traces)*24 + int64(events)*4
}

// fragmentBytes approximates a PositionIndex fragment's footprint: postings
// and previous-occurrence arrays cost ~8 bytes per event, the per-event
// offset tables ~8 bytes per event id.
func fragmentBytes(seqs []seqdb.Sequence, numEvents int) int64 {
	n := int64(numEvents) * 8
	for _, s := range seqs {
		n += int64(len(s)) * 8
	}
	return n
}
