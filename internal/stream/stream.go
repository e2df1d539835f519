// Package stream is the online ingestion layer: it turns the batch-oriented
// mining and verification core into a system that absorbs live traces. An
// Ingester fans incoming trace events out to N shards (hashed by trace id);
// each shard is a single goroutine behind a bounded channel that buffers the
// still-open traces, advances an online conformance Checker per trace as
// events arrive, and seals terminated traces into the shard's Database. In
// durable mode every operation is logged to the store's write-ahead log
// first — the LogBase-style regime where the log is the store. Shards keep
// no derived structures: positional indexes are built where they are read.
//
// Snapshot is the bridge back to the batch world: a barrier across all
// shards yields a consistent Database view (sealed traces only) over which
// MinePatterns/MineRules/CheckRules run as usual — the view builds its
// positional index on its first mine — plus, when an Engine is
// configured — the accumulated online conformance reports, rebased to the
// view's sequence numbering and built by the same Engine.Reports as a batch
// Engine.Check over the view, so the two are indistinguishable.
package stream

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/verify"
)

// Config parameterises an Ingester.
type Config struct {
	// Shards is the number of ingestion shards (trace-id hash partitions);
	// default 4. Traces never span shards, so per-trace event order is
	// preserved while independent traces proceed in parallel.
	Shards int
	// Buffer is the per-shard operation channel capacity; default 256.
	// Ingest blocks (backpressure) when a shard's buffer is full.
	Buffer int
	// FlushBatch is how many sealed traces a shard applies between barriers;
	// default 32. In durable mode each barrier flushes the WAL and, once the
	// shard's unsegmented sealed tail has reached the store's SegmentBytes,
	// writes that tail as a segment file; so the value sets flush frequency,
	// and segment size follows the store. A Snapshot is a barrier too and
	// restarts the count.
	FlushBatch int
	// Dict supplies the event-name dictionary, which must be the one the
	// rule set was mined against when Engine is set. Nil creates a fresh
	// dictionary. In durable mode the store's dictionary is the ingester's,
	// and Open reconciles Dict with it: every id both assign must name the
	// same event, and Dict's names beyond the store's are interned into the
	// store in id order, so every id Dict assigns (the rules' ids included)
	// means the same event in the store. On a fresh store this always holds;
	// on the store Dict came from (say, through a cold-start read of its
	// recovered traces) it interns nothing. A mismatch is an error, and a
	// refused Open writes nothing into the store's dictionary.
	Dict *seqdb.Dictionary
	// Engine, when non-nil, checks every trace online as its events arrive;
	// Snapshot then carries the accumulated conformance reports. Its rules'
	// event ids must come from Dict or the store's dictionary, so an Engine
	// needs one of the two.
	Engine *verify.Engine
	// Obs, when non-nil, registers the ingester's metrics — acked-event and
	// sealed-trace counters, per-shard ingest latency histograms,
	// backpressure wait time, and queue depth gauges. Nil disables
	// instrumentation at the cost of one branch per instrumentation point.
	Obs *obs.Registry
	// Store, when non-nil, makes the ingester durable: every operation is
	// appended to the store's per-shard write-ahead log before it is
	// acknowledged, sealed traces are rolled into segment files at the
	// FlushBatch barrier that finds a SegmentBytes-sized tail (and at every
	// checkpoint), and the ingester starts from the store's recovered
	// state — sealed shard databases, open traces (their online checkers
	// re-advanced), and conformance reports re-seeded — exactly as if the
	// process had never died. The store's shard count overrides Shards (it
	// is fixed at store creation; Open reports a different non-zero value
	// as an error) and its dictionary absorbs Dict (see Dict).
	Store *store.Store
}

// View is a consistent cut of the streamed state, produced by Snapshot.
type View struct {
	// DB holds every sealed trace across all shards (shard-major, in seal
	// order within a shard), sharing the ingester's dictionary. It is a
	// private copy: safe to mine while ingestion continues. Its positional
	// index is built on first use.
	DB *seqdb.Database
	// ShardDBs are the per-shard sequence views backing DB, in shard order.
	ShardDBs []*seqdb.Database
	// Reports are the online conformance reports accumulated so far, in rule
	// order with violation sequence numbers rebased to DB's numbering. Each
	// shard closes its traces into a verify.Tally, and one Engine.Reports
	// over the shards' tallies and rebased parts builds them, as
	// Engine.Check(DB) builds its own: the two are identical, lists laid out
	// alike. Each rule lives once, in its RuleReport. The reports and their
	// lists are the view's own. Nil without an Engine.
	Reports []verify.RuleReport
}

type opKind uint8

const (
	opEvents opKind = iota
	opSeal
	opSnapshot
)

// op is one unit of shard work; events and seal ops carry their trace's
// table entry, so the shard goroutine does no lookup.
type op struct {
	kind   opKind
	tr     *openTrace
	events []seqdb.EventID
	reply  chan shardView
}

type shardView struct {
	db    *seqdb.Database
	tally *verify.Tally          // the view's own clone: counts, no violations
	parts []verify.ViolationPart // shard-local seqs, shared: parts are never written
	// err carries the store's sticky failure: a snapshot whose WAL flush
	// failed must not be served as a durable view.
	err error
}

// streamMetrics are the ingester-wide series, shared by every shard. The
// enabled flag gates the hot-path time.Now() reads; the handles themselves
// are nil-safe, so a zero streamMetrics (disabled) is fully usable.
type streamMetrics struct {
	enabled bool
	// eventsAcked / tracesSealed are exact, but updated in batches: each
	// shard accumulates plain local counts and folds them in at barriers,
	// snapshot answers, and shutdown, so the hot path never touches a
	// shared atomic. Reads between batch points may trail the ack stream;
	// any quiescent point (after Snapshot or Close) is exact.
	eventsAcked  *obs.Counter // events applied by shards (== acked at quiescence)
	tracesSealed *obs.Counter // CloseTrace ops applied by shards
	snapshots    *obs.Counter // snapshot barriers served
}

func newStreamMetrics(r *obs.Registry) streamMetrics {
	return streamMetrics{
		enabled:      r != nil,
		eventsAcked:  r.Counter("stream.events_acked"),
		tracesSealed: r.Counter("stream.traces_sealed"),
		snapshots:    r.Counter("stream.snapshots"),
	}
}

// shardMetrics are one shard's series, labeled shard=<i>.
type shardMetrics struct {
	enabled           bool
	ingestNs          *obs.Histogram // producer-side latency of one acked op (every 16th op of the shard)
	queueDepth        *obs.Gauge     // ops buffered (sampled enqueues, refreshed at barriers)
	backpressureWaits *obs.Counter   // enqueues that found the buffer full
	backpressureNs    *obs.Histogram // time blocked on a full buffer
}

func newShardMetrics(r *obs.Registry, shard int) shardMetrics {
	label := fmt.Sprintf("%d", shard)
	return shardMetrics{
		enabled:           r != nil,
		ingestNs:          r.Histogram("stream.ingest_ns", "shard", label),
		queueDepth:        r.Gauge("stream.queue_depth", "shard", label),
		backpressureWaits: r.Counter("stream.backpressure_waits", "shard", label),
		backpressureNs:    r.Histogram("stream.backpressure_wait_ns", "shard", label),
	}
}

// Ingester is the sharded streaming front end. All methods are safe for
// concurrent use by any number of producer goroutines.
type Ingester struct {
	cfg    Config
	dict   *seqdb.Dictionary
	shards []*shard
	met    streamMetrics

	// lifeMu guards closed: sends hold the read side so Close (write side)
	// cannot close the shard channels while a send is in flight.
	lifeMu sync.RWMutex
	closed bool
}

// Open validates the configuration — in durable mode, against the store's
// fixed shard count and dictionary — then starts the shard goroutines,
// seeding them from the store's recovered state when one is configured.
func Open(cfg Config) (*Ingester, error) {
	if cfg.Engine != nil && cfg.Dict == nil && cfg.Store == nil {
		return nil, errors.New("stream: Config.Engine requires the dictionary its rules were mined against (Config.Dict, or a Store supplying it)")
	}
	var recovered *store.Recovered
	if st := cfg.Store; st != nil {
		if cfg.Shards != 0 && cfg.Shards != st.NumShards() {
			return nil, fmt.Errorf("stream: Config.Shards is %d but the store was created with %d shards", cfg.Shards, st.NumShards())
		}
		cfg.Shards = st.NumShards()
		// The store's dictionary log is durable: everything that can still
		// fail runs before the caller's names are interned into it.
		adopt, err := namesToAdopt(st.Dict(), cfg.Dict)
		if err != nil {
			return nil, err
		}
		if err := st.AttachIngester(); err != nil {
			return nil, err
		}
		for _, name := range adopt {
			st.Dict().Intern(name)
		}
		cfg.Dict = st.Dict()
		recovered = st.Recovered()
	}
	if cfg.Shards < 1 {
		cfg.Shards = 4
	}
	if cfg.Buffer < 1 {
		cfg.Buffer = 256
	}
	if cfg.FlushBatch < 1 {
		cfg.FlushBatch = 32
	}
	if cfg.Dict == nil {
		cfg.Dict = seqdb.NewDictionary()
	}
	ing := &Ingester{cfg: cfg, dict: cfg.Dict, shards: make([]*shard, cfg.Shards), met: newStreamMetrics(cfg.Obs)}
	for i := range ing.shards {
		sh := &shard{
			ops:        make(chan op, cfg.Buffer),
			done:       make(chan struct{}),
			db:         seqdb.NewDatabaseWithDict(cfg.Dict),
			engine:     cfg.Engine,
			flushBatch: cfg.FlushBatch,
			open:       make(map[string]*openTrace),
			met:        newShardMetrics(cfg.Obs, i),
			statAcked:  ing.met.eventsAcked,
			statSealed: ing.met.tracesSealed,
		}
		if cfg.Engine != nil {
			sh.tally = cfg.Engine.NewTally()
		}
		if cfg.Store != nil {
			sh.log = cfg.Store.Shard(i)
		}
		if recovered != nil {
			// Resume exactly where the store left off: each sealed trace is
			// checked and sealed again through the same seal step as a live
			// one, which re-seeds its conformance outcome in the tally; open
			// traces re-open with their online checkers re-advanced through
			// the buffered events.
			rs := recovered.Shards[i]
			for _, s := range rs.Sequences {
				sh.seal(sh.start(&openTrace{events: s}).advance(s))
			}
			for _, tr := range rs.Open {
				events := append(seqdb.Sequence(nil), tr.Events...)
				sh.open[tr.ID] = sh.start(&openTrace{handle: tr.Handle, logged: true, events: events}).advance(events)
			}
			// Recovery numbered the open traces 0..n-1.
			sh.nextHandle = uint64(len(rs.Open))
		}
		ing.shards[i] = sh
		go sh.run()
	}
	return ing, nil
}

// namesToAdopt returns the names of dict that the store's dictionary held
// lacks, in id order, after checking that interning them reproduces dict's
// ids exactly: every id the two dictionaries share must name the same event.
// A dictionary holds each name once, so a matching prefix also keeps the
// remaining names off every id held assigns.
func namesToAdopt(held, dict *seqdb.Dictionary) ([]string, error) {
	if dict == nil || dict == held {
		return nil, nil
	}
	names, existing := dict.Export(), held.Export()
	n := min(len(names), len(existing))
	for i := range n {
		if names[i] != existing[i] {
			return nil, fmt.Errorf("stream: the store's dictionary assigns id %d to %q where Config.Dict has %q — the store holds a different event stream", i, existing[i], names[i])
		}
	}
	return names[n:], nil
}

// Dict returns the ingester's event dictionary.
func (ing *Ingester) Dict() *seqdb.Dictionary { return ing.dict }

// Health reports the backing store's health: Healthy, DegradedReadOnly
// (a permanent I/O fault stopped durable ingest; snapshots and mining
// continue from memory), or Failed. A memory-only ingester is always
// Healthy.
func (ing *Ingester) Health() store.Health {
	if ing.cfg.Store == nil {
		return store.Health{State: store.Healthy}
	}
	return ing.cfg.Store.Health()
}

// ErrClosed is returned by operations on a closed ingester.
var ErrClosed = errors.New("stream: ingester is closed")

// Ingest appends events to the trace identified by traceID, opening it if
// necessary. Events of one trace must be ingested from a single goroutine
// (or otherwise ordered); distinct traces are fully independent. Blocks when
// the owning shard's buffer is full.
func (ing *Ingester) Ingest(traceID string, events ...string) error {
	ids := make([]seqdb.EventID, len(events))
	for i, n := range events {
		ids[i] = ing.dict.Intern(n)
	}
	return ing.send(traceID, opEvents, ids)
}

// IngestIDs is Ingest for already-interned events. The slice is copied, so
// callers may reuse their buffer immediately (the shard consumes the op
// asynchronously).
func (ing *Ingester) IngestIDs(traceID string, events ...seqdb.EventID) error {
	return ing.send(traceID, opEvents, append([]seqdb.EventID(nil), events...))
}

// CloseTrace terminates the trace: it is sealed into its shard's database
// (an empty trace when nothing was ingested under the id), its online
// conformance outcome is folded into the shard's reports, and the id becomes
// free for reuse.
func (ing *Ingester) CloseTrace(traceID string) error {
	return ing.send(traceID, opSeal, nil)
}

func (ing *Ingester) send(traceID string, kind opKind, events []seqdb.EventID) error {
	ing.lifeMu.RLock()
	defer ing.lifeMu.RUnlock()
	if ing.closed {
		return ErrClosed
	}
	sh := ing.shards[ing.shardFor(traceID)]
	tr, fresh, n := sh.lookup(traceID, kind == opSeal)
	// Latency is sampled on every 16th op of the shard: a clock-pair read
	// costs more than every counter on this path combined, so timing every op
	// would dominate the instrumentation budget the obs-overhead floor
	// enforces. The exact ack counters are batched by the shard goroutine
	// (see publishMet).
	timed := ing.met.enabled && n&15 == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	o := op{kind: kind, tr: tr, events: events}
	// logged hands the op to the shard and settles its table entry. Durable
	// commits frame the WAL records on this goroutine and run logged under
	// the shard log's lock once they are appended, so WAL order equals apply
	// order, no op is acked before it is logged, and a checkpoint sees each
	// entry before or after the op, never in between.
	logged := func() {
		sh.enqueue(o, timed)
		if kind == opSeal {
			sh.retire(traceID, tr)
		} else if fresh {
			tr.logged = true
		}
	}
	var err error
	switch {
	case sh.log == nil:
		logged()
	case kind == opSeal:
		err = sh.log.CommitSeal(traceID, tr.handle, fresh, logged)
	default:
		err = sh.log.CommitEvents(traceID, tr.handle, fresh, events, logged)
	}
	if err != nil {
		if fresh {
			sh.retire(traceID, tr) // the id's next op opens the trace again
		}
		return err
	}
	if timed {
		sh.met.ingestNs.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// lookup counts an op of trace id and finds the trace's table entry. A trace
// that is not open gets a new entry under the next WAL handle (fresh), which
// it keeps until it seals; a seal of such an id seals it empty, so its entry
// never joins the table. n is the shard's op count, this op included.
func (sh *shard) lookup(id string, seal bool) (tr *openTrace, fresh bool, n uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sent++
	if tr = sh.open[id]; tr == nil {
		tr, fresh = &openTrace{handle: sh.nextHandle}, true
		sh.nextHandle++
		if !seal {
			sh.open[id] = tr
		}
	}
	return tr, fresh, sh.sent
}

// retire removes id's table entry if it is still tr: a sealed trace's once
// its seal is logged, a rejected new trace's at once.
func (sh *shard) retire(id string, tr *openTrace) {
	sh.mu.Lock()
	if sh.open[id] == tr {
		delete(sh.open, id)
	}
	sh.mu.Unlock()
}

// enqueue hands an op to the shard goroutine. When instrumentation is on and
// the buffer is full, the blocking wait is measured as backpressure; the
// non-blocking fast path costs nothing extra beyond the enabled branch. The
// queue-depth gauge is a single shared cell, so concurrent producers would
// contend on it — only sampled (timed) enqueues refresh it here; the shard
// refreshes it again at every barrier.
func (sh *shard) enqueue(o op, timed bool) {
	if !sh.met.enabled {
		sh.ops <- o
		return
	}
	select {
	case sh.ops <- o:
	default:
		start := time.Now()
		sh.ops <- o
		sh.met.backpressureWaits.Inc()
		sh.met.backpressureNs.Observe(time.Since(start).Nanoseconds())
	}
	if timed {
		sh.met.queueDepth.Set(int64(len(sh.ops)))
	}
}

// shardFor hashes a trace id onto a shard (FNV-1a, deterministic across
// processes so replayed workloads land identically).
func (ing *Ingester) shardFor(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return int(h % uint64(len(ing.shards)))
}

// Snapshot produces a consistent View: every shard answers at a barrier with
// a copy of its sealed traces, and the merged result is returned.
// Traces still open at the barrier are not included — they surface in the
// first Snapshot after their CloseTrace.
func (ing *Ingester) Snapshot() (*View, error) {
	ing.lifeMu.RLock()
	if ing.closed {
		ing.lifeMu.RUnlock()
		return nil, ErrClosed
	}
	chans := make([]chan shardView, len(ing.shards))
	for i, sh := range ing.shards {
		chans[i] = make(chan shardView, 1)
		sh.enqueue(op{kind: opSnapshot, reply: chans[i]}, true)
	}
	ing.lifeMu.RUnlock()
	ing.met.snapshots.Inc()

	views := make([]shardView, len(chans))
	for i, ch := range chans {
		views[i] = <-ch
	}
	for _, sv := range views {
		if sv.err != nil {
			return nil, fmt.Errorf("stream: snapshot is not durable: %w", sv.err)
		}
	}
	return ing.merge(views), nil
}

func (ing *Ingester) merge(views []shardView) *View {
	v := &View{ShardDBs: make([]*seqdb.Database, len(views))}
	// bases[k] is the first DB sequence number of shard k.
	bases := make([]int, len(views)+1)
	for k, sv := range views {
		v.ShardDBs[k] = sv.db
		bases[k+1] = bases[k] + sv.db.NumSequences()
	}
	if len(views) == 1 {
		// Single shard: the shard's snapshot view is already the whole.
		v.DB = views[0].db
	} else {
		v.DB = seqdb.NewDatabaseWithDict(ing.dict)
		v.DB.Sequences = make([]seqdb.Sequence, 0, bases[len(views)])
		for _, sv := range views {
			v.DB.Sequences = append(v.DB.Sequences, sv.db.Sequences...)
		}
	}
	if ing.cfg.Engine != nil {
		// answerSnap gave each view a frozen copy of its shard's counts. Each
		// shard's parts move to the shard's first sequence number, and one
		// Reports sums the counts and sizes every list exactly.
		tallies := make([]*verify.Tally, len(views))
		var parts []verify.ViolationPart
		for k, sv := range views {
			tallies[k] = sv.tally
			for _, p := range sv.parts {
				parts = append(parts, p.Rebase(bases[k]))
			}
		}
		v.Reports = ing.cfg.Engine.Reports(tallies, parts)
	}
	return v
}

// Close shuts the ingester down: shard goroutines drain their buffers and
// exit. Traces still open are discarded — their outcome is undeterminable
// without termination. Close is idempotent; operations after Close return
// ErrClosed.
func (ing *Ingester) Close() error {
	ing.lifeMu.Lock()
	if ing.closed {
		ing.lifeMu.Unlock()
		return nil
	}
	ing.closed = true
	for _, sh := range ing.shards {
		close(sh.ops)
	}
	ing.lifeMu.Unlock()
	for _, sh := range ing.shards {
		<-sh.done
	}
	return nil
}

// shard is one ingestion partition: a goroutine draining ops, the table of
// open traces it is buffering, and the database of sealed traces.
type shard struct {
	ops        chan op
	done       chan struct{}
	db         *seqdb.Database
	engine     *verify.Engine
	flushBatch int
	met        shardMetrics
	// statAcked / statSealed are the ingester-wide exact counters;
	// pendAcked / pendSealed batch this shard's contribution as plain
	// goroutine-local ints, published by publishMet at barriers, snapshot
	// answers, and shutdown — one shared-atomic touch per batch instead of
	// one per ingested op.
	statAcked  *obs.Counter
	statSealed *obs.Counter
	pendAcked  int64
	pendSealed int64
	// log is the shard's durable appender; nil in memory-only mode.
	log *store.ShardLog

	// mu guards the open-trace table, the ingester's one per-trace table
	// (see lookup and retire); checkpoints read it under the shard log's
	// lock, which is taken before mu. Nothing blocks while holding mu.
	mu         sync.Mutex
	open       map[string]*openTrace
	nextHandle uint64 // the WAL handle the next new trace gets
	sent       uint64 // ops looked up, which picks the latency sample

	// tally holds the sealed traces' counts and the violations not yet
	// handed to a snapshot; the parts handed over so far are kept in parts,
	// which only grows. Both are nil without an engine.
	tally    *verify.Tally
	parts    []verify.ViolationPart
	free     []*verify.Checker
	unsynced int // traces sealed since the last barrier or snapshot
	// lastFlushErr is the result of the most recent barrier WAL flush. A
	// snapshot answered right after a failed flush on a still-healthy store
	// (a transient fault that outlived the retry budget) must not be served
	// as durable; the next barrier retries and clears it.
	lastFlushErr error
	// draining marks a nested drain inside withLogLock — barriers reached
	// while draining are deferred to the enclosing one.
	draining bool
	// deferredSnaps holds snapshot ops consumed during a drain; they are
	// answered only after the enclosing barrier's WAL flush, so a snapshot
	// never exposes state that is not yet recoverable.
	deferredSnaps []op
}

// openTrace is a table entry, from the op that opens the trace to its seal.
type openTrace struct {
	handle uint64 // the trace's WAL handle
	// logged is set under the shard log's lock once the op that opened the
	// trace is committed; a checkpoint re-logs exactly the logged entries.
	logged bool
	// events and checker belong to the shard goroutine.
	events  seqdb.Sequence
	checker *verify.Checker
}

func (sh *shard) run() {
	defer close(sh.done)
	for o := range sh.ops {
		sh.handle(o)
	}
	if sh.log != nil {
		// Clean shutdown: everything applied is flushed, so a reopened store
		// resumes from exactly this state (open traces included), and then
		// checkpointed: the sealed tail goes into a segment and the WAL
		// restarts holding only the open traces, so the reopen replays open
		// data, not the session's history. A failed checkpoint leaves the
		// flushed WAL, which recovers the same state by replay. On a
		// degraded store the flush fails — recovery then resumes from the
		// last successful barrier instead.
		sh.withLogLock(func() {
			if sh.lastFlushErr = sh.log.FlushLocked(); sh.lastFlushErr == nil {
				_ = sh.log.CheckpointLocked(sh.db.Sequences, sh.db.NumSequences(), sh.openSnapshot())
			}
		})
	}
	// A drain interrupted by Close may have parked snapshot ops; answer them
	// so their callers never hang.
	sh.answerDeferredSnaps()
	sh.publishMet()
}

func (sh *shard) handle(o op) {
	switch o.kind {
	case opEvents:
		tr := sh.start(o.tr)
		sh.pendAcked += int64(len(o.events))
		tr.events = append(tr.events, o.events...)
		tr.advance(o.events)
		// Events-only traffic grows the WAL too: without this check a shard
		// with long-lived open traces and rare seals would never rotate and
		// recovery would replay history, not open data.
		if sh.log != nil && !sh.draining && sh.log.RotateDue() {
			sh.barrier()
		}
	case opSeal:
		sh.pendSealed++
		sh.seal(sh.start(o.tr))
		sh.unsynced++
		if !sh.draining && (sh.unsynced >= sh.flushBatch || (sh.log != nil && sh.log.RotateDue())) {
			sh.barrier()
		}
	case opSnapshot:
		if sh.draining {
			// Answering now would expose state whose WAL records are not yet
			// flushed; park the op until the enclosing barrier has flushed.
			sh.deferredSnaps = append(sh.deferredSnaps, o)
			return
		}
		if sh.log != nil {
			// Whatever this snapshot exposes must be recoverable: force the
			// WAL (and the dictionary log ahead of it) to the OS. Segments
			// stay on the seal-batch cadence — a snapshot is a read barrier,
			// not a publish point — unless rotation is due, which must
			// also fire on snapshot-heavy, seal-light workloads. Seals the
			// drain applied had their WAL records flushed under the lock.
			if sh.log.RotateDue() {
				sh.barrier()
			} else {
				sh.withLogLock(func() { sh.lastFlushErr = sh.log.FlushLocked() })
			}
		}
		sh.unsynced = 0
		sh.answerSnap(o)
	}
}

// start gives a trace its online checker at the first op the shard applies
// to it, reusing a checker parked by an earlier seal when one is free.
func (sh *shard) start(tr *openTrace) *openTrace {
	if sh.engine != nil && tr.checker == nil {
		if n := len(sh.free); n > 0 {
			tr.checker = sh.free[n-1]
			sh.free = sh.free[:n-1]
		} else {
			tr.checker = sh.engine.NewChecker()
		}
	}
	return tr
}

// advance feeds events to the trace's online checker, if it has one.
func (tr *openTrace) advance(events []seqdb.EventID) *openTrace {
	if tr.checker != nil {
		for _, ev := range events {
			tr.checker.Advance(ev)
		}
	}
	return tr
}

// seal appends a terminated trace to the shard's database and closes its
// checker into the shard's tally under its shard-local number, as a batch
// check closes its traces; the checker is parked for the next trace.
func (sh *shard) seal(tr *openTrace) {
	sh.db.Append(tr.events)
	if tr.checker != nil {
		tr.checker.Close(sh.db.NumSequences()-1, sh.tally)
		sh.free = append(sh.free, tr.checker)
	}
}

// publishMet folds the shard-local exact counts into the shared series and
// refreshes the queue-depth gauge. It runs on the shard goroutine at every
// point a reader can observe shard state — barriers, snapshot answers,
// shutdown — so the shared counters are exact whenever the shard is
// quiescent without a cross-core atomic per ingested op.
func (sh *shard) publishMet() {
	if !sh.met.enabled {
		return
	}
	if sh.pendAcked != 0 {
		sh.statAcked.Add(sh.pendAcked)
		sh.pendAcked = 0
	}
	if sh.pendSealed != 0 {
		sh.statSealed.Add(sh.pendSealed)
		sh.pendSealed = 0
	}
	sh.met.queueDepth.Set(int64(len(sh.ops)))
}

func (sh *shard) answerSnap(o op) {
	sh.publishMet()
	sv := shardView{db: sh.db.SnapshotView()}
	if sh.tally != nil {
		// The tally hands over its parts, the rest of its log included. The
		// view gets a clone of the counts and the part list capped at its
		// length, which later snapshots append past.
		sh.parts = append(sh.parts, sh.tally.Parts()...)
		sv.tally, sv.parts = sh.tally.Clone(), slices.Clip(sh.parts)
	}
	if sh.log != nil {
		// A healthy store promises everything a snapshot exposes is
		// recoverable, so a snapshot whose barrier flush failed — a
		// transient fault that outlived the retry budget — must fail too;
		// the caller retries once the condition clears. Once the store has
		// degraded to read-only that promise is explicitly narrowed to the
		// acked-and-flushed prefix: the in-memory state is still exact,
		// ingest is rejected at the door, and mining/checking over a memory
		// view remains useful, so snapshots keep being served. Only a
		// Failed store (invariants violated, memory state untrusted)
		// refuses outright.
		if err := sh.log.ReadErr(); err != nil {
			sv.err = err
		} else if sh.log.Err() == nil && sh.lastFlushErr != nil {
			sv.err = sh.lastFlushErr
		}
	}
	o.reply <- sv
}

func (sh *shard) answerDeferredSnaps() {
	for _, o := range sh.deferredSnaps {
		sh.answerSnap(o)
	}
	sh.deferredSnaps = sh.deferredSnaps[:0]
}

// barrier is the shard's batched-flush point, reached every FlushBatch seals:
// in durable mode the WAL is flushed — so everything a snapshot exposes is
// recoverable — and the shard's unsegmented sealed tail is rolled into a
// segment file once it has reached the store's SegmentBytes. When the WAL has
// outgrown its rotation budget the barrier also starts a fresh generation.
// In memory-only mode it just publishes the shard's batched counters.
//
// Only the WAL flush and the (rare) rotation run under the producer-facing
// log lock; a segment publish — encode plus file write, an
// fsync in Sync mode — happens after release, so producers are never stalled
// behind segment I/O. That is safe because sealed traces are immutable, the
// covered counter is barrier-goroutine-only, and the WAL was flushed past
// every seal the segment will contain before the lock was dropped.
func (sh *shard) barrier() {
	sh.publishMet()
	sh.unsynced = 0
	if sh.log == nil {
		return
	}
	flushed, rotated := false, false
	sh.withLogLock(func() {
		sh.unsynced = 0 // the segment covers seals applied by the drain
		if err := sh.log.FlushLocked(); err != nil {
			sh.lastFlushErr = err
			return
		}
		sh.lastFlushErr = nil
		flushed = true
		if sh.log.RotateDue() {
			// Rotation is a checkpoint: it needs exclusivity throughout, and
			// it is budget-bounded rare, so the producer stall is acceptable
			// here.
			_ = sh.log.CheckpointLocked(sh.db.Sequences, sh.db.NumSequences(), sh.openSnapshot())
			rotated = true
		}
	})
	if flushed && !rotated {
		// Publishing after a failed flush would break the segment layer's
		// resurrection invariant: a surviving segment whose seals the on-disk
		// WAL never recorded would duplicate its traces at recovery.
		_ = sh.log.PublishSegment(sh.db.Sequences)
	}
}

// withLogLock runs fn holding the shard log's lock, with the shard's channel
// drained so the WAL exactly reflects the applied state (and RotateDue reads
// the WAL's exact size). The protocol is drain + TryLock, never a blocking
// Lock: a producer inside CommitEvents or CommitSeal holds the lock while its
// send blocks on this shard's full channel, and only our draining can
// unblock it — a blocking acquire here would deadlock the shard. Snapshot ops
// consumed by the drain are answered after fn (post-flush).
func (sh *shard) withLogLock(fn func()) {
	for {
		sh.drainPending()
		if sh.log.TryLock() {
			// Operations logged between the drain and the lock acquisition
			// are still in the channel; with the lock held no more can
			// arrive, so one more drain makes WAL state == applied state.
			sh.drainPending()
			fn()
			sh.log.Unlock()
			sh.answerDeferredSnaps()
			return
		}
		runtime.Gosched()
	}
}

// drainPending applies every operation currently buffered in the shard's
// channel without blocking. Nested barriers are suppressed (sh.draining); the
// enclosing barrier covers the drained seals.
func (sh *shard) drainPending() {
	sh.draining = true
	for {
		select {
		case o, ok := <-sh.ops:
			if !ok {
				// Channel closed mid-drain; the outer range loop will observe
				// it right after.
				sh.draining = false
				return
			}
			sh.handle(o)
		default:
			sh.draining = false
			return
		}
	}
}

// openSnapshot lists the logged open traces for a checkpoint's re-log, which
// runs with the channel drained, so their events are all applied. The list
// shares the events: the checkpoint only encodes them.
func (sh *shard) openSnapshot() []store.OpenTrace {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]store.OpenTrace, 0, len(sh.open))
	for id, tr := range sh.open {
		if tr.logged {
			out = append(out, store.OpenTrace{ID: id, Handle: tr.handle, Events: tr.events})
		}
	}
	return out
}
