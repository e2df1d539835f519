// Package store is the durable, log-structured persistence layer under the
// streaming ingester: the LogBase-style "log as the store" design. Every
// ingested operation is appended to a per-shard write-ahead log before it is
// acknowledged; once a shard's sealed tail reaches Options.SegmentBytes it is
// written, once, as an immutable block-compressed segment file that is never
// merged, rewritten or removed while the store is open; and Open recovers the
// pre-crash state — sealed databases, open traces, the event dictionary — by
// loading the segments and replaying the WAL tail over them.
//
// Layout of a store directory:
//
//	MANIFEST.json        shard count and format version
//	dict.wal             dictionary log: one record per interned name, in id order
//	shard-NNN/
//	  wal-GGGGGG.wal     the shard's active WAL generation
//	  seg-FFF-TTT.seg    sealed segments covering seal ordinals [FFF, TTT)
//
// Durability contract: a WAL record is appended (to the in-process
// group-commit buffer) strictly before the operation is acknowledged, and
// buffers are flushed to the OS at every seal-batch barrier, snapshot and
// rotation — so everything visible in a stream Snapshot survives a process
// crash. The window between barriers is the group-commit window: a crash may
// lose its tail, but recovery always yields a consistent prefix of what was
// acknowledged (torn frames never surface). With Options.Sync, flushes also
// fsync, extending the guarantee to machine crashes at a heavy throughput
// cost.
//
// The log records what its caller tells it and keeps no second copy of
// ingest state: the streaming layer's open-trace table gives each trace its
// WAL handle when it opens and names the open traces every checkpoint
// re-logs.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specmine/internal/fsim"
	"specmine/internal/obs"
	"specmine/internal/seqdb"
)

// Options parameterises Open.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// Shards is the number of ingestion shards. It is fixed at store creation
	// (the trace-id hash partitioning bakes it into every file); reopening
	// with a different non-zero value is an error. 0 means "whatever the
	// store was created with" (default 4 for a fresh store).
	Shards int
	// Sync makes every WAL flush and segment publish fsync, extending
	// durability from process crashes to machine crashes.
	Sync bool
	// WALRotateBytes is the WAL size beyond which a seal barrier rolls the
	// log into segments and starts a fresh generation; default 4 MiB.
	WALRotateBytes int64
	// SegmentBytes is the size a shard's unsegmented sealed tail must reach
	// before a seal barrier writes it as a segment; default 256 KiB. Until
	// then the tail lives in the WAL, which already holds it durably, and a
	// checkpoint (rotation, clean close, Open) writes whatever tail remains.
	// 1 writes a segment at every barrier that has sealed a trace.
	SegmentBytes int64
	// FS overrides the filesystem under every data-path operation (WALs,
	// segments, dictionary log, manifest); nil means the real filesystem.
	// Fault-injection tests hand an fsim.FaultFS here.
	FS fsim.FS
	// RetryAttempts bounds how many times a transient I/O fault (ENOSPC,
	// EINTR-class) is retried on the WAL-flush, segment-write and
	// segment-read paths before the operation's error is surfaced. 0 means the
	// default (4); negative disables retries.
	RetryAttempts int
	// RetryBackoff is the delay before the first retry, doubling per attempt;
	// 0 means the default (500µs).
	RetryBackoff time.Duration
	// Obs, when non-nil, registers the store's metrics — commit counters, WAL
	// flush/fsync latency and group-commit batch size, segment publish and
	// rotation activity, and the health ladder's counters — and records
	// rotations and degradations in the registry's ops ring. Nil disables
	// instrumentation at one branch per instrumentation point.
	Obs *obs.Registry
	// OutOfCore opens the store for reading without materialising sealed
	// trace bodies: recovery validates every chain segment by checksum (torn
	// or corrupt files are detected and dropped exactly as in a normal open)
	// but does not decode them, so Open's memory footprint is metadata-sized
	// regardless of database size. Sealed traces are reached through the
	// segment catalog (Segments/LoadSegment) — typically via a cache.Pool —
	// and Recovered() reports open traces only. AttachIngester is refused:
	// an out-of-core handle is read-only for sealed data.
	OutOfCore bool
}

type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Store is an open store directory: the dictionary log and one ShardLog per
// shard. It runs no goroutine of its own. All methods are safe for concurrent
// use; the per-shard mutation entry points live on ShardLog.
type Store struct {
	opts      Options
	fs        fsim.FS  // the data-path filesystem; fsim.OS() in production
	lock      *os.File // exclusive advisory lock on Dir, held until Close
	dict      *seqdb.Dictionary
	dictLog   walBuffer
	shards    []*ShardLog
	recovered *Recovered

	// segMu guards every ShardLog's segs ledger, which only the shard's
	// barrier appends to. It is held only for ledger reads and appends,
	// never across file I/O.
	segMu sync.Mutex

	// health is the degradation state machine — see health.go for the model.
	health health

	// met is the registry-backed instrumentation; the zero value is disabled.
	met storeMetrics

	// ingAttached enforces one ingester per store handle: the recovered
	// snapshot is consumed by the first attach, after which the handle's
	// Recovered() no longer reflects the shards' state.
	ingAttached atomic.Bool

	closeMu sync.Mutex
	closed  bool
}

// walBuffer pairs a walFile with its own lock; used for the dictionary log,
// whose appends arrive under the dictionary's intern lock and whose flushes
// arrive from shard barrier goroutines.
type walBuffer struct {
	mu  sync.Mutex
	wal *walFile
}

// Open opens or creates the store at opts.Dir and recovers its state: the
// dictionary is replayed from the dictionary log, each shard's sealed traces
// are loaded from its segment chain plus its WAL tail, and surviving open
// traces are reconstructed. Open then rolls every WAL-recovered sealed trace
// into a segment and starts a fresh WAL generation per shard, so the on-disk
// state is canonical before new traffic arrives.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if opts.WALRotateBytes <= 0 {
		opts.WALRotateBytes = 4 << 20
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 256 << 10
	}
	switch {
	case opts.RetryAttempts == 0:
		opts.RetryAttempts = 4
	case opts.RetryAttempts < 0:
		opts.RetryAttempts = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 500 * time.Microsecond
	}
	fs := opts.FS
	if fs == nil {
		fs = fsim.OS()
	}
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", opts.Dir, err)
	}
	lock, err := acquireDirLock(opts.Dir)
	if err != nil {
		return nil, err
	}

	shards, err := loadOrCreateManifest(opts, fs)
	if err != nil {
		releaseDirLock(lock)
		return nil, err
	}
	opts.Shards = shards

	st := &Store{
		opts: opts,
		fs:   fs,
		lock: lock,
		met:  newStoreMetrics(opts.Obs),
	}
	if err := st.recoverDict(); err != nil {
		releaseDirLock(lock)
		return nil, err
	}
	// On any later failure, close the files recovery has opened so far — a
	// supervisor retrying Open against a corrupt directory must not leak a
	// descriptor per attempt.
	closePartial := func() {
		_ = st.dictLog.wal.f.Close()
		for _, sl := range st.shards {
			if sl != nil {
				_ = sl.wal.f.Close()
			}
		}
		releaseDirLock(lock)
	}
	st.shards = make([]*ShardLog, shards)
	st.recovered = &Recovered{Shards: make([]RecoveredShard, shards)}
	for i := range st.shards {
		sl, rec, err := st.recoverShard(i)
		if err != nil {
			closePartial()
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
		st.shards[i] = sl
		st.recovered.Shards[i] = rec
	}
	// From here on, fresh interning is logged. (Recovery imported the old
	// names without the hook — they are already on disk.)
	st.dict.OnIntern(func(_ seqdb.EventID, name string) {
		st.dictLog.mu.Lock()
		st.dictLog.wal.append(encodeDictName(name))
		if len(st.dictLog.wal.buf) >= walFlushThreshold {
			if err := st.dictLog.wal.flush(); err != nil {
				// The name stays buffered (flush keeps unwritten bytes), so
				// the flushDict barrier before any shard ack re-attempts it;
				// classify here only so permanent faults degrade promptly.
				_ = st.ioError(err, "dictionary log flush")
			}
		}
		st.dictLog.mu.Unlock()
	})
	return st, nil
}

func loadOrCreateManifest(opts Options, fs fsim.FS) (int, error) {
	path := filepath.Join(opts.Dir, "MANIFEST.json")
	buf, err := fs.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(buf, &m); err != nil {
			return 0, fmt.Errorf("store: parsing %s: %w", path, err)
		}
		if m.Version != 1 || m.Shards < 1 {
			return 0, fmt.Errorf("store: unsupported manifest %+v", m)
		}
		if opts.Shards != 0 && opts.Shards != m.Shards {
			return 0, fmt.Errorf("store: store has %d shards, Options.Shards asks for %d (the trace partitioning is fixed at creation)", m.Shards, opts.Shards)
		}
		return m.Shards, nil
	case os.IsNotExist(err):
		shards := opts.Shards
		if shards == 0 {
			shards = 4
		}
		if shards < 1 {
			return 0, fmt.Errorf("store: invalid shard count %d", shards)
		}
		buf, err := json.Marshal(manifest{Version: 1, Shards: shards})
		if err != nil {
			return 0, err
		}
		tmp := path + ".tmp"
		if err := fs.WriteFile(tmp, buf, 0o644); err != nil {
			return 0, fmt.Errorf("store: writing %s: %w", tmp, err)
		}
		if opts.Sync {
			if err := syncFile(fs, tmp); err != nil {
				return 0, err
			}
		}
		if err := fs.Rename(tmp, path); err != nil {
			return 0, fmt.Errorf("store: publishing %s: %w", path, err)
		}
		if opts.Sync {
			// Without this, a machine crash could lose the manifest while
			// fsynced shard data survives — and a re-created default
			// manifest would silently change the shard count and hashing.
			if err := syncDir(fs, path); err != nil {
				return 0, err
			}
		}
		return shards, nil
	default:
		return 0, fmt.Errorf("store: reading %s: %w", path, err)
	}
}

// Dict returns the store's dictionary: recovered names under their original
// ids, with fresh interning logged durably. Hand it to the ingester (and to
// anything that mines or verifies against stored traces).
func (st *Store) Dict() *seqdb.Dictionary { return st.dict }

// NumShards returns the store's fixed shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// Dir returns the store directory.
func (st *Store) Dir() string { return st.opts.Dir }

// Recovered returns the state recovered at Open. The ingester seeds its
// shards from it; cold-start miners can merge it into a Database directly.
func (st *Store) Recovered() *Recovered { return st.recovered }

// Shard returns the durable log of shard i; the streaming layer appends
// through it.
func (st *Store) Shard(i int) *ShardLog { return st.shards[i] }

// AttachIngester claims the store for a streaming ingester. It succeeds
// exactly once per handle: a second ingester would seed itself from the
// stale Open-time Recovered() snapshot while the shards' covered counters
// have moved on — silently inconsistent snapshots followed by a poisoned
// rotation. To resume after closing an ingester, close the store and open a
// fresh handle (which re-recovers).
func (st *Store) AttachIngester() error {
	if st.opts.OutOfCore {
		// An out-of-core handle never decoded its sealed traces, so an
		// ingester seeding from Recovered() would silently drop the whole
		// segment-resident history on its next snapshot.
		return errors.New("store: handle opened out-of-core is read-only for sealed data; reopen without OutOfCore to ingest")
	}
	if !st.ingAttached.CompareAndSwap(false, true) {
		return errors.New("store: an ingester already attached to this handle; reopen the store to attach another")
	}
	return nil
}

// flushDict flushes the dictionary log. It must run before any shard WAL
// flush so that, on disk, every event id a shard record references has its
// dictionary record already persisted. Transient faults are retried with
// backoff; a fault that outlives the budget fails this barrier only.
func (st *Store) flushDict() error {
	st.dictLog.mu.Lock()
	defer st.dictLog.mu.Unlock()
	if err := st.retryTransient(st.dictLog.wal.flush); err != nil {
		return st.ioError(err, "dictionary log flush")
	}
	return nil
}

// Close flushes every log and closes the files. Open traces stay open in the
// WAL: a reopened store recovers them and the ingester resumes them
// seamlessly. Close is idempotent.
func (st *Store) Close() error {
	st.closeMu.Lock()
	defer st.closeMu.Unlock()
	if st.closed {
		return st.Err()
	}
	st.closed = true
	st.dict.OnIntern(nil)

	err := st.flushDict()
	st.dictLog.mu.Lock()
	if cerr := st.dictLog.wal.close(); err == nil && cerr != nil {
		err = st.ioError(cerr, "dictionary log close")
	}
	st.dictLog.mu.Unlock()
	for _, sl := range st.shards {
		sl.mu.Lock()
		if ferr := sl.wal.close(); err == nil && ferr != nil {
			err = st.ioError(ferr, fmt.Sprintf("shard %d WAL close", sl.shard))
		}
		sl.mu.Unlock()
	}
	releaseDirLock(st.lock)
	if err == nil {
		err = st.Err()
	}
	return err
}

// ShardLog is one shard's durable appender. Producer-facing methods
// (CommitEvents, CommitSeal, Flush) are safe for concurrent use; both commits
// go through one write path, commit, which frames, appends, group-commits and
// rolls back on failure. The log keeps no per-trace state: the caller owns the
// open-trace table, hands every commit the trace's WAL handle and whether the
// commit opens the trace, and names the open traces each checkpoint re-logs.
// The barrier methods (PublishSegment, CheckpointLocked, RotateLocked) must be
// called from the shard's single writer goroutine, which is exactly how the
// streaming layer drives them; it asks RotateDue, lock-free per operation and
// again under the lock, when to rotate.
type ShardLog struct {
	st    *Store
	shard int
	dir   string

	// mu serialises WAL appends with the caller's channel handoff (the
	// CommitEvents/CommitSeal callbacks run under it) so WAL order always
	// equals apply order, and guards generation swaps. The commit path does
	// all encoding and checksumming before taking it, so the critical section
	// is one buffer append plus the channel handoff. Producers may block on
	// the channel while holding it; that is safe because the shard goroutine
	// only ever acquires it with TryLock.
	mu  sync.Mutex
	wal *walFile
	gen uint64

	// commitSeq numbers the commit barrier: it increments under mu once per
	// committed operation, so WAL append order, apply (channel) order and the
	// sequence numbers all agree.
	commitSeq uint64
	// metCommitSeq is the commitSeq value last published to the store.commits
	// series. The counter is fed by the delta at every WAL flush rather than
	// by a per-commit atomic increment, keeping the commit hot path free of
	// shared-counter traffic; it is exact at every flush point (barriers,
	// snapshots, close).
	metCommitSeq uint64

	// covered is the seal ordinal up to which segments exist. Barrier
	// goroutine only.
	covered int
	// tailBytes estimates the encoded size of the sealed traces in
	// [covered, sized). PublishSegment extends it by the seals each barrier
	// adds, so no barrier re-walks the whole tail; a segment write resets
	// it. Barrier goroutine only.
	tailBytes int64
	sized     int
	// segs is the live segment ledger, guarded by st.segMu.
	segs []segmentInfo
	// walSize mirrors wal.pending() for lock-free reads: the shard goroutine
	// consults RotateDue per operation and must never block on mu (a
	// producer can hold it while blocked on the shard's channel). It is
	// stored under mu at every change of pending() — append, rollback,
	// rotation, recovery; a flush moves bytes from the buffer to the file
	// without changing it — so under mu RotateDue is exact.
	walSize atomic.Int64
	// rotateAt is the adaptive rotation threshold: at least the configured
	// budget, but also at least twice the size of the last generation's
	// fresh start. When the open-trace payload alone exceeds the budget, a
	// fixed threshold would demand a rotation after every operation — each
	// one rewriting the whole multi-megabyte open set; doubling instead
	// keeps total rotation I/O linear in the bytes ever logged.
	rotateAt atomic.Int64
}

// Err returns the owning store's write-gating error; nil while healthy.
func (sl *ShardLog) Err() error { return sl.st.Err() }

// ReadErr returns the owning store's read-gating error; nil unless Failed.
func (sl *ShardLog) ReadErr() error { return sl.st.ReadErr() }

// RotateDue reports, without taking the lock, whether the active WAL
// generation has outgrown its rotation threshold and the next barrier should
// roll it into segments. The shard goroutine checks it on every applied
// operation — events-only and seal-light workloads must still trigger
// rotation, or the WAL (and recovery replay time) would grow with history
// instead of with open data — and again under the lock at the barrier.
func (sl *ShardLog) RotateDue() bool {
	return sl.walSize.Load() >= sl.rotateAt.Load()
}

// setRotateThreshold recomputes rotateAt from a fresh generation's size.
func (sl *ShardLog) setRotateThreshold(fresh int64) {
	at := sl.st.opts.WALRotateBytes
	if double := fresh * 2; double > at {
		at = double
	}
	sl.rotateAt.Store(at)
}

// CommitEvents durably appends an events record for trace id under its WAL
// handle h — preceded by the trace's open record when fresh, the commit that
// opens it — and then calls send under the log's lock; see commit.
func (sl *ShardLog) CommitEvents(id string, h uint64, fresh bool, events []seqdb.EventID, send func()) error {
	return sl.commit(id, h, fresh, events, false, send)
}

// CommitSeal durably appends a seal record for trace id under its WAL handle
// h (opening it first when fresh — an id never seen, sealed empty) and then
// calls send under the log's lock; see commit.
func (sl *ShardLog) CommitSeal(id string, h uint64, fresh bool, send func()) error {
	return sl.commit(id, h, fresh, nil, true, send)
}

// commitScratch pools the producer-side framing buffers of the commit path.
var commitScratch = sync.Pool{New: func() any { return new(scratchBuf) }}

type scratchBuf struct{ b []byte }

// commit is the shard's one durable write path. It frames and checksums the
// records into pooled scratch BEFORE the lock is taken — so concurrent
// producers overlap all encoding work and serialise only on a memcpy plus the
// channel handoff in send — then appendCommit appends them, group-commits,
// and calls send under the lock. WAL order equals apply order: both happen
// under mu, stamped by the same commit sequence number.
//
// The handle is the caller's: a trace gets it when it opens and keeps it
// until it seals, and every checkpoint re-logs the open traces under their
// own handles. So records framed against one WAL generation stay valid in the
// next, and a rotation between the framing and the lock changes nothing. All
// records of one trace must be committed from a single goroutine (the
// streaming layer's standing contract): that is what puts the trace's open
// record, framed into the commit that opens it, ahead of every other record
// carrying the handle.
func (sl *ShardLog) commit(id string, h uint64, fresh bool, events []seqdb.EventID, seal bool, send func()) error {
	if err := sl.st.Err(); err != nil {
		return err
	}
	fb := commitScratch.Get().(*scratchBuf)
	defer commitScratch.Put(fb)
	fb.b = frameCommit(fb.b[:0], id, h, fresh, events, seal)
	return sl.appendCommit(fb.b, send)
}

// appendCommit appends the framed records rec under the lock, group-commits
// and calls send. On a flush failure the records are rolled back and the
// error returned: the operation is being rejected, so no later retry of the
// buffer may deliver it to disk and resurrect it at recovery.
func (sl *ShardLog) appendCommit(rec []byte, send func()) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	w := sl.wal
	mark := len(w.buf)
	w.buf = append(w.buf, rec...)
	sl.walSize.Store(w.pending())
	preSize := w.size
	if err := sl.maybeFlushLocked(); err != nil {
		sl.rollbackLocked(mark, preSize)
		return err
	}
	sl.commitSeq++
	send()
	return nil
}

// frameCommit appends a commit's frames to buf: the open record when the
// handle is fresh, then the seal or events record.
func frameCommit(buf []byte, id string, h uint64, fresh bool, events []seqdb.EventID, seal bool) []byte {
	var start int
	if fresh {
		buf, start = openFrame(buf)
		buf = encodeOpen(buf, h, id)
		buf = closeFrame(buf, start)
	}
	buf, start = openFrame(buf)
	if seal {
		buf = encodeSeal(buf, h)
	} else {
		buf = encodeEvents(buf, h, events)
	}
	return closeFrame(buf, start)
}

// rollbackLocked drops the rejected operation's records from the buffer
// tail. mark is the buffer length before they were framed and preSize the
// file size before the failed flush; the flush may have consumed a prefix of
// the buffer (walFile.flush advances it on partial writes), so the mark is
// rebased by the consumed byte count. If the flush tore into the rejected
// records themselves, the torn on-disk frame is unreachable to recovery by
// construction, and the store's sticky error stops anything from being
// appended after it.
func (sl *ShardLog) rollbackLocked(mark int, preSize int64) {
	w := sl.wal
	rel := mark - int(w.size-preSize)
	if rel < 0 {
		rel = 0
	}
	if rel < len(w.buf) {
		w.buf = w.buf[:rel]
	}
	sl.walSize.Store(w.pending())
}

// maybeFlushLocked group-commits when the buffer has grown past the
// threshold, flushing the dictionary log first to preserve the on-disk
// reference invariant.
func (sl *ShardLog) maybeFlushLocked() error {
	if int64(len(sl.wal.buf)) < walFlushThreshold {
		return nil
	}
	return sl.FlushLocked()
}

// FlushLocked is Flush for callers already holding the lock, the commit path
// and the barrier's TryLock alike.
func (sl *ShardLog) FlushLocked() error {
	// Publish the commits accumulated since the last flush before anything
	// can fail: the counter stays exact at every flush point even when the
	// flush itself errors out.
	if sl.st.met.enabled {
		if d := sl.commitSeq - sl.metCommitSeq; d != 0 {
			sl.st.met.commits.Add(int64(d))
			sl.metCommitSeq = sl.commitSeq
		}
	}
	// Fail fast once the store is degraded: barriers keep firing from the
	// streaming layer, and each would otherwise burn a full retry-backoff
	// cycle against a path already known permanent.
	if err := sl.st.Err(); err != nil {
		return err
	}
	if err := sl.st.flushDict(); err != nil {
		return err
	}
	if err := sl.st.retryTransient(sl.wal.flush); err != nil {
		return sl.st.ioError(err, fmt.Sprintf("shard %d WAL flush", sl.shard))
	}
	return nil
}

// Flush forces the shard's buffered records (and the dictionary log) to the
// OS, taking the shard log's lock. The streaming layer's barriers already
// hold that lock and call FlushLocked instead.
func (sl *ShardLog) Flush() error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.FlushLocked()
}

// TryLock attempts to take the shard log's lock without blocking. The
// rotation protocol in the streaming layer needs it: the shard goroutine
// must never block on the lock while a producer inside CommitEvents could be
// blocked on the shard's own channel.
func (sl *ShardLog) TryLock() bool { return sl.mu.TryLock() }

// Unlock releases the lock taken by TryLock.
func (sl *ShardLog) Unlock() { sl.mu.Unlock() }

// CheckpointLocked is the shard's one checkpoint: it rolls the sealed tail
// into a segment and starts a fresh WAL generation holding only the header
// and a re-log of open under each trace's Handle, so the next Open replays
// open data, not history. A
// barrier's rotation, the clean-close checkpoint and Open's canonicalisation
// all run it.
//
// seqs holds the shard's newest sealed traces in seal order, ending at seal
// ordinal sealedTotal, and must reach back at least to the segment coverage:
// the streaming layer passes its full sealed list, Open only the traces its
// WAL replay recovered. The WAL must be flushed past every seal in seqs, and
// the caller must hold the lock via TryLock with the shard's channel drained,
// as for RotateLocked. The tail is written whatever its size, so a
// checkpoint may leave a segment smaller than Options.SegmentBytes. On error
// the flushed WAL still recovers everything by replay.
func (sl *ShardLog) CheckpointLocked(seqs []seqdb.Sequence, sealedTotal int, open []OpenTrace) error {
	tail := sealedTotal - sl.covered
	if tail < 0 || tail > len(seqs) {
		return sl.st.fail(fmt.Errorf("store: shard %d: checkpointing %d sealed from %d traces but %d covered by segments", sl.shard, sealedTotal, len(seqs), sl.covered))
	}
	if err := sl.writeSegmentTail(seqs[len(seqs)-tail:]); err != nil {
		return err
	}
	return sl.RotateLocked(open, sealedTotal)
}

// Tail size estimate, in bytes per sealed trace and per event. A trace's
// block starts with its event count and the segment footer holds its block
// length, one uvarint byte each for all but huge traces; an event costs at
// most one run of a one-byte delta and a one-byte length. Durable ingest of
// tracesim workloads measures 2.07-2.11 segment bytes per event.
const (
	tailBytesPerTrace = 2
	tailBytesPerEvent = 2
)

// PublishSegment rolls the unsegmented sealed tail of seqs — the shard's full
// sealed list, in seal order — into a segment once its estimated size reaches
// Options.SegmentBytes, WITHOUT taking the log's lock: the barrier goroutine
// calls it after releasing the lock so producers never wait behind segment
// I/O. A shorter tail stays in the WAL, which already holds it durably, to
// grow at later barriers; a checkpoint writes whatever remains. So every
// segment is written once, at its final size, and is never merged or
// removed. The caller must have flushed the WAL past the tail's seal records
// while it still held the lock (the barrier does); publishing an un-covered
// segment would break the resurrection invariant writeSegmentTail documents.
func (sl *ShardLog) PublishSegment(seqs []seqdb.Sequence) error {
	if err := sl.st.Err(); err != nil {
		return err
	}
	for _, s := range seqs[sl.sized:] {
		sl.tailBytes += tailBytesPerTrace + tailBytesPerEvent*int64(len(s))
	}
	sl.sized = len(seqs)
	if sl.tailBytes < sl.st.opts.SegmentBytes {
		return nil
	}
	return sl.writeSegmentTail(seqs[sl.covered:])
}

// writeSegmentTail writes tail, the sealed traces past the segment coverage
// in seal order, as the segment [covered, covered+len(tail)). It is the one
// place a shard's sealed traces first reach a segment file. The WAL must
// already be flushed past those traces' seal records: a surviving segment
// whose seals the WAL never saw would resurrect its traces as duplicates.
func (sl *ShardLog) writeSegmentTail(tail []seqdb.Sequence) error {
	if len(tail) == 0 {
		return nil
	}
	var pubStart time.Time
	if sl.st.met.enabled {
		pubStart = time.Now()
	}
	from, to := sl.covered, sl.covered+len(tail)
	data := encodeSegment(tail, sl.shard, from)
	var info segmentInfo
	err := sl.st.retryTransient(func() error {
		var werr error
		// writeSegmentFile truncates on create, so a retry after a short
		// write starts from a clean file.
		info, werr = writeSegmentFile(sl.st.fs, sl.dir, from, to, data, sl.st.opts.Sync)
		return werr
	})
	if err != nil {
		// covered is not advanced: the WAL still holds these traces, the next
		// barrier re-attempts the publish, and recovery discards any torn
		// partial file by checksum.
		return sl.st.ioError(err, fmt.Sprintf("shard %d segment publish", sl.shard))
	}
	sl.covered = to
	sl.tailBytes, sl.sized = 0, to
	sl.st.segMu.Lock()
	sl.segs = append(sl.segs, info)
	sl.st.segMu.Unlock()
	if sl.st.met.enabled {
		sl.st.met.segPublishNs.Observe(time.Since(pubStart).Nanoseconds())
		sl.st.met.segsPublished.Inc()
		sl.st.met.segBytesWritten.Add(info.size)
	}
	return nil
}

// RotateLocked starts a fresh WAL generation: a new file carrying only the
// header (sealedBase = sealedTotal, which must equal the segment coverage)
// and a re-log of the still-open traces under their own handles, then
// removal of every superseded generation. The caller must hold the lock via
// TryLock with the shard's channel drained, and open must list exactly the
// traces whose open record the WAL holds, so no producer can interleave and
// every later record of an open trace finds its handle re-logged.
//
// The create path is read from the directory: with no predecessor generation
// on disk (a fresh shard) the file is created in place — a crash mid-create
// just means an empty shard next time — and otherwise it is published
// atomically, so the old generation stays valid until the new one is renamed
// into place and a crash anywhere in here recovers from one or the other.
//
// A ShardLog seeded by Open has no live generation yet: its first start is
// recovery's canonicalisation, not a rotation, and is neither traced nor
// counted in store.wal_rotations.
func (sl *ShardLog) RotateLocked(open []OpenTrace, sealedTotal int) (err error) {
	live := sl.wal != nil
	if live {
		sp := sl.st.met.ops.Start(fmt.Sprintf("store.wal_rotate shard=%d", sl.shard))
		defer func() { sp.End(err) }()
	}
	if sealedTotal != sl.covered {
		return sl.st.fail(fmt.Errorf("store: shard %d: rotating with %d sealed but %d covered by segments", sl.shard, sealedTotal, sl.covered))
	}
	newGen := sl.gen + 1
	entries, err := sl.st.fs.ReadDir(sl.dir)
	if err != nil {
		return sl.st.ioError(err, fmt.Sprintf("shard %d WAL rotation", sl.shard))
	}
	var superseded []string
	for _, e := range entries {
		if gen, ok := parseWALName(e.Name()); ok && gen < newGen {
			superseded = append(superseded, filepath.Join(sl.dir, e.Name()))
		}
	}
	create := createWAL
	if len(superseded) == 0 {
		create = createWALDirect
	}
	sort.Slice(open, func(i, j int) bool { return open[i].ID < open[j].ID })
	wal, err := create(sl.st.fs, filepath.Join(sl.dir, walName(newGen)), sl.st.opts.Sync, openTraceRecords(sl.shard, sealedTotal, open)...)
	if err != nil {
		// The old generation stays active and valid; RotateDue remains true,
		// so the next barrier re-attempts the rotation. A torn publish of the
		// new file is discarded at recovery by its missing commit marker.
		return sl.st.ioError(err, fmt.Sprintf("shard %d WAL rotation", sl.shard))
	}
	wal.met = &sl.st.met
	if live {
		if err := sl.wal.f.Close(); err != nil {
			// The old generation is already superseded — the new WAL covers
			// all state — so a failed close leaks a handle, not durability.
			// Record it and continue.
			sl.st.warn("shard %d: closing superseded %s: %v", sl.shard, filepath.Base(sl.wal.path), err)
		}
	}
	for _, p := range superseded {
		if err := sl.st.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			// A leaked superseded generation is harmless (recovery prefers
			// the newest complete one and re-deletes stale files) but
			// observable.
			sl.st.warn("shard %d: removing superseded %s: %v", sl.shard, filepath.Base(p), err)
		}
	}
	sl.wal = wal
	sl.gen = newGen
	sl.walSize.Store(wal.pending())
	sl.setRotateThreshold(wal.pending())
	if live {
		sl.st.met.rotations.Inc()
	}
	return nil
}

func walName(gen uint64) string { return fmt.Sprintf("wal-%06d.wal", gen) }

// parseWALName returns the generation a WAL file name carries; ok is false
// for any name walName does not produce, a publish's .tmp file included.
func parseWALName(name string) (gen uint64, ok bool) {
	if n, err := fmt.Sscanf(name, "wal-%d.wal", &gen); n != 1 || err != nil {
		return 0, false
	}
	return gen, name == walName(gen)
}

// SegmentSpans returns, for diagnostics and tests, each shard's live segment
// ordinal ranges in order.
func (st *Store) SegmentSpans() [][][2]int {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	out := make([][][2]int, len(st.shards))
	for i, sl := range st.shards {
		for _, s := range sl.segs {
			out[i] = append(out[i], [2]int{s.from, s.to})
		}
	}
	return out
}
