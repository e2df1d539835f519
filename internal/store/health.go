package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"specmine/internal/fsim"
)

// Failure model. The store classifies every data-path I/O failure into one of
// two classes (fsim.Transient decides which) and reacts per class instead of
// bricking on the first error:
//
//   - Transient faults (ENOSPC, EINTR-class — conditions that can clear
//     without intervention) get a bounded exponential-backoff retry on the
//     WAL-flush, segment-publish and segment-read paths. A fault that outlives
//     its retries fails the one operation that hit it — the producer sees the
//     error, the WAL rollback discards the rejected records — and the store
//     stays Healthy, so ingest resumes the moment the condition clears,
//     without reopening anything.
//
//   - Permanent faults (EIO, a closed descriptor) move the store to
//     DegradedReadOnly: every durable mutation fails fast with an error
//     wrapping ErrDegraded, while snapshots, mining and online checking keep
//     serving from in-memory state — degraded, but not down.
//
//   - Invariant violations (segment coverage contradicting the WAL at
//     rotation) mean the in-memory state can no longer be trusted to match
//     the log; they move the store to Failed, which additionally fails reads.
//
// Cleanup failures — a superseded WAL, or a torn or subsumed segment found at
// Open, that cannot be removed — never change state: the data they leak is redundant by
// construction, so they are recorded as Health warnings and the store
// continues.

// HealthState is the store's position in the degradation ladder.
type HealthState int32

const (
	// Healthy: all durable paths operating normally.
	Healthy HealthState = iota
	// DegradedReadOnly: a permanent fault stopped durable ingest; reads
	// (snapshots, mining, online checking) still serve from memory.
	DegradedReadOnly
	// Failed: an invariant violation; neither writes nor reads are trustworthy.
	Failed
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case DegradedReadOnly:
		return "degraded-read-only"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrDegraded wraps every error returned by durable mutations after the store
// entered DegradedReadOnly; test with errors.Is.
var ErrDegraded = errors.New("store: degraded read-only")

// ErrFailed wraps every error returned after the store entered Failed.
var ErrFailed = errors.New("store: failed")

// Health is a point-in-time snapshot of the store's failure-model state.
type Health struct {
	// State is the current degradation level.
	State HealthState
	// Err is the error that caused the first state transition; nil while
	// Healthy.
	Err error
	// Cause names the code path of the last state change ("shard 2 WAL
	// flush", "segment read", ...).
	Cause string
	// Retries counts transient-fault retry attempts, successful or not.
	Retries uint64
	// Faults counts transient faults that outlived their retries and were
	// surfaced to a caller while the store stayed Healthy.
	Faults uint64
	// Warnings are non-fatal anomalies — leaked files from failed cleanup,
	// discarded torn WAL generations — capped at a small fixed count.
	Warnings []string
}

// maxWarnings bounds the warning list; one sentinel entry marks the cut.
const maxWarnings = 32

// health is the store-embedded mutable state behind Health snapshots.
type health struct {
	state atomic.Int32
	// sticky is the operative error: nil while Healthy, the ErrDegraded- or
	// ErrFailed-wrapped transition error afterwards. It is an atomic pointer
	// because the healthy-path check sits on every producer commit: a mutex
	// here would re-serialise the goroutines the lock-free commit path exists
	// to keep apart. mu serialises only the (cold) transitions and the
	// warning list.
	sticky  atomic.Pointer[error]
	retries atomic.Uint64
	faults  atomic.Uint64

	mu       sync.Mutex
	firstErr error
	cause    string
	// Warnings are de-duplicated by message: warnOrder keeps first-occurrence
	// order, warnCount the repeat count per message (concurrent shards hitting
	// the same failing path produce one entry, not maxWarnings copies of it),
	// and warnOverflow records that distinct messages past the cap were
	// dropped.
	warnOrder    []string
	warnCount    map[string]int
	warnOverflow bool
}

// Health returns a snapshot of the store's failure-model state: degradation
// level, first error, retry/fault counters and accumulated warnings.
func (st *Store) Health() Health {
	st.health.mu.Lock()
	defer st.health.mu.Unlock()
	warnings := make([]string, 0, len(st.health.warnOrder)+1)
	for _, msg := range st.health.warnOrder {
		if n := st.health.warnCount[msg]; n > 1 {
			warnings = append(warnings, fmt.Sprintf("%s (x%d)", msg, n))
		} else {
			warnings = append(warnings, msg)
		}
	}
	if st.health.warnOverflow {
		warnings = append(warnings, "(further warnings suppressed)")
	}
	return Health{
		State:    HealthState(st.health.state.Load()),
		Err:      st.health.firstErr,
		Cause:    st.health.cause,
		Retries:  st.health.retries.Load(),
		Faults:   st.health.faults.Load(),
		Warnings: warnings,
	}
}

// Err returns the error gating durable mutations: nil while the store is
// Healthy, an error wrapping ErrDegraded or ErrFailed once it is not. Every
// commit and barrier path checks it first, so after a permanent fault ingest
// fails fast instead of queueing behind doomed I/O.
func (st *Store) Err() error {
	if p := st.health.sticky.Load(); p != nil {
		return *p
	}
	return nil
}

// ReadErr returns the error gating reads: nil unless the store is Failed.
// DegradedReadOnly stores serve snapshots and mining from in-memory state, so
// only an invariant violation makes reads untrustworthy.
func (st *Store) ReadErr() error {
	if HealthState(st.health.state.Load()) == Failed {
		if p := st.health.sticky.Load(); p != nil {
			return *p
		}
	}
	return nil
}

// degrade moves a Healthy store to DegradedReadOnly and returns the operative
// error. Later permanent faults keep the first transition's error and cause.
func (st *Store) degrade(err error, cause string) error {
	st.health.mu.Lock()
	defer st.health.mu.Unlock()
	if HealthState(st.health.state.Load()) != Healthy {
		if p := st.health.sticky.Load(); p != nil {
			return *p
		}
		return err
	}
	wrapped := fmt.Errorf("%w (%s): %w", ErrDegraded, cause, err)
	st.health.firstErr = err
	st.health.cause = cause
	st.health.sticky.Store(&wrapped)
	st.health.state.Store(int32(DegradedReadOnly))
	st.met.degradations.Inc()
	st.met.healthState.Set(int64(DegradedReadOnly))
	st.met.ops.RecordDur("store.degrade: "+cause, time.Now(), 0, err)
	return wrapped
}

// fail moves the store to Failed — reserved for invariant violations, where
// the in-memory state can no longer be trusted to match the log.
func (st *Store) fail(err error) error {
	st.health.mu.Lock()
	defer st.health.mu.Unlock()
	if HealthState(st.health.state.Load()) == Failed {
		if p := st.health.sticky.Load(); p != nil {
			return *p
		}
	}
	wrapped := fmt.Errorf("%w: %w", ErrFailed, err)
	if st.health.firstErr == nil {
		st.health.firstErr = err
	}
	st.health.cause = "invariant violation"
	st.health.sticky.Store(&wrapped)
	st.health.state.Store(int32(Failed))
	st.met.degradations.Inc()
	st.met.healthState.Set(int64(Failed))
	st.met.ops.RecordDur("store.fail", time.Now(), 0, err)
	return wrapped
}

// ioError is the end of every durable I/O error path: transient faults are
// counted and surfaced to the caller with the store left Healthy (the
// operation failed; the store did not), permanent faults degrade the store.
// The caller has already exhausted retryTransient where retrying is safe.
func (st *Store) ioError(err error, cause string) error {
	if fsim.Transient(err) {
		st.health.faults.Add(1)
		st.met.faults.Inc()
		return err
	}
	return st.degrade(err, cause)
}

// warn records a non-fatal anomaly in Health. Repeats of a message accumulate
// a count on its first entry rather than new entries, and the distinct-message
// list is bounded at maxWarnings with a sentinel marking the suppression.
func (st *Store) warn(format string, args ...any) {
	st.met.warnings.Inc()
	msg := fmt.Sprintf(format, args...)
	st.health.mu.Lock()
	defer st.health.mu.Unlock()
	if st.health.warnCount == nil {
		st.health.warnCount = make(map[string]int)
	}
	if _, seen := st.health.warnCount[msg]; seen {
		st.health.warnCount[msg]++
		return
	}
	if len(st.health.warnOrder) < maxWarnings {
		st.health.warnOrder = append(st.health.warnOrder, msg)
		st.health.warnCount[msg] = 1
		return
	}
	st.health.warnOverflow = true
}

// retryTransient runs fn, retrying transient failures up to the configured
// attempt budget with exponential backoff. It returns nil on success, the
// first non-transient error immediately, or the last transient error once the
// budget is spent. Callers route the returned error through ioError.
func (st *Store) retryTransient(fn func() error) error {
	err := fn()
	if err == nil || !fsim.Transient(err) {
		return err
	}
	backoff := st.opts.RetryBackoff
	for range st.opts.RetryAttempts {
		time.Sleep(backoff)
		backoff *= 2
		st.health.retries.Add(1)
		st.met.retries.Inc()
		if err = fn(); err == nil || !fsim.Transient(err) {
			return err
		}
	}
	return err
}
