package store

import (
	"specmine/internal/obs"
)

// storeMetrics are the store's registry-backed series. The zero value (all
// nil handles, enabled false) is the disabled form: every handle method
// no-ops on nil, and the enabled flag gates the few places that would
// otherwise read the clock for nothing.
type storeMetrics struct {
	enabled bool
	// commits counts operations committed to a shard WAL (events or seal),
	// i.e. acknowledged durable mutations. It is fed by commitSeq deltas at
	// WAL flush points rather than per-commit increments (see FlushLocked),
	// so it is exact after any barrier, snapshot, or close.
	commits *obs.Counter
	// walFlushNs / walFlushBytes / walFsyncNs describe group commits: latency
	// of the whole flush, size of the batch handed to the OS, and the fsync
	// portion alone (Sync mode only).
	walFlushNs    *obs.Histogram
	walFlushBytes *obs.Histogram
	walFsyncNs    *obs.Histogram
	// segsPublished / segPublishNs cover segment writes, rotations counts
	// completed WAL rotations. segBytesWritten sums the size of every
	// segment file written; since no segment is ever rewritten it equals the
	// segment bytes the store's writers have published.
	segsPublished   *obs.Counter
	segPublishNs    *obs.Histogram
	segBytesWritten *obs.Counter
	rotations       *obs.Counter
	// retries/faults/degradations/warnings mirror the health ladder's own
	// counters as scrapeable series; healthState is the ladder position
	// (0 healthy, 1 degraded-read-only, 2 failed).
	retries      *obs.Counter
	faults       *obs.Counter
	degradations *obs.Counter
	warnings     *obs.Counter
	healthState  *obs.Gauge
	// ops records rotation and degradation transitions in the
	// registry's recent-operations ring.
	ops *obs.Tracer
}

func newStoreMetrics(r *obs.Registry) storeMetrics {
	return storeMetrics{
		enabled:         r != nil,
		commits:         r.Counter("store.commits"),
		walFlushNs:      r.Histogram("store.wal_flush_ns"),
		walFlushBytes:   r.Histogram("store.wal_flush_bytes"),
		walFsyncNs:      r.Histogram("store.wal_fsync_ns"),
		segsPublished:   r.Counter("store.segments_published"),
		segPublishNs:    r.Histogram("store.segment_publish_ns"),
		segBytesWritten: r.Counter("store.segment_bytes_written"),
		rotations:       r.Counter("store.wal_rotations"),
		retries:         r.Counter("store.retries"),
		faults:          r.Counter("store.faults"),
		degradations:    r.Counter("store.degradations"),
		warnings:        r.Counter("store.warnings"),
		healthState:     r.Gauge("store.health_state"),
		ops:             r.Ops(),
	}
}
