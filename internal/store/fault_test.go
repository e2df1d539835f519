package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"specmine/internal/fsim"
	"specmine/internal/seqdb"
)

// Live-fault tests: fsim fault schedules injected under the store, asserting
// the graceful-degradation contract — transient faults fail (at most) the one
// operation that hit them, permanent faults land in DegradedReadOnly, cleanup
// failures surface as warnings, and recovery over the surviving files always
// reproduces the acked state.

// openFaultStore opens a store over a FaultFS with the given schedule.
func openFaultStore(t *testing.T, dir string, schedule []fsim.Rule, tweak func(*Options)) (*Store, *fsim.FaultFS) {
	t.Helper()
	ffs := fsim.NewFaultFS(fsim.OS(), schedule...)
	st := openStore(t, dir, func(o *Options) {
		o.FS = ffs
		if tweak != nil {
			tweak(o)
		}
	})
	return st, ffs
}

func healthAssert(t *testing.T, st *Store, want HealthState) Health {
	t.Helper()
	h := st.Health()
	if h.State != want {
		t.Fatalf("health state %v want %v (err %v, cause %q, warnings %v)", h.State, want, h.Err, h.Cause, h.Warnings)
	}
	return h
}

func hasWarning(h Health, sub string) bool {
	for _, w := range h.Warnings {
		if strings.Contains(w, sub) {
			return true
		}
	}
	return false
}

// TestSegmentWriteENOSPCDiscardedOnReopen: ENOSPC with a short write torn
// into a segment publish. The barrier fails but the store stays healthy (the
// WAL still covers the traces), and reopening discards the partial file and
// recovers every sealed trace from the log.
func TestSegmentWriteENOSPCDiscardedOnReopen(t *testing.T) {
	dir := t.TempDir()
	st, _ := openFaultStore(t, dir,
		[]fsim.Rule{{Op: fsim.OpWrite, Path: ".seg", From: 0, To: 99, Err: syscall.ENOSPC, Short: true}},
		func(o *Options) { o.RetryAttempts = -1 })
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(7))
	// Enough traces that a half-written file (Short) tears inside the segment
	// core, not just the advisory stats block behind the trailer.
	var sealed []seqdb.Sequence
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("tr%03d", i)
		evs := randomTrace(rng, 10)
		if err := sl.commitEvents(id, evs); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, evs)
	}
	err := writeSegment(sl, sealed)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("segment write under ENOSPC: %v", err)
	}
	h := healthAssert(t, st, Healthy)
	if h.Faults == 0 {
		t.Fatal("surfaced transient fault not counted")
	}
	// The torn partial file exists; the WAL still covers the traces.
	segs, _ := filepath.Glob(filepath.Join(dir, "shard-000", "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("expected one torn segment file, found %v", segs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, nil)
	defer st2.Close()
	sequencesEqual(t, "recovered after torn segment", st2.Recovered().Shards[0].Sequences, sealed)
	if !hasWarning(st2.Health(), "torn segment") {
		t.Fatalf("reopen did not warn about the torn segment: %v", st2.Health().Warnings)
	}
}

// TestWALRotationENOSPCOldGenerationContinues: a torn rename mid-rotation.
// The rotation fails, the superseded generation stays active and keeps
// accepting appends, and recovery discards the half-published generation
// (missing commit marker) in favour of the intact predecessor.
func TestWALRotationENOSPCOldGenerationContinues(t *testing.T) {
	dir := t.TempDir()
	st, _ := openFaultStore(t, dir,
		[]fsim.Rule{{Op: fsim.OpRename, Path: ".wal", Err: syscall.ENOSPC, Torn: true}},
		nil)
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(8))
	var sealed []seqdb.Sequence
	for i := 0; i < 4; i++ {
		id := "tr" + string(rune('a'+i))
		evs := randomTrace(rng, 10)
		if err := sl.commitEvents(id, evs); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, evs)
	}
	stillOpen := randomTrace(rng, 10)
	if err := sl.commitEvents(t.Name(), stillOpen); err != nil {
		t.Fatal(err)
	}

	if !sl.TryLock() {
		t.Fatal("TryLock failed with no producers")
	}
	if err := sl.FlushLocked(); err != nil {
		sl.Unlock()
		t.Fatal(err)
	}
	err := sl.CheckpointLocked(sealed, len(sealed), []OpenTrace{sl.openTrace(t.Name(), stillOpen)})
	sl.Unlock()
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("CheckpointLocked under torn rename: %v", err)
	}
	healthAssert(t, st, Healthy)

	// The old generation is still the active WAL; ingest continues on it.
	extra := randomTrace(rng, 10)
	if err := sl.commitEvents(t.Name(), extra); err != nil {
		t.Fatalf("append after failed rotation: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Both generations are on disk; the newer one is a torn prefix.
	wals, _ := filepath.Glob(filepath.Join(dir, "shard-000", "*.wal"))
	if len(wals) != 2 {
		t.Fatalf("expected torn + intact WAL generations, found %v", wals)
	}

	st2 := openStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	sequencesEqual(t, "sealed after torn rotation", rec.Sequences, sealed)
	if len(rec.Open) != 1 || rec.Open[0].ID != t.Name() {
		t.Fatalf("open traces after torn rotation: %+v", rec.Open)
	}
	wantOpen := append(append(seqdb.Sequence{}, stillOpen...), extra...)
	sequencesEqual(t, "open events after torn rotation", []seqdb.Sequence{rec.Open[0].Events}, []seqdb.Sequence{wantOpen})
	if !hasWarning(st2.Health(), "torn WAL generation") {
		t.Fatalf("reopen did not warn about the torn generation: %v", st2.Health().Warnings)
	}
}

// TestTransientENOSPCAbsorbedByRetry: a one-shot ENOSPC on the WAL flush path
// disappears inside the bounded retry — the caller never sees it.
func TestTransientENOSPCAbsorbedByRetry(t *testing.T) {
	dir := t.TempDir()
	// Write rank 0 is the WAL creation write at Open; rank 1 the first flush.
	st, _ := openFaultStore(t, dir,
		[]fsim.Rule{{Op: fsim.OpWrite, Path: "shard-000", From: 1, Err: syscall.ENOSPC}},
		nil)
	defer st.Close()
	internEvents(t, st, 5)
	sl := logOf(st, 0)
	if err := sl.commitEvents("tr", seqdb.Sequence{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := sl.Flush(); err != nil {
		t.Fatalf("flush with retryable fault: %v", err)
	}
	h := healthAssert(t, st, Healthy)
	if h.Retries == 0 {
		t.Fatal("retry not counted")
	}
	if h.Faults != 0 {
		t.Fatalf("absorbed fault surfaced: %d", h.Faults)
	}
}

// TestTransientENOSPCClearsAndIngestResumes: an ENOSPC window that outlives
// the retry budget fails individual flushes while it lasts; once it clears,
// ingest resumes on the same open store handle, and everything acked is
// durable.
func TestTransientENOSPCClearsAndIngestResumes(t *testing.T) {
	dir := t.TempDir()
	st, _ := openFaultStore(t, dir,
		[]fsim.Rule{{Op: fsim.OpWrite, Path: "shard-000", From: 1, To: 5, Err: syscall.ENOSPC}},
		func(o *Options) { o.RetryAttempts = -1 })
	internEvents(t, st, 8)
	sl := logOf(st, 0)
	if err := sl.commitEvents("tr", seqdb.Sequence{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	failures := 0
	for sl.Flush() != nil {
		failures++
		if failures > 10 {
			t.Fatal("flush never recovered after the ENOSPC window")
		}
		healthAssert(t, st, Healthy)
	}
	if failures != 4 {
		t.Fatalf("expected 4 surfaced failures for the [1,5) window, got %d", failures)
	}
	if h := st.Health(); h.Faults != 4 {
		t.Fatalf("fault count %d want 4", h.Faults)
	}
	// Ingest continues on the same handle, no reopen.
	if err := sl.commitEvents("tr", seqdb.Sequence{3, 4}); err != nil {
		t.Fatalf("append after window cleared: %v", err)
	}
	if err := sl.commitSeal("tr"); err != nil {
		t.Fatal(err)
	}
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, nil)
	defer st2.Close()
	sequencesEqual(t, "recovered after cleared window", st2.Recovered().Shards[0].Sequences,
		[]seqdb.Sequence{{0, 1, 2, 3, 4}})
}

// TestPermanentFaultDegradesReadOnly: EIO on the WAL moves the store to
// DegradedReadOnly — ingest fails fast with ErrDegraded, reads stay open.
func TestPermanentFaultDegradesReadOnly(t *testing.T) {
	dir := t.TempDir()
	st, _ := openFaultStore(t, dir,
		[]fsim.Rule{{Op: fsim.OpWrite, Path: "shard-000", From: 1, Err: syscall.EIO}},
		nil)
	internEvents(t, st, 5)
	sl := logOf(st, 0)
	if err := sl.commitEvents("tr", seqdb.Sequence{0, 1}); err != nil {
		t.Fatal(err)
	}
	err := sl.Flush()
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("flush under EIO: %v", err)
	}
	h := healthAssert(t, st, DegradedReadOnly)
	if !errors.Is(h.Err, syscall.EIO) {
		t.Fatalf("health first error: %v", h.Err)
	}
	if !strings.Contains(h.Cause, "WAL flush") {
		t.Fatalf("health cause: %q", h.Cause)
	}
	// Writes fail fast with the typed error; reads are not gated.
	if err := sl.commitEvents("tr2", seqdb.Sequence{2}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest after degradation: %v", err)
	}
	if err := sl.commitEvents("tr3", seqdb.Sequence{3}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("commit after degradation: %v", err)
	}
	if err := st.ReadErr(); err != nil {
		t.Fatalf("ReadErr in degraded mode: %v", err)
	}
	if err := st.Close(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("close of degraded store: %v", err)
	}
}

// TestRotationCleanupFailureWarnsNotFails: failing to close or remove the
// superseded WAL generation after a successful rotation is a warning, never a
// store failure — the new generation already covers all state.
func TestRotationCleanupFailureWarnsNotFails(t *testing.T) {
	dir := t.TempDir()
	st, _ := openFaultStore(t, dir,
		[]fsim.Rule{
			{Op: fsim.OpClose, Path: walName(1), Err: syscall.EIO},
			{Op: fsim.OpRemove, Path: walName(1), Err: syscall.EACCES},
		},
		nil)
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(9))
	var sealed []seqdb.Sequence
	for i := 0; i < 3; i++ {
		id := "tr" + string(rune('a'+i))
		evs := randomTrace(rng, 10)
		if err := sl.commitEvents(id, evs); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, evs)
	}
	if !sl.TryLock() {
		t.Fatal("TryLock failed with no producers")
	}
	if err := sl.FlushLocked(); err != nil {
		sl.Unlock()
		t.Fatal(err)
	}
	err := sl.CheckpointLocked(sealed, len(sealed), nil)
	sl.Unlock()
	if err != nil {
		t.Fatalf("rotation with failing cleanup: %v", err)
	}
	h := healthAssert(t, st, Healthy)
	if !hasWarning(h, "closing superseded") || !hasWarning(h, "removing superseded") {
		t.Fatalf("cleanup failures not recorded as warnings: %v", h.Warnings)
	}
	// The leaked old generation is still on disk next to the new one.
	wals, _ := filepath.Glob(filepath.Join(dir, "shard-000", "*.wal"))
	if len(wals) != 2 {
		t.Fatalf("expected leaked + active WAL, found %v", wals)
	}
	if err := sl.commitEvents("post", seqdb.Sequence{0, 1}); err != nil {
		t.Fatalf("ingest after rotation: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen prefers the newest complete generation and clears the leak.
	st2 := openStore(t, dir, nil)
	defer st2.Close()
	sequencesEqual(t, "recovered after leaked generation", st2.Recovered().Shards[0].Sequences, sealed)
	if _, err := os.Stat(filepath.Join(dir, "shard-000", walName(1))); !os.IsNotExist(err) {
		t.Fatalf("leaked generation not cleaned on reopen: %v", err)
	}
}

// TestInvariantViolationFails: a rotation whose coverage contradicts the
// segment ledger is an invariant violation — the store moves to Failed and
// reads are gated too.
func TestInvariantViolationFails(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	sl := logOf(st, 0)
	internEvents(t, st, 5)
	if err := sl.commitEvents("tr", seqdb.Sequence{0}); err != nil {
		t.Fatal(err)
	}
	if err := sl.commitSeal("tr"); err != nil {
		t.Fatal(err)
	}
	if !sl.TryLock() {
		t.Fatal("TryLock failed with no producers")
	}
	err := sl.RotateLocked(nil, 1) // 1 sealed, 0 covered by segments
	sl.Unlock()
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("invariant violation: %v", err)
	}
	healthAssert(t, st, Failed)
	if err := st.ReadErr(); !errors.Is(err, ErrFailed) {
		t.Fatalf("ReadErr after invariant violation: %v", err)
	}
	_ = st.Close()
}

// crashImageWithUncoveredTail logs sealed traces and one open trace into
// shard 0 of a fresh store and closes it without a checkpoint, leaving what a
// crash after the last flush leaves: a WAL holding sealed traces that no
// segment covers yet. It returns the sealed traces and the open trace's
// events (under id "open").
func crashImageWithUncoveredTail(t *testing.T, dir string) ([]seqdb.Sequence, seqdb.Sequence) {
	t.Helper()
	st := openStore(t, dir, nil)
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(14))
	var sealed []seqdb.Sequence
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("tr%02d", i)
		evs := randomTrace(rng, 10)
		if err := sl.commitEvents(id, evs); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, evs)
	}
	open := randomTrace(rng, 10)
	if err := sl.commitEvents("open", open); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "shard-000", "*.seg")); len(segs) != 0 {
		t.Fatalf("crash image already holds segments %v", segs)
	}
	return sealed, open
}

func assertRecoveredShard(t *testing.T, st *Store, sealed []seqdb.Sequence, open seqdb.Sequence) {
	t.Helper()
	rec := st.Recovered().Shards[0]
	sequencesEqual(t, "recovered sealed", rec.Sequences, sealed)
	if len(rec.Open) != 1 || rec.Open[0].ID != "open" {
		t.Fatalf("recovered open traces %+v want only \"open\"", rec.Open)
	}
	sequencesEqual(t, "recovered open", []seqdb.Sequence{rec.Open[0].Events}, []seqdb.Sequence{open})
}

// TestOpenCanonicaliseRetriesTransientFault: Open rolls the WAL-recovered
// sealed tail into a segment through the same retry as every other segment
// write, so a one-shot ENOSPC tearing that write is absorbed and Open
// recovers every acked sealed and open trace.
func TestOpenCanonicaliseRetriesTransientFault(t *testing.T) {
	dir := t.TempDir()
	sealed, open := crashImageWithUncoveredTail(t, dir)
	st, ffs := openFaultStore(t, dir,
		[]fsim.Rule{{Op: fsim.OpWrite, Path: ".seg", Err: syscall.ENOSPC, Short: true}},
		nil)
	defer st.Close()
	if inj := ffs.Injections(); len(inj) != 1 {
		t.Fatalf("fault injections %v, want the one segment write", inj)
	}
	if h := healthAssert(t, st, Healthy); h.Retries == 0 {
		t.Fatal("retry not counted")
	}
	assertRecoveredShard(t, st, sealed, open)
	if spans := st.SegmentSpans()[0]; len(spans) != 1 || spans[0] != [2]int{0, len(sealed)} {
		t.Fatalf("segment spans after Open %v, want one covering [0, %d)", spans, len(sealed))
	}
}

// TestOpenCanonicalisePermanentFaultFailsOpen: a permanent EIO tearing Open's
// tail segment write fails Open with the fault visible to errors.Is, and a
// later fault-free Open recovers the same state over the torn file, whether
// the tear reached the segment core (discarded, the WAL replays) or only its
// advisory stats block (the segment is used as is).
func TestOpenCanonicalisePermanentFaultFailsOpen(t *testing.T) {
	dir := t.TempDir()
	sealed, open := crashImageWithUncoveredTail(t, dir)
	ffs := fsim.NewFaultFS(fsim.OS(), fsim.Rule{Op: fsim.OpWrite, Path: ".seg", Err: syscall.EIO, Short: true})
	if st, err := Open(Options{Dir: dir, Shards: 1, FS: ffs}); !errors.Is(err, syscall.EIO) {
		if err == nil {
			st.Close()
		}
		t.Fatalf("Open under a permanent segment-write fault: %v", err)
	}
	st := openStore(t, dir, nil)
	defer st.Close()
	assertRecoveredShard(t, st, sealed, open)
}
