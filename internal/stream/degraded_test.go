package stream

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"specmine/internal/fsim"
	"specmine/internal/seqdb"
	"specmine/internal/store"
)

// Deterministic failure-model tests for the streaming layer: the chaos suite
// hits these paths probabilistically, these pin them one mechanism at a time.

// TestDegradedStoreStillServesSnapshots: a permanent fault on the WAL flush
// degrades the store to read-only. Ingest must fail fast with the typed
// error, but snapshots must keep serving the exact in-memory state — the
// degraded contract is "stop promising durability, keep answering reads".
// A memory-only ingester has no store to degrade and is always Healthy.
func TestDegradedStoreStillServesSnapshots(t *testing.T) {
	mem := mustOpen(t, Config{Shards: 2})
	if h := mem.Health(); h.State != store.Healthy {
		t.Fatalf("memory-only ingester reports %v, want Healthy", h.State)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}

	// Write rank 0 on the shard path is the WAL creation at Open; rank 1 is
	// the first flush. EIO is permanent, so the first barrier degrades.
	ffs := fsim.NewFaultFS(fsim.OS(),
		fsim.Rule{Op: fsim.OpWrite, Path: "shard-000", From: 1, To: 1 << 20, Err: syscall.EIO})
	st, err := store.Open(store.Options{Dir: t.TempDir(), Shards: 1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	const flushBatch = 2
	ing, err := Open(Config{FlushBatch: flushBatch, Store: st})
	if err != nil {
		t.Fatal(err)
	}

	want := []seqdb.Sequence{}
	dict := ing.Dict()
	for i, names := range [][]string{{"a", "b"}, {"b", "c", "a"}, {"c"}} {
		id := string(rune('x' + i))
		// The first barrier fires once FlushBatch traces are sealed, on the
		// shard goroutine; from then on a write may find the store already
		// degraded. That is the one error such a write may return, and a
		// rejected trace is not sealed, so the snapshot must not hold it.
		accept := func(err error) bool {
			if err == nil {
				return true
			}
			if i < flushBatch || !errors.Is(err, store.ErrDegraded) {
				t.Fatalf("write %d: %v", i, err)
			}
			return false
		}
		if !accept(ing.Ingest(id, names...)) || !accept(ing.CloseTrace(id)) {
			continue
		}
		seq := make(seqdb.Sequence, len(names))
		for k, n := range names {
			seq[k] = dict.Intern(n)
		}
		want = append(want, seq)
	}

	// The seals above crossed FlushBatch, so a barrier already fired and hit
	// the fault; by the time the snapshot drains, the store is degraded —
	// and the snapshot must succeed anyway, from memory.
	v, err := ing.Snapshot()
	if err != nil {
		t.Fatalf("snapshot on a degraded store: %v", err)
	}
	if h := ing.Health(); h.State != store.DegradedReadOnly {
		t.Fatalf("health is %v after a permanent flush fault, want DegradedReadOnly (%+v)", h.State, h)
	}
	if v.DB.NumSequences() != len(want) {
		t.Fatalf("degraded snapshot has %d traces want %d", v.DB.NumSequences(), len(want))
	}
	for i, w := range want {
		g := v.DB.Sequences[i]
		if len(g) != len(w) {
			t.Fatalf("trace %d has %d events want %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("trace %d event %d is %d want %d", i, j, g[j], w[j])
			}
		}
	}

	// Writes are rejected at the door with the typed error.
	if err := ing.Ingest("y", "a"); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("ingest on a degraded store returned %v, want ErrDegraded", err)
	}
	if err := ing.CloseTrace("y"); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("seal on a degraded store returned %v, want ErrDegraded", err)
	}
	// And reads keep working after the rejections.
	if _, err := ing.Snapshot(); err != nil {
		t.Fatalf("second degraded snapshot: %v", err)
	}
	h := ing.Health()
	if !errors.Is(h.Err, syscall.EIO) || h.Cause == "" {
		t.Fatalf("degraded Health lost its cause: %+v", h)
	}
	_ = ing.Close()
	_ = st.Close()
}

// TestSnapshotNotDurableDuringTransientWindow: a transient fault window that
// outlives the retry budget must fail the snapshot (its barrier flush did not
// reach the OS, so the exposed state would not be recoverable) while leaving
// the store Healthy — and the snapshot must succeed, with full data, as soon
// as the window clears. No reopen, no degradation.
func TestSnapshotNotDurableDuringTransientWindow(t *testing.T) {
	// Ranks 1 and 2 on the shard path are the first two flush attempts
	// (retries disabled below, so each barrier burns exactly one rank).
	ffs := fsim.NewFaultFS(fsim.OS(),
		fsim.Rule{Op: fsim.OpWrite, Path: "shard-000", From: 1, To: 3, Err: syscall.ENOSPC})
	st, err := store.Open(store.Options{
		Dir: t.TempDir(), Shards: 1, FS: ffs,
		RetryAttempts: -1, RetryBackoff: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(Config{FlushBatch: 1 << 20, Store: st}) // barriers only via Snapshot
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Ingest("t1", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := ing.CloseTrace("t1"); err != nil {
		t.Fatal(err)
	}

	for attempt := 0; attempt < 2; attempt++ {
		if _, err := ing.Snapshot(); err == nil {
			t.Fatalf("snapshot %d inside the ENOSPC window succeeded, want not-durable rejection", attempt)
		} else if errors.Is(err, store.ErrDegraded) || errors.Is(err, store.ErrFailed) {
			t.Fatalf("snapshot %d rejected with %v, want a plain transient error", attempt, err)
		}
		if h := ing.Health(); h.State != store.Healthy {
			t.Fatalf("transient window degraded the store: %+v", h)
		}
	}

	// Window cleared: the same handle resumes, no reopen.
	v, err := ing.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after the window cleared: %v", err)
	}
	if v.DB.NumSequences() != 1 || len(v.DB.Sequences[0]) != 2 {
		t.Fatalf("post-window snapshot lost data: %d traces", v.DB.NumSequences())
	}
	h := ing.Health()
	if h.State != store.Healthy || h.Faults == 0 {
		t.Fatalf("want Healthy with fault count after a cleared window, got %+v", h)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedCommitsKeepTableExact: a rejected op leaves the open-trace
// table as if it had never been sent. A new trace whose opening Ingest is
// rejected has no entry, so its next Ingest opens it again, open record
// included; a rejected CloseTrace leaves its trace open under the same
// entry. A crash image taken after both retries recovers exactly the acked
// ops.
func TestRejectedCommitsKeepTableExact(t *testing.T) {
	// Ranks 1 and 2 on the shard path are the first two WAL flushes (retries
	// disabled below); with no barrier before the snapshot, both are flushes
	// the commits below trigger by filling the 64 KiB group-commit buffer.
	ffs := fsim.NewFaultFS(fsim.OS(),
		fsim.Rule{Op: fsim.OpWrite, Path: "shard-000", From: 1, To: 3, Err: syscall.ENOSPC})
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Shards: 1, FS: ffs, RetryAttempts: -1})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := Open(Config{FlushBatch: 1 << 20, Store: st}) // barriers only via Snapshot
	if err != nil {
		t.Fatal(err)
	}
	a, b := ing.Dict().Intern("a"), ing.Dict().Intern("b")
	sh := ing.shards[0]
	entry := func(id string) *openTrace {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.open[id]
	}

	// Opening "t" with a batch past the group-commit threshold flushes at
	// rank 1, which fails.
	if err := ing.IngestIDs("t", make([]seqdb.EventID, 1<<17)...); err == nil {
		t.Fatal("ingest over a failed flush succeeded")
	}
	if tr := entry("t"); tr != nil {
		t.Fatalf("rejected new trace left an entry %+v", tr)
	}
	if err := ing.IngestIDs("t", a, b); err != nil {
		t.Fatal(err)
	}
	opened := entry("t")
	if opened == nil {
		t.Fatal("no entry for t after its ingest")
	}

	// Fill the buffer to within one seal record (10 bytes) of the 64 KiB
	// threshold: t's open and events frames take 24 bytes, u's open frame
	// 11 and its events frame 13 plus one byte per event.
	const filler = 64<<10 - 48 - 5
	if err := ing.IngestIDs("u", make([]seqdb.EventID, filler)...); err != nil {
		t.Fatal(err)
	}
	if err := ing.CloseTrace("t"); err == nil {
		t.Fatal("CloseTrace did not cross the group-commit threshold into the failing flush; the filler above no longer fits the WAL framing")
	} else if errors.Is(err, store.ErrDegraded) {
		t.Fatalf("CloseTrace rejected with %v, want a transient fault", err)
	}
	if tr := entry("t"); tr != opened {
		t.Fatalf("rejected CloseTrace changed t's entry from %p to %p", opened, tr)
	}
	if err := ing.CloseTrace("t"); err != nil {
		t.Fatalf("CloseTrace retry: %v", err)
	}
	if tr := entry("t"); tr != nil {
		t.Fatalf("sealed trace left an entry %+v", tr)
	}
	v, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, "snapshot", v.DB, &seqdb.Database{Sequences: []seqdb.Sequence{{a, b}}})
	if h := ing.Health(); h.State != store.Healthy {
		t.Fatalf("transient faults degraded the store: %+v", h)
	}

	// Everything acked is flushed; a crash here must recover t sealed and u
	// open.
	crashDir := filepath.Join(t.TempDir(), "crash-image")
	copyStoreTree(t, dir, crashDir)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, crashDir, 0, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	requireSameDB(t, "recovered sealed", &seqdb.Database{Sequences: rec.Sequences}, v.DB)
	if len(rec.Open) != 1 || rec.Open[0].ID != "u" || len(rec.Open[0].Events) != filler {
		t.Fatalf("recovered %d open traces, want u with %d events", len(rec.Open), filler)
	}
}
