package store

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"specmine/internal/seqdb"
)

// Crash-recovery fuzz (the PR's first satellite): ingest a randomized
// workload through the durable log, then truncate the WAL at every byte
// offset — including mid-record — reopen, and assert that the recovered
// Database and PositionIndex equal a fresh build over the surviving record
// prefix. No partial record may ever surface.

// ledgerRec mirrors, one-to-one, the WAL records the driver's operations
// emit; it is the test's independent model of record semantics.
type ledgerRec struct {
	kind   byte // recOpen, recEvents, recSeal
	id     string
	events []seqdb.EventID
}

// driveWorkload logs a deterministic randomized workload into shard 0 of st
// and returns the per-record ledger. sealBarrierAt, when >= 0, triggers one
// writeSegment barrier after that many seals (the with-segments scenario).
func driveWorkload(t *testing.T, st *Store, rng *rand.Rand, ops int, sealBarrierAt int) []ledgerRec {
	t.Helper()
	sl := logOf(st, 0)
	var ledger []ledgerRec
	open := map[string]bool{}
	var openIDs []string
	var sealed []seqdb.Sequence
	nextID := 0
	for i := 0; i < ops; i++ {
		switch {
		case len(openIDs) == 0 || rng.Intn(3) == 0: // open or extend a new trace
			id := "fz-" + string(rune('a'+nextID%26)) + string(rune('a'+nextID/26%26)) + string(rune('0'+nextID/676))
			nextID++
			evs := randomTrace(rng, 15)
			if err := sl.commitEvents(id, evs); err != nil {
				t.Fatal(err)
			}
			ledger = append(ledger, ledgerRec{kind: recOpen, id: id})
			ledger = append(ledger, ledgerRec{kind: recEvents, id: id, events: evs})
			open[id] = true
			openIDs = append(openIDs, id)
		case rng.Intn(2) == 0: // extend an existing open trace
			id := openIDs[rng.Intn(len(openIDs))]
			evs := randomTrace(rng, 15)
			if err := sl.commitEvents(id, evs); err != nil {
				t.Fatal(err)
			}
			ledger = append(ledger, ledgerRec{kind: recEvents, id: id, events: evs})
		default: // seal one
			k := rng.Intn(len(openIDs))
			id := openIDs[k]
			openIDs = append(openIDs[:k], openIDs[k+1:]...)
			delete(open, id)
			if err := sl.commitSeal(id); err != nil {
				t.Fatal(err)
			}
			ledger = append(ledger, ledgerRec{kind: recSeal, id: id})
			sealed = append(sealed, nil) // count only
			if sealBarrierAt >= 0 && len(sealed) == sealBarrierAt {
				// Reconstruct the sealed traces so far from the ledger to
				// hand writeSegment its input.
				segSeqs, _ := applyLedger(ledger)
				if err := writeSegment(sl, segSeqs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	return ledger
}

// applyLedger replays a ledger prefix in the model: sealed traces in seal
// order plus the still-open traces.
func applyLedger(ledger []ledgerRec) (sealed []seqdb.Sequence, open map[string]seqdb.Sequence) {
	open = map[string]seqdb.Sequence{}
	for _, r := range ledger {
		switch r.kind {
		case recOpen:
			open[r.id] = seqdb.Sequence{}
		case recEvents:
			open[r.id] = append(open[r.id], r.events...)
		case recSeal:
			sealed = append(sealed, open[r.id])
			delete(open, r.id)
		}
	}
	return sealed, open
}

// frameEnds returns the byte offset just past each intact frame of a WAL
// image, using only the framing layer (length prefix + checksum), never the
// record semantics the test is checking.
func frameEnds(data []byte) []int {
	var ends []int
	off := 0
	_, _ = scanFrames(data, func(p []byte) error {
		off += 8 + len(p)
		ends = append(ends, off)
		return nil
	})
	return ends
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copying store tree: %v", err)
	}
}

func TestCrashRecoveryFuzzWALOnly(t *testing.T) {
	runCrashRecoveryFuzz(t, -1, true)
}

func TestCrashRecoveryFuzzWithSegments(t *testing.T) {
	runCrashRecoveryFuzz(t, 5, false)
}

// runCrashRecoveryFuzz builds a durable run, then recovers from truncated
// copies. sealBarrierAt < 0 keeps everything in the WAL (pure prefix
// semantics); otherwise one segment barrier happens after that many seals and
// truncations below it exercise the conservative open-drop rule. everyByte
// selects exhaustive truncation offsets versus a randomized sample.
func runCrashRecoveryFuzz(t *testing.T, sealBarrierAt int, everyByte bool) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 15)
	rng := rand.New(rand.NewSource(1234))
	ledger := driveWorkload(t, st, rng, 60, sealBarrierAt)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	fullSealed, _ := applyLedger(ledger)
	coveredBySegments := 0
	if sealBarrierAt >= 0 {
		coveredBySegments = sealBarrierAt
	}

	walPath := filepath.Join(dir, "shard-000", walName(1))
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(walBytes)
	if len(ends) != len(ledger)+2 { // +2: generation header + commit marker
		t.Fatalf("WAL holds %d frames, ledger has %d records", len(ends), len(ledger))
	}

	var cuts []int
	if everyByte {
		for b := 0; b <= len(walBytes); b++ {
			cuts = append(cuts, b)
		}
	} else {
		cuts = append(cuts, 0, len(walBytes))
		for _, e := range ends {
			cuts = append(cuts, e, e-1)
		}
		for i := 0; i < 80; i++ {
			cuts = append(cuts, rng.Intn(len(walBytes)+1))
		}
	}

	for _, cut := range cuts {
		// Count the complete frames within the cut; frames 0 and 1 are the
		// generation header and commit marker.
		frames := 0
		for _, e := range ends {
			if e <= cut {
				frames++
			}
		}
		prefix := ledger[:max(frames-2, 0)]
		wantSealed, wantOpen := applyLedger(prefix)
		if len(wantSealed) < coveredBySegments {
			// Cut below the segment barrier: sealed state comes from the
			// segment (exact), open recovery is dropped.
			wantSealed = fullSealed[:coveredBySegments]
			wantOpen = map[string]seqdb.Sequence{}
		}

		crashDir := filepath.Join(t.TempDir(), "crash")
		copyTree(t, dir, crashDir)
		if err := os.Truncate(filepath.Join(crashDir, "shard-000", walName(1)), int64(cut)); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(Options{Dir: crashDir})
		if err != nil {
			t.Fatalf("cut %d: reopening: %v", cut, err)
		}
		rec := st2.Recovered().Shards[0]
		if len(rec.Sequences) != len(wantSealed) {
			t.Fatalf("cut %d: recovered %d sealed traces want %d", cut, len(rec.Sequences), len(wantSealed))
		}
		sequencesEqual(t, "cut sealed", rec.Sequences, wantSealed)
		if len(rec.Open) != len(wantOpen) {
			t.Fatalf("cut %d: recovered %d open traces want %d", cut, len(rec.Open), len(wantOpen))
		}
		for _, tr := range rec.Open {
			want, ok := wantOpen[tr.ID]
			if !ok {
				t.Fatalf("cut %d: unexpected open trace %q", cut, tr.ID)
			}
			sequencesEqual(t, "cut open "+tr.ID, []seqdb.Sequence{tr.Events}, []seqdb.Sequence{want})
		}
		// The database assembled from the recovered store holds exactly the
		// surviving prefix.
		db := st2.Recovered().Database(st2.Dict())
		sequencesEqual(t, "cut database", db.Sequences, wantSealed)
		if err := st2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestRecoveryIsIdempotent: opening, crashing nothing, and opening again —
// repeatedly — must keep yielding the identical state (the -count=2 CI run
// leans on this).
func TestRecoveryIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 15)
	rng := rand.New(rand.NewSource(77))
	ledger := driveWorkload(t, st, rng, 40, 4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wantSealed, wantOpen := applyLedger(ledger)
	for round := 0; round < 3; round++ {
		st2 := openStore(t, dir, nil)
		rec := st2.Recovered().Shards[0]
		sequencesEqual(t, "idempotent sealed", rec.Sequences, wantSealed)
		if len(rec.Open) != len(wantOpen) {
			t.Fatalf("round %d: %d open want %d", round, len(rec.Open), len(wantOpen))
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
