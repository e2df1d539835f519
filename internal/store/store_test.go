package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"specmine/internal/fsim"
	"specmine/internal/obs"
	"specmine/internal/seqdb"
)

func openStore(t *testing.T, dir string, tweak func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Shards: 1}
	if tweak != nil {
		tweak(&opts)
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	return st
}

// traceLog commits to one shard log the way the streaming layer does: a
// trace gets the next WAL handle when it opens and keeps it until it seals.
// It starts from the shard's recovered open traces, which Open numbered
// 0..n-1.
type traceLog struct {
	*ShardLog
	handles map[string]uint64
	next    uint64
}

func logOf(st *Store, shard int) *traceLog {
	tl := &traceLog{ShardLog: st.Shard(shard), handles: map[string]uint64{}}
	for _, tr := range st.Recovered().Shards[shard].Open {
		tl.handles[tr.ID] = tr.Handle
		tl.next = max(tl.next, tr.Handle+1)
	}
	return tl
}

// handle returns id's handle and whether a commit of id opens the trace.
func (tl *traceLog) handle(id string) (h uint64, fresh bool) {
	if h, ok := tl.handles[id]; ok {
		return h, false
	}
	tl.next++
	return tl.next - 1, true
}

func (tl *traceLog) commitEvents(id string, evs seqdb.Sequence) error {
	h, fresh := tl.handle(id)
	err := tl.CommitEvents(id, h, fresh, evs, noSend)
	if err == nil && fresh {
		tl.handles[id] = h
	}
	return err
}

func (tl *traceLog) commitSeal(id string) error {
	h, fresh := tl.handle(id)
	err := tl.CommitSeal(id, h, fresh, noSend)
	if err == nil {
		delete(tl.handles, id)
	}
	return err
}

// openTrace is id's entry in a checkpoint's list of open traces.
func (tl *traceLog) openTrace(id string, evs seqdb.Sequence) OpenTrace {
	return OpenTrace{ID: id, Handle: tl.handles[id], Events: evs}
}

// writeSegment flushes the logs and rolls every sealed trace of seqs (the
// shard's full sealed list, in seal order) not yet in a segment into a new
// segment file: a barrier's publish without the SegmentBytes threshold, so
// tests control segment boundaries.
func writeSegment(sl *traceLog, seqs []seqdb.Sequence) error {
	if err := sl.Flush(); err != nil {
		return err
	}
	return sl.writeSegmentTail(seqs[sl.covered:])
}

// internEvents gives the store's dictionary n event names and returns their
// ids (0..n-1 on a fresh store).
func internEvents(t *testing.T, st *Store, n int) []seqdb.EventID {
	t.Helper()
	ids := make([]seqdb.EventID, n)
	for i := range ids {
		ids[i] = st.Dict().Intern(eventName(i))
	}
	return ids
}

func eventName(i int) string { return "ev" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func noSend() {}

func randomTrace(rng *rand.Rand, alphabet int) seqdb.Sequence {
	s := make(seqdb.Sequence, 1+rng.Intn(20))
	for j := range s {
		if j > 0 && rng.Intn(4) == 0 {
			s[j] = s[j-1]
		} else {
			s[j] = seqdb.EventID(rng.Intn(alphabet))
		}
	}
	return s
}

func sequencesEqual(t *testing.T, label string, got, want []seqdb.Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sequences want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: sequence %d has %d events want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: sequence %d event %d is %d want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestSegmentEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seqs []seqdb.Sequence
	seqs = append(seqs, seqdb.Sequence{}) // empty trace is legal
	for i := 0; i < 40; i++ {
		seqs = append(seqs, randomTrace(rng, 30))
	}
	data := encodeSegment(seqs, 3, 17)
	v, err := parseSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.shard != 3 || v.from != 17 || v.numTraces() != len(seqs) {
		t.Fatalf("parsed shard=%d from=%d traces=%d", v.shard, v.from, v.numTraces())
	}
	all, err := v.decodeAll()
	if err != nil {
		t.Fatal(err)
	}
	sequencesEqual(t, "decodeAll", all, seqs)
	// Random access through the footer offsets, no full decode.
	for _, i := range []int{0, 1, len(seqs) / 2, len(seqs) - 1} {
		s, err := v.trace(i)
		if err != nil {
			t.Fatal(err)
		}
		sequencesEqual(t, "trace()", []seqdb.Sequence{s}, []seqdb.Sequence{seqs[i]})
	}
	// Any single flipped byte inside the core (magic, header, body, footer,
	// trailer) must fail the open.
	coreLen := segmentCoreLen(data)
	for _, off := range []int{0, 9, 14, coreLen / 2, coreLen - 25, coreLen - 3} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x40
		if _, err := parseSegment(corrupt); err == nil {
			t.Fatalf("core corruption at byte %d went undetected", off)
		}
	}
	// A flipped byte in the advisory stats block must NOT fail the open — the
	// segment comes back with stats absent and identical traces.
	for _, off := range []int{coreLen, (coreLen + len(data)) / 2, len(data) - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x40
		v2, err := parseSegment(corrupt)
		if err != nil {
			t.Fatalf("stats corruption at byte %d failed the open: %v", off, err)
		}
		if v2.stats != nil {
			t.Fatalf("stats corruption at byte %d went undetected", off)
		}
		got, err := v2.decodeAll()
		if err != nil {
			t.Fatal(err)
		}
		sequencesEqual(t, "stats-corrupt decodeAll", got, seqs)
	}
	// Truncation inside the stats block: still openable, stats absent.
	if v2, err := parseSegment(data[:len(data)-1]); err != nil || v2.stats != nil {
		t.Fatalf("stats-truncated segment: err=%v stats=%v", err, v2.stats != nil)
	}
	// Truncation into the core: detected as torn.
	if _, err := parseSegment(data[:coreLen-1]); err == nil {
		t.Fatal("core-truncated segment went undetected")
	}
}

// segmentCoreLen returns the length of a v2 segment's core (everything up to
// and including the trailer), read from the fixed header.
func segmentCoreLen(data []byte) int {
	bodyLen := int(binary.LittleEndian.Uint32(data[len(segMagic):]))
	footerLen := int(binary.LittleEndian.Uint32(data[len(segMagic)+4:]))
	return len(segMagic) + segHeaderLen + bodyLen + footerLen + segTrailerLen
}

// TestStoreRoundTrip: traces logged through the ShardLog — some sealed, some
// left open, some rolled into segments — come back exactly after a reopen.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 12)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(9))

	var sealed []seqdb.Sequence
	for i := 0; i < 10; i++ {
		id := "t-" + string(rune('a'+i))
		tr := randomTrace(rng, 12)
		// Deliver in two chunks to exercise events-append on an open handle.
		mid := len(tr) / 2
		if err := sl.commitEvents(id, tr[:mid]); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitEvents(id, tr[mid:]); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, tr)
		if i == 4 {
			// Barrier mid-run: the first five traces go to a segment.
			if err := writeSegment(sl, sealed); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two traces left open, one of them empty-by-now.
	openA := randomTrace(rng, 12)
	if err := sl.commitEvents("open-a", openA); err != nil {
		t.Fatal(err)
	}
	if err := sl.commitEvents("open-b", nil); err != nil {
		t.Fatal(err)
	}
	// An empty sealed trace via CommitSeal on an unknown id.
	if err := sl.commitSeal("ghost"); err != nil {
		t.Fatal(err)
	}
	sealed = append(sealed, seqdb.Sequence{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	sequencesEqual(t, "recovered sealed", rec.Sequences, sealed)
	if len(rec.Open) != 2 {
		t.Fatalf("recovered %d open traces want 2", len(rec.Open))
	}
	if rec.Open[0].ID != "open-a" || rec.Open[1].ID != "open-b" {
		t.Fatalf("open ids %q, %q", rec.Open[0].ID, rec.Open[1].ID)
	}
	sequencesEqual(t, "open-a", []seqdb.Sequence{rec.Open[0].Events}, []seqdb.Sequence{openA})
	if len(rec.Open[1].Events) != 0 {
		t.Fatalf("open-b has %d events want 0", len(rec.Open[1].Events))
	}
	if st2.Dict().Size() != 12 {
		t.Fatalf("dictionary recovered %d names want 12", st2.Dict().Size())
	}
	for i := 0; i < 12; i++ {
		if st2.Dict().Lookup(eventName(i)) != seqdb.EventID(i) {
			t.Fatalf("dictionary id for %q moved to %d", eventName(i), st2.Dict().Lookup(eventName(i)))
		}
	}
}

// TestRecoveredDatabaseMatchesSealed: the database assembled from a recovered
// store — several segments plus a WAL tail — holds exactly the sealed
// sequences, in seal order.
func TestRecoveredDatabaseMatchesSealed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 20)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(10))
	var sealed []seqdb.Sequence
	for i := 0; i < 30; i++ {
		tr := randomTrace(rng, 20)
		id := "tr-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := sl.commitEvents(id, tr); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, tr)
		if i%7 == 6 {
			if err := writeSegment(sl, sealed); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, nil)
	defer st2.Close()
	db := st2.Recovered().Database(st2.Dict())
	sequencesEqual(t, "recovered database", db.Sequences, sealed)
}

// TestWALRotation drives the rotation protocol by hand (the way the shard
// goroutine does at a barrier) and checks that state survives it, that the
// old generation is gone, and that open traces carry over.
func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, func(o *Options) { o.WALRotateBytes = 1 }) // rotate at every barrier
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(11))

	var sealed []seqdb.Sequence
	open := map[string]seqdb.Sequence{}
	for round := 0; round < 5; round++ {
		// Each round: extend a couple of open traces, seal one, then barrier
		// with rotation.
		for k := 0; k < 2; k++ {
			id := "keep-" + string(rune('a'+(round+k)%3))
			chunk := randomTrace(rng, 10)
			if err := sl.commitEvents(id, chunk); err != nil {
				t.Fatal(err)
			}
			open[id] = append(open[id], chunk...)
		}
		sealID := "seal-" + string(rune('a'+round))
		tr := randomTrace(rng, 10)
		if err := sl.commitEvents(sealID, tr); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(sealID); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, tr)

		if round == 0 && !sl.RotateDue() {
			t.Fatal("rotation not requested despite 1-byte budget")
		}
		if !sl.TryLock() {
			t.Fatal("TryLock failed with no contention")
		}
		if err := sl.FlushLocked(); err != nil {
			t.Fatal(err)
		}
		var opens []OpenTrace
		for id, evs := range open {
			opens = append(opens, sl.openTrace(id, evs))
		}
		if err := sl.CheckpointLocked(sealed, len(sealed), opens); err != nil {
			t.Fatal(err)
		}
		sl.Unlock()
	}
	// The rotation threshold adapts: right after a rotation whose re-logged
	// open set exceeds the configured budget, another rotation must NOT be
	// due (a fixed threshold would demand one per operation, rewriting the
	// whole open set each time) — it becomes due again once the WAL has
	// grown past double the fresh generation's size.
	if sl.RotateDue() {
		t.Fatalf("rotation due immediately after rotating (walSize %d, threshold %d)", sl.walSize.Load(), sl.rotateAt.Load())
	}
	for !sl.RotateDue() {
		chunk := randomTrace(rng, 10)
		if err := sl.commitEvents("keep-a", chunk); err != nil {
			t.Fatal(err)
		}
		open["keep-a"] = append(open["keep-a"], chunk...)
	}

	// Exactly one WAL generation file must remain.
	files, err := filepath.Glob(filepath.Join(dir, "shard-000", "*.wal"))
	if err != nil || len(files) != 1 {
		t.Fatalf("WAL files after rotations: %v (err %v)", files, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	sequencesEqual(t, "sealed after rotations", rec.Sequences, sealed)
	if len(rec.Open) != len(open) {
		t.Fatalf("recovered %d open traces want %d", len(rec.Open), len(open))
	}
	for _, tr := range rec.Open {
		sequencesEqual(t, "open "+tr.ID, []seqdb.Sequence{tr.Events}, []seqdb.Sequence{open[tr.ID]})
	}
}

// TestCommitsFramedAcrossRotation: a trace keeps its WAL handle from open
// to seal, and a rotation re-logs each open trace under its own handle, so
// records framed against one generation are valid in the next. An events
// commit opening a new trace and a seal of a re-logged one are framed before
// CheckpointLocked and appended after it byte for byte, and recovery sees
// both exactly.
func TestCommitsFramedAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 6)
	sl := logOf(st, 0)
	// Handles: "a" 0, sealed before the rotation; "kept" 1, re-logged by it;
	// "fresh" 2, opened across it.
	if err := sl.commitEvents("a", seqdb.Sequence{5}); err != nil {
		t.Fatal(err)
	}
	if err := sl.commitEvents("kept", seqdb.Sequence{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := sl.commitSeal("a"); err != nil {
		t.Fatal(err)
	}
	fh, fresh := sl.handle("fresh")
	kh, _ := sl.handle("kept")
	framed := frameCommit(nil, "fresh", fh, fresh, seqdb.Sequence{2, 3}, false)
	framed = frameCommit(framed, "kept", kh, false, nil, true)

	if !sl.TryLock() {
		t.Fatal("TryLock failed with no contention")
	}
	if err := sl.FlushLocked(); err != nil {
		t.Fatal(err)
	}
	if err := sl.CheckpointLocked([]seqdb.Sequence{{5}}, 1, []OpenTrace{sl.openTrace("kept", seqdb.Sequence{0, 1})}); err != nil {
		t.Fatal(err)
	}
	gen := sl.gen
	sl.Unlock()
	if err := sl.appendCommit(framed, noSend); err != nil {
		t.Fatal(err)
	}
	if sl.gen != gen || string(sl.wal.buf) != string(framed) {
		t.Fatalf("generation %d buffers %x, want the pre-framed %x in generation %d", sl.gen, sl.wal.buf, framed, gen)
	}
	if err := sl.CommitEvents("fresh", fh, false, seqdb.Sequence{4}, noSend); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	sequencesEqual(t, "sealed across rotation", rec.Sequences, []seqdb.Sequence{{5}, {0, 1}})
	if len(rec.Open) != 1 || rec.Open[0].ID != "fresh" || rec.Open[0].Handle != 0 {
		t.Fatalf("recovered open traces %+v want only fresh, renumbered to handle 0", rec.Open)
	}
	sequencesEqual(t, "fresh across rotation", []seqdb.Sequence{rec.Open[0].Events}, []seqdb.Sequence{{2, 3, 4}})
}

// TestCommitAcrossRotationRollsBackOnFlushFailure: a commit framed before a
// rotation and appended after it, whose group-commit flush then fails, is
// rejected like any other: its records leave the buffer and it is never
// handed on, so the next commit of the same id succeeds and recovery sees
// exactly the acked ops. What the caller's open-trace table does with a
// rejected op is pinned by the streaming layer's TestRejectedCommitsKeepTableExact.
func TestCommitAcrossRotationRollsBackOnFlushFailure(t *testing.T) {
	for _, seal := range []bool{false, true} {
		name := "events"
		if seal {
			name = "seal"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// Write 0 on the second generation is its creation; write 1, its
			// first group-commit flush, fails once, with no retry.
			st, _ := openFaultStore(t, dir,
				[]fsim.Rule{{Op: fsim.OpWrite, Path: walName(2), From: 1, Err: syscall.ENOSPC}},
				func(o *Options) { o.RetryAttempts = -1 })
			internEvents(t, st, 6)
			sl := logOf(st, 0)
			if sl.gen != 1 {
				t.Fatalf("fresh store opened WAL generation %d, the fault targets the one after 1", sl.gen)
			}
			if err := sl.commitEvents("a", seqdb.Sequence{5}); err != nil {
				t.Fatal(err)
			}
			if err := sl.commitSeal("a"); err != nil {
				t.Fatal(err)
			}
			if err := sl.commitEvents("kept", seqdb.Sequence{0, 1}); err != nil {
				t.Fatal(err)
			}

			id := "fresh"
			if seal {
				id = "kept"
			}
			h, fresh := sl.handle(id)
			// An events commit big enough to trigger the group-commit flush
			// on its own, or a seal.
			framed := frameCommit(nil, id, h, fresh, make(seqdb.Sequence, walFlushThreshold), false)
			if seal {
				framed = frameCommit(nil, id, h, fresh, nil, true)
			}
			if !sl.TryLock() {
				t.Fatal("TryLock failed with no contention")
			}
			if err := sl.FlushLocked(); err != nil {
				t.Fatal(err)
			}
			if err := sl.CheckpointLocked([]seqdb.Sequence{{5}}, 1, []OpenTrace{sl.openTrace("kept", seqdb.Sequence{0, 1})}); err != nil {
				t.Fatal(err)
			}
			var filler seqdb.Sequence
			if seal {
				// A seal record is too small to trigger a flush, so acked
				// events of kept, framed as a commit frames them, fill the
				// new generation's buffer to just below the threshold.
				filler = make(seqdb.Sequence, walFlushThreshold-16)
				sl.wal.buf = frameCommit(sl.wal.buf, "kept", sl.handles["kept"], false, filler, false)
				sl.walSize.Store(sl.wal.pending())
				if n := len(sl.wal.buf); n >= walFlushThreshold || n+len(framed) < walFlushThreshold {
					t.Fatalf("filler leaves %d buffered bytes; the seal's %d must cross %d", n, len(framed), walFlushThreshold)
				}
			}
			mark := len(sl.wal.buf)
			sl.Unlock()

			sent := false
			if err := sl.appendCommit(framed, func() { sent = true }); err == nil {
				t.Fatal("commit succeeded over a failed flush")
			}
			if sent {
				t.Fatal("rejected operation was handed to the shard")
			}
			if len(sl.wal.buf) != mark {
				t.Fatalf("buffer holds %d bytes after the rollback, %d before the commit", len(sl.wal.buf), mark)
			}
			healthAssert(t, st, Healthy)

			var err error
			if seal {
				err = sl.commitSeal(id)
			} else {
				err = sl.commitEvents(id, seqdb.Sequence{4})
			}
			if err != nil {
				t.Fatalf("next commit of %s: %v", id, err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2 := openStore(t, dir, nil)
			defer st2.Close()
			rec := st2.Recovered().Shards[0]
			wantSealed := []seqdb.Sequence{{5}}
			wantOpen := map[string]seqdb.Sequence{"kept": {0, 1}, "fresh": {4}}
			if seal {
				wantSealed = append(wantSealed, append(seqdb.Sequence{0, 1}, filler...))
				wantOpen = map[string]seqdb.Sequence{}
			}
			sequencesEqual(t, "sealed", rec.Sequences, wantSealed)
			if len(rec.Open) != len(wantOpen) {
				t.Fatalf("recovered open traces %+v want %v", rec.Open, wantOpen)
			}
			for _, tr := range rec.Open {
				sequencesEqual(t, "open "+tr.ID, []seqdb.Sequence{tr.Events}, []seqdb.Sequence{wantOpen[tr.ID]})
			}
		})
	}
}

// TestOpenDiscardsSubsumedSegments: a store written before segments were
// born at their final size can hold the files a crashed compaction left
// behind, each subsumed by the merged segment that replaced it. Open must
// recover the merged segment's traces once and remove the leftover.
func TestOpenDiscardsSubsumedSegments(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(12))

	var sealed []seqdb.Sequence
	for i := 0; i < 12; i++ {
		tr := randomTrace(rng, 10)
		id := "c-" + string(rune('a'+i))
		if err := sl.commitEvents(id, tr); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, tr)
	}
	if err := writeSegment(sl, sealed[:8]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A leftover [3, 5) beside the segment [0, 8) that subsumes it.
	leftover := encodeSegment(sealed[3:5], 0, 3)
	if _, err := writeSegmentFile(fsim.OS(), filepath.Join(dir, "shard-000"), 3, 5, leftover, false); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	sequencesEqual(t, "recovered beside a subsumed leftover", rec.Sequences, sealed)
	if _, err := os.Stat(filepath.Join(dir, "shard-000", segmentName(3, 5))); !os.IsNotExist(err) {
		t.Fatalf("subsumed leftover segment not removed (err %v)", err)
	}
	if spans := st2.SegmentSpans()[0]; len(spans) != 2 || spans[0] != [2]int{0, 8} || spans[1] != [2]int{8, 12} {
		t.Fatalf("segment spans after reopen %v, want [[0 8] [8 12]]", spans)
	}
}

// TestTornSegmentFallsBackToWAL: segments are written directly (no rename),
// so a crash can tear the newest one. Recovery must discard it and recover
// every trace from the WAL, which is only retired after a completed rotation.
func TestTornSegmentFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(13))
	var sealed []seqdb.Sequence
	for i := 0; i < 8; i++ {
		tr := randomTrace(rng, 10)
		id := "torn-" + string(rune('a'+i))
		if err := sl.commitEvents(id, tr); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, tr)
	}
	if err := writeSegment(sl, sealed[:5]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the segment: chop into its trailer. (Cutting only the trailing
	// stats block would NOT be a tear — stats are advisory.)
	segPath := filepath.Join(dir, "shard-000", segmentName(0, 5))
	img, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, int64(segmentCoreLen(img)-7)); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	sequencesEqual(t, "recovered past torn segment", rec.Sequences, sealed)
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("torn segment not discarded (err %v)", err)
	}
}

// TestShardCountIsFixed: reopening with a different shard count must fail —
// the trace partitioning is baked into the files.
func TestShardCountIsFixed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, func(o *Options) { o.Shards = 3 })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 5}); err == nil {
		t.Fatal("shard count change accepted")
	}
	st2, err := Open(Options{Dir: dir}) // 0 = use the manifest
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NumShards() != 3 {
		t.Fatalf("NumShards %d want 3", st2.NumShards())
	}
}

// TestFlushFailureRejectsAndRollsBack: when the group-commit flush fails,
// the operation must be rejected AND its records rolled back from the
// buffer — a later retry (Close flushes unconditionally) must never deliver
// a record whose producer was told it failed, or recovery would replay an
// unacknowledged operation.
func TestFlushFailureRejectsAndRollsBack(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 4)
	sl := logOf(st, 0)
	// Ingest one good trace, flushed to disk.
	if err := sl.commitEvents("good", seqdb.Sequence{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := sl.commitSeal("good"); err != nil {
		t.Fatal(err)
	}
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Break the WAL file descriptor, then append a record big enough to
	// trip the size-triggered flush — it must fail and roll back.
	sl.wal.f.Close()
	big := make(seqdb.Sequence, walFlushThreshold)
	sent := false
	h, fresh := sl.handle("doomed")
	if err := sl.CommitEvents("doomed", h, fresh, big, func() { sent = true }); err == nil {
		t.Fatal("append over a broken file succeeded")
	}
	if sent {
		t.Fatal("operation was handed to the shard despite the failed flush")
	}
	if len(sl.wal.buf) != 0 {
		t.Fatalf("%d rejected bytes left in the buffer for a later retry", len(sl.wal.buf))
	}
	if st.Err() == nil {
		t.Fatal("store did not go sticky-failed")
	}
	if err := sl.commitEvents("after", seqdb.Sequence{0}); err == nil {
		t.Fatal("append accepted after the store failed")
	}
	_ = st.Close() // errors (fd closed); recovery below is what matters

	st2 := openStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered().Shards[0]
	sequencesEqual(t, "acked prefix", rec.Sequences, []seqdb.Sequence{{0, 1, 2}})
	if len(rec.Open) != 0 {
		t.Fatalf("rejected trace resurrected: %+v", rec.Open)
	}
}

// TestOpenIsExclusive: a second Open of a live store directory must be
// refused — Open canonicalises, so a concurrent opener (core.Recover
// included) would unlink the WAL generation the running store appends to.
func TestOpenIsExclusive(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open of a live store succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDictionaryPersistsAcrossReopen: ids assigned before a restart stay
// stable after it, and fresh interning continues from the next free id.
func TestDictionaryPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	a := st.Dict().Intern("alpha")
	b := st.Dict().Intern("beta")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, nil)
	defer st2.Close()
	if st2.Dict().Lookup("alpha") != a || st2.Dict().Lookup("beta") != b {
		t.Fatal("ids moved across reopen")
	}
	if g := st2.Dict().Intern("gamma"); g != b+1 {
		t.Fatalf("fresh intern got id %d want %d", g, b+1)
	}
}

// liveSegments maps each segment file of shard 0 to its size.
func liveSegments(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-000", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = fi.Size()
	}
	return out
}

// TestSegmentBytesWrittenCountsEveryFile: store.segment_bytes_written sums
// the size of every segment file written, which, since no segment is ever
// rewritten or removed, equals the live segment bytes whichever path wrote
// them: a test's direct roll, a barrier's publish or a checkpoint.
func TestSegmentBytesWrittenCountsEveryFile(t *testing.T) {
	// checkWritten compares the counter with the live segment files and
	// returns how many there are.
	checkWritten := func(t *testing.T, dir string, reg *obs.Registry) int {
		t.Helper()
		var live int64
		segs := liveSegments(t, dir)
		for _, size := range segs {
			live += size
		}
		if written := reg.Counter("store.segment_bytes_written").Value(); written != live {
			t.Fatalf("store.segment_bytes_written = %d, live segment bytes %d", written, live)
		}
		return len(segs)
	}

	t.Run("no merges", func(t *testing.T) {
		dir := t.TempDir()
		reg := obs.NewRegistry()
		st := openStore(t, dir, func(o *Options) { o.Obs = reg })
		defer st.Close()
		internEvents(t, st, 10)
		sl := logOf(st, 0)
		rng := rand.New(rand.NewSource(15))
		var sealed []seqdb.Sequence
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("b%03d", i)
			tr := randomTrace(rng, 10)
			if err := sl.commitEvents(id, tr); err != nil {
				t.Fatal(err)
			}
			if err := sl.commitSeal(id); err != nil {
				t.Fatal(err)
			}
			sealed = append(sealed, tr)
			if err := writeSegment(sl, sealed); err != nil {
				t.Fatal(err)
			}
		}
		if n := checkWritten(t, dir, reg); n != len(sealed) {
			t.Fatalf("%d live segments for %d one-trace writes", n, len(sealed))
		}
	})

	t.Run("publish and checkpoint", func(t *testing.T) {
		evs := seqdb.Sequence{0, 1, 2}
		perTrace := int64(tailBytesPerTrace + tailBytesPerEvent*len(evs))
		dir := t.TempDir()
		reg := obs.NewRegistry()
		st := openStore(t, dir, func(o *Options) { o.SegmentBytes = 3 * perTrace; o.Obs = reg })
		defer st.Close()
		internEvents(t, st, len(evs))
		sl := logOf(st, 0)
		var sealed []seqdb.Sequence
		// Seven barriers publish [0, 3) and [3, 6) and leave one trace in
		// the tail for the checkpoint.
		sealAndPublish(t, sl, &sealed, 7, evs)
		if n := checkWritten(t, dir, reg); n != 2 {
			t.Fatalf("%d live segments after 7 barriers at 3 traces a segment, want 2", n)
		}
		if !sl.TryLock() {
			t.Fatal("TryLock failed with no producers")
		}
		err := sl.CheckpointLocked(sealed, len(sealed), nil)
		sl.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if n := checkWritten(t, dir, reg); n != 3 {
			t.Fatalf("%d live segments after the checkpoint, want 3", n)
		}
	})
}

// TestOpenGenerationIsNotARotation: the WAL generation Open starts while
// canonicalising is not counted in store.wal_rotations, though its tail
// segment counts in store.segments_published like every other; a checkpoint
// on the live log counts as one rotation.
func TestOpenGenerationIsNotARotation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := openStore(t, dir, func(o *Options) { o.Obs = reg })
	internEvents(t, st, 4)
	sl := logOf(st, 0)
	if err := sl.commitEvents("a", seqdb.Sequence{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := sl.commitSeal("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rotations, published := reg.Counter("store.wal_rotations"), reg.Counter("store.segments_published")
	if rotations.Value() != 0 || published.Value() != 0 {
		t.Fatalf("before reopen: %d rotations, %d segments published; want 0, 0", rotations.Value(), published.Value())
	}

	st2 := openStore(t, dir, func(o *Options) { o.Obs = reg })
	defer st2.Close()
	if rotations.Value() != 0 || published.Value() != 1 {
		t.Fatalf("after reopen: %d rotations, %d segments published; want 0, 1", rotations.Value(), published.Value())
	}
	sl2 := st2.Shard(0)
	if !sl2.TryLock() {
		t.Fatal("TryLock failed with no producers")
	}
	sealed := st2.Recovered().Shards[0].Sequences
	err := sl2.CheckpointLocked(sealed, len(sealed), nil)
	sl2.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if rotations.Value() != 1 {
		t.Fatalf("after a live checkpoint: %d rotations, want 1", rotations.Value())
	}
}

// sealAndPublish commits n traces of evs into sl, each followed by a
// barrier: a WAL flush, then PublishSegment over the shard's sealed list.
func sealAndPublish(t *testing.T, sl *traceLog, sealed *[]seqdb.Sequence, n int, evs seqdb.Sequence) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%04d", len(*sealed))
		if err := sl.commitEvents(id, evs); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		*sealed = append(*sealed, evs)
		if err := sl.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sl.PublishSegment(*sealed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPublishSegmentWaitsForSegmentBytes: a barrier leaves the sealed tail
// in the WAL until its estimated size reaches SegmentBytes, then writes the
// whole tail as one segment; a checkpoint writes whatever tail remains.
func TestPublishSegmentWaitsForSegmentBytes(t *testing.T) {
	evs := seqdb.Sequence{0, 1, 2, 3}
	perTrace := int64(tailBytesPerTrace + tailBytesPerEvent*len(evs))
	dir := t.TempDir()
	st := openStore(t, dir, func(o *Options) { o.SegmentBytes = 5 * perTrace })
	internEvents(t, st, len(evs))
	sl := logOf(st, 0)
	var sealed []seqdb.Sequence

	sealAndPublish(t, sl, &sealed, 4, evs)
	if spans := st.SegmentSpans()[0]; len(spans) != 0 {
		t.Fatalf("segments %v after 4 of the 5 traces SegmentBytes asks for", spans)
	}
	sealAndPublish(t, sl, &sealed, 7, evs)
	if spans := st.SegmentSpans()[0]; len(spans) != 2 || spans[0] != [2]int{0, 5} || spans[1] != [2]int{5, 10} {
		t.Fatalf("segments %v after 11 seals, want [[0 5] [5 10]]", spans)
	}
	if !sl.TryLock() {
		t.Fatal("TryLock failed with no producers")
	}
	err := sl.CheckpointLocked(sealed, len(sealed), nil)
	sl.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if spans := st.SegmentSpans()[0]; len(spans) != 3 || spans[2] != [2]int{10, 11} {
		t.Fatalf("segments %v after the checkpoint, want the one-trace tail [10 11] last", spans)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, nil)
	defer st2.Close()
	sequencesEqual(t, "recovered", st2.Recovered().Shards[0].Sequences, sealed)
}

// TestCatalogOutlivesLaterPublishes: a catalog taken during ingest stays
// readable however many segments the store writes after it, since no
// segment is ever merged away or removed while the store is open. Every old
// entry loads, the store stays healthy and ingest goes on.
func TestCatalogOutlivesLaterPublishes(t *testing.T) {
	st := openStore(t, t.TempDir(), func(o *Options) { o.SegmentBytes = 1; o.WALRotateBytes = 512 })
	defer st.Close()
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(21))
	var sealed []seqdb.Sequence
	for i := 0; i < 12; i++ {
		sealAndPublish(t, sl, &sealed, 1, randomTrace(rng, 10))
	}
	old := st.Segments()
	if len(old) != 12 {
		t.Fatalf("%d catalog entries after 12 publishes at SegmentBytes 1", len(old))
	}
	checkpoints := 0
	for i := 0; i < 40; i++ {
		sealAndPublish(t, sl, &sealed, 1, randomTrace(rng, 10))
		if sl.RotateDue() {
			if !sl.TryLock() {
				t.Fatal("TryLock failed with no producers")
			}
			err := sl.CheckpointLocked(sealed, len(sealed), nil)
			sl.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			checkpoints++
		}
	}
	if checkpoints == 0 {
		t.Fatal("no WAL rotation while ingesting past the catalog")
	}
	for _, meta := range old {
		seqs, _, err := st.LoadSegment(meta)
		if err != nil {
			t.Fatalf("loading old catalog entry [%d,%d): %v", meta.From, meta.To, err)
		}
		sequencesEqual(t, fmt.Sprintf("old entry [%d,%d)", meta.From, meta.To), seqs, sealed[meta.From:meta.To])
	}
	if err := st.Err(); err != nil {
		t.Fatalf("store unhealthy after reading an old catalog: %v", err)
	}
	sealAndPublish(t, sl, &sealed, 1, randomTrace(rng, 10))
}

// TestStoreRunsNoGoroutine: a store does all its work on its callers'
// goroutines, so opening, writing through and closing one leaves the
// process's goroutine count where it was.
func TestStoreRunsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	st := openStore(t, t.TempDir(), func(o *Options) { o.SegmentBytes = 1 })
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines with the store open, %d before", n, before)
	}
	internEvents(t, st, 4)
	var sealed []seqdb.Sequence
	sealAndPublish(t, logOf(st, 0), &sealed, 3, seqdb.Sequence{0, 1})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Close, %d before Open", n, before)
	}
}
