package stream

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
)

// WAL record types, as the store frames them (see store/wal.go).
const (
	walHeader byte = 1
	walOpen   byte = 3
	walEvents byte = 4
	walSeal   byte = 5
	walCommit byte = 6
)

// walRecordTypes returns the record type of every frame in the shard's only
// WAL file. Frames are uint32 length | payload | uint32 CRC, the type being
// the payload's first byte; the files read here are whole, so no torn tail
// needs handling.
func walRecordTypes(t *testing.T, shardDir string) []byte {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(shardDir, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("%s: want exactly one WAL generation, got %v (%v)", shardDir, wals, err)
	}
	data, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	var types []byte
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		types = append(types, data[off+4])
		off += 8 + n
	}
	return types
}

// TestCleanCloseCheckpointsWAL: closing the ingester and the store leaves
// each shard's WAL holding only the header, a re-log of the open traces and
// the commit marker — the session's sealed history lives in segments — and a
// reopen returns exactly the sealed and open traces the ingester held. A
// crash image taken before the close (no checkpoint, the WAL full of seal
// records) recovers the same state by replay.
func TestCleanCloseCheckpointsWAL(t *testing.T) {
	w := tracesim.Workloads()["transaction"]
	const shards = 3
	type chunk struct {
		id     string
		events []string
		final  bool
	}
	var chunks []chunk
	if err := w.Stream(60, 5, 8, func(c tracesim.StreamChunk) error {
		chunks = append(chunks, chunk{id: c.TraceID, events: c.Events, final: c.Final})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Stop part-way, so several traces are still open at the close.
	chunks = chunks[:len(chunks)*2/3]

	dir := t.TempDir()
	st := openTestStore(t, dir, shards, nil)
	ing, err := Open(Config{FlushBatch: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	openEvents := map[string][]string{}
	for _, c := range chunks {
		if len(c.events) > 0 {
			if err := ing.Ingest(c.id, c.events...); err != nil {
				t.Fatal(err)
			}
			openEvents[c.id] = append(openEvents[c.id], c.events...)
		}
		if c.final {
			if err := ing.CloseTrace(c.id); err != nil {
				t.Fatal(err)
			}
			delete(openEvents, c.id)
		}
	}
	if len(openEvents) == 0 {
		t.Fatal("workload left no trace open; the test needs some")
	}
	snap, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	crashDir := filepath.Join(t.TempDir(), "crash-image")
	copyStoreTree(t, dir, crashDir)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sawSeal := false
	for i := 0; i < shards; i++ {
		shard := fmt.Sprintf("shard-%03d", i)
		types := walRecordTypes(t, filepath.Join(dir, shard))
		if len(types) < 2 || types[0] != walHeader || types[len(types)-1] != walCommit {
			t.Fatalf("%s: checkpointed WAL records %v: want header first and the commit marker last", shard, types)
		}
		for _, ty := range types[1 : len(types)-1] {
			if ty != walOpen && ty != walEvents {
				t.Fatalf("%s: checkpointed WAL records %v: want only open-trace records between header and marker", shard, types)
			}
		}
		sawSeal = sawSeal || slices.Contains(walRecordTypes(t, filepath.Join(crashDir, shard)), walSeal)
	}
	if !sawSeal {
		t.Fatal("crash image holds no seal record: it would not exercise replay")
	}

	for _, d := range []string{dir, crashDir} {
		st2 := openTestStore(t, d, 0, nil)
		rec := st2.Recovered()
		var open []string
		for si, sh := range rec.Shards {
			requireSameDB(t, fmt.Sprintf("%s shard %d", filepath.Base(d), si),
				&seqdb.Database{Sequences: sh.Sequences}, snap.ShardDBs[si])
			for _, tr := range sh.Open {
				names := make([]string, len(tr.Events))
				for k, ev := range tr.Events {
					names[k] = st2.Dict().Name(ev)
				}
				if want := openEvents[tr.ID]; !slices.Equal(names, want) {
					t.Fatalf("%s: open trace %s recovered %v want %v", d, tr.ID, names, want)
				}
				open = append(open, tr.ID)
			}
		}
		if len(open) != len(openEvents) {
			t.Fatalf("%s: recovered %d open traces (%s) want %d", d, len(open), strings.Join(open, ","), len(openEvents))
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
