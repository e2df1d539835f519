package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"specmine/internal/seqdb"
)

// Format-freeze tests. The byte layouts of segment files and WAL records are
// persistence contracts: stores written by one build must recover under every
// later build. These tests pin both formats against golden files in testdata;
// an encoder change that shifts a single byte fails them. Regenerate (only
// for a deliberate, version-bumped format change) with
//
//	SPECMINE_WRITE_GOLDEN=1 go test ./internal/store -run TestGolden
func goldenSegmentFixture() ([]seqdb.Sequence, []byte) {
	seqs := []seqdb.Sequence{
		{0, 1, 2, 2, 2, 3},
		{},
		{5, 4, 3, 2, 1, 0},
		{7, 7, 7, 7},
		{300, 2, 300, 300},
	}
	return seqs, encodeSegment(seqs, 2, 7)
}

func goldenWALFixture() []byte {
	var buf []byte
	for _, p := range [][]byte{
		encodeHeader(1, 3),
		encodeOpen(nil, 0, "trace-a"),
		encodeEvents(nil, 0, []seqdb.EventID{0, 1, 1, 2}),
		encodeOpen(nil, 1, "trace-b"),
		encodeEvents(nil, 1, []seqdb.EventID{3}),
		encodeSeal(nil, 0),
		encodeEvents(nil, 1, []seqdb.EventID{4, 4}),
	} {
		buf = appendFrame(buf, p)
	}
	return buf
}

func goldenCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("SPECMINE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with SPECMINE_WRITE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder output drifted from the frozen format (%d bytes vs %d golden). "+
			"If this is a deliberate format change, bump the format version and regenerate.",
			path, len(got), len(want))
	}
}

func TestGoldenSegmentFormat(t *testing.T) {
	seqs, data := goldenSegmentFixture()
	goldenCompare(t, filepath.Join("testdata", "segment-v2.golden"), data)

	// And the frozen bytes must still decode to the fixture, stats included.
	want, err := os.ReadFile(filepath.Join("testdata", "segment-v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseSegment(want)
	if err != nil {
		t.Fatal(err)
	}
	if v.shard != 2 || v.from != 7 {
		t.Fatalf("golden segment parsed shard=%d from=%d", v.shard, v.from)
	}
	got, err := v.decodeAll()
	if err != nil {
		t.Fatal(err)
	}
	sequencesEqual(t, "golden segment", got, seqs)
	if v.stats == nil {
		t.Fatal("golden v2 segment parsed without stats")
	}
	if occ, tr := v.stats.Count(2); occ != 5 || tr != 3 {
		t.Fatalf("golden stats Count(2) = %d/%d, want 5/3", occ, tr)
	}
}

// TestGoldenSegmentV1Compat: v1 files are a decode-only compatibility
// contract — the frozen first-generation golden must keep parsing (with stats
// absent, backfilled on demand) under every later build. The v1 golden is
// never regenerated; SPECMINE_WRITE_GOLDEN intentionally does not touch it.
func TestGoldenSegmentV1Compat(t *testing.T) {
	seqs, _ := goldenSegmentFixture()
	want, err := os.ReadFile(filepath.Join("testdata", "segment-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseSegment(want)
	if err != nil {
		t.Fatal(err)
	}
	if v.shard != 2 || v.from != 7 {
		t.Fatalf("v1 golden segment parsed shard=%d from=%d", v.shard, v.from)
	}
	if v.stats != nil {
		t.Fatal("v1 golden segment cannot carry stats")
	}
	got, err := v.decodeAll()
	if err != nil {
		t.Fatal(err)
	}
	sequencesEqual(t, "v1 golden segment", got, seqs)
	stats, err := v.ensureStats()
	if err != nil {
		t.Fatal(err)
	}
	if occ, tr := stats.Count(2); occ != 5 || tr != 3 {
		t.Fatalf("backfilled stats Count(2) = %d/%d, want 5/3", occ, tr)
	}
}

// TestGoldenSegmentStatsV1Compat: v2 segments whose stats block is version 1
// — written before the block dropped its event filter — are a decode-only
// compatibility contract like v1 files. The frozen golden must keep parsing
// with its stats read from the block, not recomputed from the body. It is
// never regenerated; SPECMINE_WRITE_GOLDEN intentionally does not touch it.
func TestGoldenSegmentStatsV1Compat(t *testing.T) {
	seqs, _ := goldenSegmentFixture()
	want, err := os.ReadFile(filepath.Join("testdata", "segment-v2-bloom.golden"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseSegment(want)
	if err != nil {
		t.Fatal(err)
	}
	if v.shard != 2 || v.from != 7 {
		t.Fatalf("stats-v1 golden segment parsed shard=%d from=%d", v.shard, v.from)
	}
	got, err := v.decodeAll()
	if err != nil {
		t.Fatal(err)
	}
	sequencesEqual(t, "stats-v1 golden segment", got, seqs)
	if v.stats == nil {
		t.Fatal("stats-v1 golden segment parsed without stats")
	}
	if occ, tr := v.stats.Count(2); occ != 5 || tr != 3 {
		t.Fatalf("stats-v1 golden Count(2) = %d/%d, want 5/3", occ, tr)
	}
	statsEqual(t, "stats-v1 golden", v.stats, computeSegmentStats(seqs))
	if s, err := v.ensureStats(); err != nil || s != v.stats {
		t.Fatalf("stats-v1 golden stats recomputed (err %v)", err)
	}
}

func TestGoldenWALFormat(t *testing.T) {
	data := goldenWALFixture()
	goldenCompare(t, filepath.Join("testdata", "wal-v1.golden"), data)

	want, err := os.ReadFile(filepath.Join("testdata", "wal-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the frozen bytes must reproduce the fixture's semantics:
	// sealedBase 3, one seal at ordinal 3 (trace-a), trace-b left open.
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName(1))
	if err := os.WriteFile(walPath, want, 0o644); err != nil {
		t.Fatal(err)
	}
	st := &Store{dict: seqdb.NewDictionary()}
	for i := 0; i < 8; i++ {
		st.dict.Intern(eventName(i))
	}
	sealed, open, err := st.replayShardWAL(want, walPath, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sequencesEqual(t, "golden wal sealed", sealed, []seqdb.Sequence{{0, 1, 1, 2}})
	if len(open) != 1 || open[0].ID != "trace-b" {
		t.Fatalf("golden wal open traces: %+v", open)
	}
	sequencesEqual(t, "golden wal open", []seqdb.Sequence{open[0].Events}, []seqdb.Sequence{{3, 4, 4}})
}
