package store

import (
	"math/rand"
	"testing"

	"specmine/internal/seqdb"
)

func statsEqual(t *testing.T, label string, got, want *SegmentStats) {
	t.Helper()
	if got.NumDistinctEvents() != want.NumDistinctEvents() {
		t.Fatalf("%s: %d distinct events want %d", label, got.NumDistinctEvents(), want.NumDistinctEvents())
	}
	for i, e := range want.events {
		if got.events[i] != e || got.occ[i] != want.occ[i] || got.traces[i] != want.traces[i] {
			t.Fatalf("%s: entry %d = (%d,%d,%d) want (%d,%d,%d)", label, i,
				got.events[i], got.occ[i], got.traces[i], e, want.occ[i], want.traces[i])
		}
	}
}

func TestSegmentStatsCompute(t *testing.T) {
	seqs := []seqdb.Sequence{
		{0, 1, 2, 2, 2, 3},
		{},
		{5, 4, 3, 2, 1, 0},
		{7, 7, 7, 7},
		{300, 2, 300, 300},
	}
	s := computeSegmentStats(seqs)
	wantOcc := map[seqdb.EventID][2]int64{
		0: {2, 2}, 1: {2, 2}, 2: {5, 3}, 3: {2, 2}, 4: {1, 1}, 5: {1, 1}, 7: {4, 1}, 300: {3, 1},
	}
	if s.NumDistinctEvents() != len(wantOcc) {
		t.Fatalf("%d distinct events want %d", s.NumDistinctEvents(), len(wantOcc))
	}
	for e, w := range wantOcc {
		occ, tr := s.Count(e)
		if occ != w[0] || tr != w[1] {
			t.Fatalf("Count(%d) = %d/%d want %d/%d", e, occ, tr, w[0], w[1])
		}
	}
	if occ, tr := s.Count(6); occ != 0 || tr != 0 {
		t.Fatalf("Count(6) = %d/%d for an absent event", occ, tr)
	}
}

func TestSegmentStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for p := 0; p < 3; p++ {
		var seqs []seqdb.Sequence
		for i := 0; i < 10; i++ {
			seqs = append(seqs, randomTrace(rng, 50))
		}
		s := computeSegmentStats(seqs)
		back, err := parseSegmentStats(appendSegmentStats(nil, s))
		if err != nil {
			t.Fatal(err)
		}
		statsEqual(t, "round trip", back, s)
	}
}

// TestSegmentStatsCrashFuzz is the stats-footer crash-fuzz satellite:
// truncation at EVERY offset at or inside the stats block must leave the
// segment openable with stats absent — the lazy backfill path — never a
// failed open. Truncation inside the core must keep failing loudly.
func TestSegmentStatsCrashFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var seqs []seqdb.Sequence
	for i := 0; i < 25; i++ {
		seqs = append(seqs, randomTrace(rng, 40))
	}
	data := encodeSegment(seqs, 1, 0)
	coreLen := segmentCoreLen(data)
	if coreLen >= len(data) {
		t.Fatalf("fixture has no stats block (core %d, file %d)", coreLen, len(data))
	}

	for cut := coreLen; cut <= len(data); cut++ {
		v, err := parseSegment(data[:cut])
		if err != nil {
			t.Fatalf("cut %d (stats region): open failed: %v", cut, err)
		}
		wantStats := cut == len(data)
		if (v.stats != nil) != wantStats {
			t.Fatalf("cut %d: stats present=%v want %v", cut, v.stats != nil, wantStats)
		}
		got, err := v.decodeAll()
		if err != nil {
			t.Fatalf("cut %d: decode: %v", cut, err)
		}
		sequencesEqual(t, "stats-cut decode", got, seqs)
		// The backfill path must reproduce the sealed stats exactly.
		s, err := v.ensureStats()
		if err != nil {
			t.Fatalf("cut %d: backfill: %v", cut, err)
		}
		statsEqual(t, "backfill", s, computeSegmentStats(seqs))
	}

	// Every byte flip inside the stats block: open succeeds, stats dropped
	// (the block CRC catches the damage) or — only for the length-neutral
	// header — never silently wrong.
	for off := coreLen; off < len(data); off++ {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x01
		v, err := parseSegment(corrupt)
		if err != nil {
			t.Fatalf("flip %d (stats region): open failed: %v", off, err)
		}
		if v.stats != nil {
			t.Fatalf("flip %d: corrupted stats block accepted", off)
		}
	}

	// Truncation inside the core stays a failed open.
	for _, cut := range []int{coreLen - 1, coreLen - segTrailerLen, coreLen / 2, len(segMagic) + 3} {
		if _, err := parseSegment(data[:cut]); err == nil {
			t.Fatalf("cut %d (core): torn segment went undetected", cut)
		}
	}
}
