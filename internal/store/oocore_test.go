package store

import (
	"math/rand"
	"os"
	"testing"

	"specmine/internal/seqdb"
)

// TestOutOfCoreOpen: opening with Options.OutOfCore materialises no sealed
// traces, still canonicalises the WAL tail with correct seal ordinals, keeps
// every trace reachable through the segment catalog, and refuses ingesters.
// A subsequent eager open of the same directory must recover the identical
// database, proving the lazy open left the on-disk state exactly as an eager
// open would have.
func TestOutOfCoreOpen(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 15)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(21))

	var sealed []seqdb.Sequence
	for i := 0; i < 12; i++ {
		tr := randomTrace(rng, 15)
		id := "t-" + string(rune('a'+i))
		if err := sl.commitEvents(id, tr); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, tr)
		if i == 4 {
			// First five traces into a segment; the other seven stay in the
			// WAL, so the lazy open must canonicalise a tail it never
			// decoded the chain for.
			if err := writeSegment(sl, sealed); err != nil {
				t.Fatal(err)
			}
		}
	}
	openTr := randomTrace(rng, 15)
	if err := sl.commitEvents("still-open", openTr); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	lazy := openStore(t, dir, func(o *Options) { o.OutOfCore = true })
	if n := lazy.Recovered().NumSealed(); n != 0 {
		t.Fatalf("out-of-core open materialised %d sealed traces", n)
	}
	rec := lazy.Recovered().Shards[0]
	if len(rec.Open) != 1 || rec.Open[0].ID != "still-open" {
		t.Fatalf("open traces not recovered out-of-core: %+v", rec.Open)
	}
	sequencesEqual(t, "open trace", []seqdb.Sequence{rec.Open[0].Events}, []seqdb.Sequence{openTr})
	if err := lazy.AttachIngester(); err == nil {
		t.Fatal("out-of-core handle accepted an ingester")
	}

	// The catalog must cover every sealed trace — including the WAL tail the
	// lazy open just rolled into a segment with computed ordinals.
	var got []seqdb.Sequence
	covered := 0
	for _, meta := range lazy.Segments() {
		if meta.From != covered {
			t.Fatalf("catalog gap: segment starts at %d, covered %d", meta.From, covered)
		}
		seqs, _, err := lazy.LoadSegment(meta)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, seqs...)
		covered = meta.To
	}
	sequencesEqual(t, "lazy catalog sweep", got, sealed)
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}

	eager := openStore(t, dir, nil)
	defer eager.Close()
	sequencesEqual(t, "eager reopen after lazy", eager.Recovered().Shards[0].Sequences, sealed)
	if len(eager.Recovered().Shards[0].Open) != 1 {
		t.Fatal("open trace lost across the lazy open")
	}
}

// TestOutOfCoreOpenDetectsCorruption: skipping the body decode must not skip
// integrity checking — a flipped byte in a mid-chain segment's core leaves a
// coverage gap that fails the out-of-core open exactly like the eager one.
func TestOutOfCoreOpenDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	internEvents(t, st, 10)
	sl := logOf(st, 0)
	rng := rand.New(rand.NewSource(22))
	var sealed []seqdb.Sequence
	for i := 0; i < 10; i++ {
		tr := randomTrace(rng, 10)
		id := "t-" + string(rune('a'+i))
		if err := sl.commitEvents(id, tr); err != nil {
			t.Fatal(err)
		}
		if err := sl.commitSeal(id); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, tr)
		if i == 4 || i == 9 {
			if err := writeSegment(sl, sealed); err != nil {
				t.Fatal(err)
			}
		}
	}
	segs := st.Segments()
	if len(segs) != 2 {
		t.Fatalf("fixture wrote %d segments want 2", len(segs))
	}
	first := segs[0].Path
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	buf, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	buf[25] ^= 0x40 // just past magic+header: in the body, caught by its CRC
	if err := os.WriteFile(first, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 1, OutOfCore: true}); err == nil {
		t.Fatal("out-of-core open accepted a corrupt mid-chain segment")
	}
}
