package store

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"syscall"
	"testing"

	"specmine/internal/fsim"
	"specmine/internal/seqdb"
)

// Warning-accumulation contract tests: Health() de-duplicates repeated
// warnings into one entry carrying a repeat count, preserves first-occurrence
// order, and bounds the distinct-message list with an explicit suppression
// sentinel — all of it stable under concurrent faults from multiple shards.

// TestWarningDedupConcurrentFaults drives every shard's rotation-cleanup
// failure path at once (fsim fails both the close and the remove of each
// superseded WAL generation) and asserts the warning list ends up with
// exactly one entry per distinct failure, however the shards interleave.
func TestWarningDedupConcurrentFaults(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	st, _ := openFaultStore(t, dir,
		[]fsim.Rule{
			{Op: fsim.OpClose, Path: walName(1), To: 99, Err: syscall.EIO},
			{Op: fsim.OpRemove, Path: walName(1), To: 99, Err: syscall.EACCES},
		},
		func(o *Options) { o.Shards = shards })
	defer st.Close()
	internEvents(t, st, 10)

	// Each shard seals a few traces, publishes its segment and rotates; the
	// cleanup of its superseded generation fails. All shards race.
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sl := logOf(st, i)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			var sealed []seqdb.Sequence
			for j := 0; j < 3; j++ {
				id := fmt.Sprintf("w%d-%d", i, j)
				evs := randomTrace(rng, 10)
				if err := sl.commitEvents(id, evs); err != nil {
					errs[i] = err
					return
				}
				if err := sl.commitSeal(id); err != nil {
					errs[i] = err
					return
				}
				sealed = append(sealed, evs)
			}
			if !sl.TryLock() {
				errs[i] = fmt.Errorf("shard %d: TryLock failed with no producers", i)
				return
			}
			defer sl.Unlock()
			if err := sl.FlushLocked(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = sl.CheckpointLocked(sealed, len(sealed), nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}

	h := healthAssert(t, st, Healthy)
	for i := 0; i < shards; i++ {
		for _, sub := range []string{"closing superseded", "removing superseded"} {
			want := fmt.Sprintf("shard %d: %s", i, sub)
			n := 0
			for _, w := range h.Warnings {
				if strings.Contains(w, want) {
					n++
				}
			}
			if n != 1 {
				t.Errorf("warning %q appears %d times, want exactly 1: %v", want, n, h.Warnings)
			}
		}
	}
	if len(h.Warnings) != 2*shards {
		t.Fatalf("expected %d distinct warnings, got %d: %v", 2*shards, len(h.Warnings), h.Warnings)
	}

	// Repetition under concurrency: six goroutines racing three messages
	// collapse to three entries, each carrying the exact total repeat count.
	const dups, perMsg = 3, 100
	var wg2 sync.WaitGroup
	for g := 0; g < 2*dups; g++ {
		wg2.Add(1)
		go func(g int) {
			defer wg2.Done()
			for k := 0; k < perMsg/2; k++ {
				st.warn("synthetic cleanup failure %d", g%dups)
			}
		}(g)
	}
	wg2.Wait()
	h = st.Health()
	for d := 0; d < dups; d++ {
		want := fmt.Sprintf("synthetic cleanup failure %d (x%d)", d, perMsg)
		found := false
		for _, w := range h.Warnings {
			if w == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing de-duplicated warning %q in %v", want, h.Warnings)
		}
	}
	if len(h.Warnings) != 2*shards+dups {
		t.Fatalf("expected %d distinct warnings, got %d: %v", 2*shards+dups, len(h.Warnings), h.Warnings)
	}
}

// TestWarningOrderAndOverflow pins the sequential contract: first-occurrence
// order is preserved, the distinct-message list is capped at maxWarnings with
// a suppression sentinel, repeats of an admitted message keep counting after
// the cap, and repeats of a suppressed message stay suppressed.
func TestWarningOrderAndOverflow(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	defer st.Close()

	for i := 0; i < maxWarnings+10; i++ {
		st.warn("ordered warning %02d", i)
	}
	h := st.Health()
	if len(h.Warnings) != maxWarnings+1 {
		t.Fatalf("warning list length %d, want %d + sentinel", len(h.Warnings), maxWarnings)
	}
	if last := h.Warnings[maxWarnings]; last != "(further warnings suppressed)" {
		t.Fatalf("missing suppression sentinel, last entry %q", last)
	}
	for i := 0; i < maxWarnings; i++ {
		if want := fmt.Sprintf("ordered warning %02d", i); h.Warnings[i] != want {
			t.Fatalf("warning %d is %q, want %q — first-occurrence order not preserved", i, h.Warnings[i], want)
		}
	}

	// An admitted message keeps accumulating its count after the cap; a
	// suppressed one stays out rather than evicting anything.
	st.warn("ordered warning 00")
	st.warn("ordered warning %02d", maxWarnings+5)
	h = st.Health()
	if h.Warnings[0] != "ordered warning 00 (x2)" {
		t.Fatalf("admitted message did not keep counting: %q", h.Warnings[0])
	}
	if len(h.Warnings) != maxWarnings+1 {
		t.Fatalf("suppressed repeat changed the list length: %d", len(h.Warnings))
	}
}
