package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"specmine/internal/fsim"
	"specmine/internal/seqdb"
	"specmine/internal/store"
)

// Chaos suite: randomized fault schedules (transient and permanent I/O
// errors, short writes, torn renames, ENOSPC windows that clear) injected
// under an interleaved ingest/seal/snapshot/rotate/publish workload. The
// invariants checked are schedule-independent:
//
//  1. Every operation either acks (nil error) or is rejected whole — a
//     rejected op never surfaces in memory or on disk.
//  2. The in-memory state always equals the acked model exactly, fault or
//     no fault, degraded or not: snapshots keep serving from memory.
//  3. After closing and cleanly reopening, every shard's recovered sealed
//     traces are a byte-identical prefix of the acked seal order, at least
//     as long as the durable watermark (the sealed count exposed by the
//     last successful snapshot while the store was still healthy), and the
//     recovered flat index equals a fresh build over that prefix.
//  4. Permanent faults degrade to read-only (typed error on writes, reads
//     keep working); they never corrupt, and never reach Failed.
//
// A recovery attempt under a second fault schedule is squeezed between the
// crash and the clean reopen: it must either fail cleanly or succeed, and
// in both cases leave the acked prefix intact.

const chaosShards = 3

// chaosTweak shapes the store for maximum mechanism coverage: tiny rotation
// and segment budgets so generations turn and barriers publish segments
// constantly, and a short retry backoff so exhausted-retry paths don't
// dominate runtime.
func chaosTweak(o *store.Options) {
	o.WALRotateBytes = 2048
	o.SegmentBytes = 256
	o.RetryBackoff = 50 * time.Microsecond
}

func chaosEnvInt(name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return def
	}
	return n
}

func randomChaosEvents(rng *rand.Rand, alphabet []seqdb.EventID) []seqdb.EventID {
	n := 1 + rng.Intn(6)
	evs := make([]seqdb.EventID, n)
	for i := range evs {
		evs[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return evs
}

// checkChaosWriteErr validates a rejected write: rejection is always legal
// (the op simply didn't ack), but the error's type must be consistent with
// the store's health at the time.
func checkChaosWriteErr(t *testing.T, ing *Ingester, err error) {
	t.Helper()
	if errors.Is(err, ErrClosed) {
		t.Fatalf("write rejected with ErrClosed while the ingester is open")
	}
	if errors.Is(err, store.ErrFailed) {
		t.Fatalf("store reached Failed under pure I/O faults: %v", err)
	}
	if errors.Is(err, store.ErrDegraded) {
		if st := ing.Health().State; st == store.Healthy {
			t.Fatalf("write rejected with ErrDegraded while Health reports Healthy")
		}
	}
	// Any other error is a transient rejection (retry budget exhausted on an
	// inline flush): the op was rolled back whole and never acked.
}

func compareChaosSeqs(t *testing.T, seed int64, label string, got, want []seqdb.Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %s: %d traces want %d", seed, label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("seed %d: %s: trace %d has %d events want %d", seed, label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("seed %d: %s: trace %d event %d is %d want %d", seed, label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// runChaosSchedule drives one workload under the fault schedule derived from
// seed and verifies the invariants end to end.
func runChaosSchedule(t *testing.T, seed int64) {
	t.Helper()
	dir := t.TempDir()
	ffs := fsim.NewFaultFS(fsim.OS(), fsim.RandomSchedule(seed)...)

	sealedModel := make([][]seqdb.Sequence, chaosShards)
	watermark := make([]int, chaosShards)
	allEvents := map[string]seqdb.Sequence{}

	st, err := store.Open(store.Options{Dir: dir, Shards: chaosShards, FS: ffs, WALRotateBytes: 2048, SegmentBytes: 256, RetryBackoff: 50 * time.Microsecond})
	if err != nil {
		// The schedule tore store creation itself. Nothing was ever acked, so
		// the clean reopen below must come up empty — that is the invariant.
		verifyChaosRecovery(t, seed, dir, sealedModel, watermark, allEvents)
		return
	}
	ing, err := Open(Config{FlushBatch: 4, Buffer: 16, Store: st})
	if err != nil {
		t.Fatalf("seed %d: stream open over a healthy store: %v", seed, err)
	}

	dict := ing.Dict()
	alphabet := make([]seqdb.EventID, 16)
	for i := range alphabet {
		alphabet[i] = dict.Intern(fmt.Sprintf("ev-%02d", i))
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eedface))
	var openIDs []string
	nextID := 0
	const ops = 400
	for i := 0; i < ops; i++ {
		r := rng.Intn(10)
		switch {
		case r <= 3 || len(openIDs) == 0: // open a new trace
			id := fmt.Sprintf("c-%04d", nextID)
			nextID++
			evs := randomChaosEvents(rng, alphabet)
			if err := ing.IngestIDs(id, evs...); err == nil {
				allEvents[id] = append(seqdb.Sequence(nil), evs...)
				openIDs = append(openIDs, id)
			} else {
				checkChaosWriteErr(t, ing, err)
			}
		case r <= 6: // extend an open trace
			id := openIDs[rng.Intn(len(openIDs))]
			evs := randomChaosEvents(rng, alphabet)
			if err := ing.IngestIDs(id, evs...); err == nil {
				allEvents[id] = append(allEvents[id], evs...)
			} else {
				checkChaosWriteErr(t, ing, err)
			}
		case r <= 8: // seal an open trace
			k := rng.Intn(len(openIDs))
			id := openIDs[k]
			if err := ing.CloseTrace(id); err == nil {
				openIDs = append(openIDs[:k], openIDs[k+1:]...)
				s := ing.shardFor(id)
				sealedModel[s] = append(sealedModel[s], append(seqdb.Sequence(nil), allEvents[id]...))
			} else {
				checkChaosWriteErr(t, ing, err)
			}
		default: // snapshot barrier
			v, serr := ing.Snapshot()
			if serr != nil {
				if errors.Is(serr, store.ErrFailed) {
					t.Fatalf("seed %d: snapshot refused with Failed: %v", seed, serr)
				}
				// Not-durable rejection during a transient window; retryable.
				break
			}
			// Memory always equals the acked model, healthy or degraded.
			for s := range sealedModel {
				compareChaosSeqs(t, seed, fmt.Sprintf("mid-run snapshot shard %d", s), v.ShardDBs[s].Sequences, sealedModel[s])
			}
			if ing.Health().State == store.Healthy {
				// The snapshot's barrier flush succeeded on a healthy store, so
				// everything it exposed is durable: advance the watermark.
				for s := range watermark {
					watermark[s] = len(v.ShardDBs[s].Sequences)
				}
			}
		}
	}

	h := ing.Health()
	if h.State == store.Failed {
		t.Fatalf("seed %d: pure I/O faults must never reach Failed: %+v", seed, h)
	}
	if v, serr := ing.Snapshot(); serr == nil {
		for s := range sealedModel {
			compareChaosSeqs(t, seed, fmt.Sprintf("final snapshot shard %d", s), v.ShardDBs[s].Sequences, sealedModel[s])
		}
	} else if errors.Is(serr, store.ErrFailed) {
		t.Fatalf("seed %d: final snapshot refused with Failed: %v", seed, serr)
	}
	if h.State == store.DegradedReadOnly {
		// Degraded semantics: reads above served from memory; writes must
		// fail fast with the typed error.
		if err := ing.Ingest("post-degrade", "ev-00"); !errors.Is(err, store.ErrDegraded) {
			t.Fatalf("seed %d: ingest on a degraded store returned %v, want ErrDegraded", seed, err)
		}
		if h.Err == nil || h.Cause == "" {
			t.Fatalf("seed %d: degraded Health carries no cause: %+v", seed, h)
		}
	}
	_ = ing.Close() // flush may fail when degraded; recovery resumes from the last barrier
	_ = st.Close()

	// A recovery attempt under a fresh fault schedule: it must fail cleanly
	// or succeed — and either way leave the acked prefix intact for the
	// clean reopen that follows.
	ffs2 := fsim.NewFaultFS(fsim.OS(), fsim.RandomSchedule(seed+1)...)
	if st2, err := store.Open(store.Options{Dir: dir, FS: ffs2, RetryBackoff: 50 * time.Microsecond}); err == nil {
		_ = st2.Close()
	}

	verifyChaosRecovery(t, seed, dir, sealedModel, watermark, allEvents)
}

// verifyChaosRecovery reopens the store with no fault injection and checks
// the recovered state against the acked model: per-shard sealed traces are a
// byte-identical prefix of the acked seal order no shorter than the durable
// watermark, and recovered open traces are prefixes of their acked history.
func verifyChaosRecovery(t *testing.T, seed int64, dir string, sealedModel [][]seqdb.Sequence, watermark []int, allEvents map[string]seqdb.Sequence) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("seed %d: clean reopen failed: %v", seed, err)
	}
	defer st.Close()
	if h := st.Health(); h.State != store.Healthy {
		t.Fatalf("seed %d: clean reopen came up %v: %+v", seed, h.State, h)
	}
	rec := st.Recovered()
	for s, want := range sealedModel {
		if s >= len(rec.Shards) {
			if len(want) > 0 {
				t.Fatalf("seed %d: shard %d missing after reopen with %d acked seals", seed, s, len(want))
			}
			continue
		}
		got := rec.Shards[s].Sequences
		if len(got) < watermark[s] {
			t.Fatalf("seed %d: shard %d recovered %d sealed traces, below the durable watermark %d", seed, s, len(got), watermark[s])
		}
		if len(got) > len(want) {
			t.Fatalf("seed %d: shard %d recovered %d sealed traces but only %d were acked", seed, s, len(got), len(want))
		}
		compareChaosSeqs(t, seed, fmt.Sprintf("recovered shard %d", s), got, want[:len(got)])

		// Open traces recover best-effort, but whatever recovers must be a
		// prefix of the trace's acked history — never an invention.
		for _, tr := range rec.Shards[s].Open {
			full, ok := allEvents[tr.ID]
			if !ok {
				t.Fatalf("seed %d: shard %d recovered unknown open trace %q", seed, s, tr.ID)
			}
			if len(tr.Events) > len(full) {
				t.Fatalf("seed %d: open trace %q recovered %d events, acked only %d", seed, tr.ID, len(tr.Events), len(full))
			}
			for j := range tr.Events {
				if tr.Events[j] != full[j] {
					t.Fatalf("seed %d: open trace %q event %d is %d want %d", seed, tr.ID, j, tr.Events[j], full[j])
				}
			}
		}
	}
}

// TestChaosFixedSeedMatrix pins a deterministic spread of schedules as
// regression anchors; each exercises a different mix of fault mechanisms.
func TestChaosFixedSeedMatrix(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 42, 99, 1234, 31337, 424242} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed)
		})
	}
}

// TestChaosRandomizedSchedules sweeps fresh schedules every run. The base
// seed is printed (and taken from SPECMINE_CHAOS_SEED to reproduce a
// failure); SPECMINE_CHAOS_SCHEDULES sets the sweep width — CI runs 200.
func TestChaosRandomizedSchedules(t *testing.T) {
	base := time.Now().UnixNano()
	if v := os.Getenv("SPECMINE_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SPECMINE_CHAOS_SEED=%q is not an integer", v)
		}
		base = n
	}
	count := chaosEnvInt("SPECMINE_CHAOS_SCHEDULES", 25)
	t.Logf("chaos sweep: %d schedules from base seed %d (reproduce with SPECMINE_CHAOS_SEED=%d)", count, base, base)
	for i := 0; i < count; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed)
		})
	}
}
