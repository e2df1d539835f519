package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"specmine/internal/seqdb"
	"specmine/internal/stream"
)

// Dictionary-contention smoke check. The sharded dictionary exists so that
// concurrent producers interning event names do not serialise on one lock;
// this test measures, via the runtime's mutex profile, what share of the
// lock contention in a concurrent stream-ingest workload is attributable to
// seqdb.Dictionary, and fails when it exceeds dictContentionShare. CI runs it
// as a dedicated step at GOMAXPROCS=$(nproc), where a regression to a single
// dictionary lock shows up as the dominant contention site.

const (
	// dictContentionShare is the maximum fraction of sampled mutex-wait
	// cycles allowed to come from dictionary internals.
	dictContentionShare = 0.20

	// contentionFloorCycles is the minimum total sampled wait below which
	// the share is not judged: with almost no contention at all (a
	// single-processor runner, or a fast machine sailing through the
	// workload), the ratio of two tiny numbers is noise, and the situation
	// the check exists to catch — producers queueing on the dictionary —
	// is absent by construction.
	contentionFloorCycles = 10_000_000
)

// mutexCycles snapshots the cumulative mutex profile: total sampled wait
// cycles, and the portion whose stack passes through a *seqdb.Dictionary
// method. Called before and after the workload; the deltas isolate it.
func mutexCycles() (total, dict int64) {
	n, _ := runtime.MutexProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+64)
	n, ok := runtime.MutexProfile(recs)
	if !ok {
		recs = make([]runtime.BlockProfileRecord, 2*len(recs))
		n, _ = runtime.MutexProfile(recs)
	}
	for _, r := range recs[:n] {
		total += r.Cycles
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, "seqdb.(*Dictionary)") {
				dict += r.Cycles
				break
			}
			if !more {
				break
			}
		}
	}
	return total, dict
}

func TestDictionaryContentionShare(t *testing.T) {
	prevFrac := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prevFrac)

	procs := runtime.NumCPU()
	if procs < 4 {
		procs = 4
	}
	prevProcs := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prevProcs)

	// A shared vocabulary smaller than the total event volume, so most
	// Intern calls are lookups of hot names from all producers at once —
	// the worst case for a single-lock dictionary and the common case for
	// real trace streams. Pre-intern the vocabulary: the one-time cold-start
	// burst of first assignments takes writer locks on any dictionary, even
	// a perfectly sharded one, and is not the steady state this check
	// judges. A regression to a single exclusive lock still fails, because
	// then every hot lookup below contends, not just the assignments.
	vocab := make([]string, 512)
	warmDict := seqdb.NewDictionary()
	for i := range vocab {
		vocab[i] = fmt.Sprintf("evt-%03d", i)
		warmDict.Intern(vocab[i])
	}

	totalBefore, dictBefore := mutexCycles()

	const (
		producers      = 8
		tracesPerProd  = 40
		chunksPerTrace = 12
		chunkEvents    = 16
	)
	ing, err := stream.Open(stream.Config{Shards: 4, Dict: warmDict})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)*7919 + 1))
			chunk := make([]string, chunkEvents)
			for tr := 0; tr < tracesPerProd; tr++ {
				id := fmt.Sprintf("p%d-t%d", p, tr)
				for c := 0; c < chunksPerTrace; c++ {
					for i := range chunk {
						chunk[i] = vocab[rng.Intn(len(vocab))]
					}
					if err := ing.Ingest(id, chunk...); err != nil {
						errs <- err
						return
					}
				}
				if err := ing.CloseTrace(id); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	totalAfter, dictAfter := mutexCycles()
	total := totalAfter - totalBefore
	dict := dictAfter - dictBefore
	if total < contentionFloorCycles {
		t.Logf("total contention %d cycles below floor %d — workload did not contend enough to judge shares", total, contentionFloorCycles)
		return
	}
	share := float64(dict) / float64(total)
	t.Logf("dictionary contention: %d of %d sampled wait cycles (%.1f%%)", dict, total, 100*share)
	if share > dictContentionShare {
		t.Fatalf("dictionary accounts for %.1f%% of mutex contention (limit %.0f%%) — interning is serialising producers again",
			100*share, 100*dictContentionShare)
	}
}
