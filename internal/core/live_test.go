package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/tracesim"
)

// TestOutOfCoreCallsBesideLiveIngest: out-of-core calls may run on the store
// a durable ingester is writing into. One goroutine loops CheckStore and
// another MineStoreRules, both through a one-byte cache so every segment is
// read from disk, while a 2-shard ingester takes rounds of transaction traces
// with a snapshot after each; a small SegmentBytes and WAL budget make the
// store publish segments and rotate its WAL between the calls' catalog reads
// and their pins. Every call must succeed, the store must stay healthy and
// ingest must go on afterwards.
func TestOutOfCoreCallsBesideLiveIngest(t *testing.T) {
	w := tracesim.Workloads()["transaction"]
	train := w.MustGenerate(40, 11)
	checkRules, err := MineRules(train, RuleOptions{MinSeqSupportRel: 0.8, MinConfidence: 0.8,
		MaxPremiseLength: 1, MaxConsequentLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkRules.Rules) == 0 {
		t.Fatal("no rules mined from the training batch")
	}
	mineOpts := RuleOptions{MinSeqSupportRel: 0.9, MinConfidence: 0.8,
		MaxPremiseLength: 1, MaxConsequentLength: 1}
	oo := OutOfCoreOptions{CacheBytes: 1}

	ts, err := store.Open(store.Options{Dir: filepath.Join(t.TempDir(), "traces"), Shards: 2,
		SegmentBytes: 2 << 10, WALRotateBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ing, err := stream.Open(stream.Config{FlushBatch: 4, Dict: train.Dict, Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	// Each caller loops until stop, counts the calls that saw a non-empty
	// catalog, and closes its started channel after the first such call or
	// when it gives up on an error.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var checked, mined atomic.Int64
	checkStarted, mineStarted := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	loop := func(name string, done *atomic.Int64, started chan struct{}, call func() (*Explain, error)) {
		defer wg.Done()
		var once sync.Once
		defer once.Do(func() { close(started) })
		for {
			select {
			case <-stop:
				return
			default:
			}
			ex, err := call()
			if err != nil {
				errs <- fmt.Errorf("%s after %d calls: %w", name, done.Load(), err)
				return
			}
			if ex.SegmentsTotal > 0 {
				done.Add(1)
				once.Do(func() { close(started) })
			}
		}
	}
	wg.Add(2)
	go loop("CheckStore", &checked, checkStarted, func() (*Explain, error) {
		_, ex, err := CheckStore(ts, checkRules.Rules, oo)
		return ex, err
	})
	go loop("MineStoreRules", &mined, mineStarted, func() (*Explain, error) {
		_, ex, err := MineStoreRules(ts, mineOpts, oo)
		return ex, err
	})
	halt := func() {
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	ingestRound := func(round int) error {
		db := w.MustGenerate(20, int64(100+round))
		for i, s := range db.Sequences {
			id := fmt.Sprintf("r%03d-%02d", round, i)
			names := make([]string, len(s))
			for j, ev := range s {
				names[j] = db.Dict.Name(ev)
			}
			if err := ing.Ingest(id, names...); err != nil {
				return err
			}
			if err := ing.CloseTrace(id); err != nil {
				return err
			}
		}
		_, err := ing.Snapshot()
		return err
	}
	const rounds = 40
	for round := 0; round < rounds; round++ {
		if err := ingestRound(round); err != nil {
			halt()
			t.Fatalf("round %d: %v", round, err)
		}
		// Halfway, wait until both callers have finished a call over a
		// non-empty catalog, so calls overlap the second half however slowly
		// they run.
		if round == rounds/2-1 {
			<-checkStarted
			<-mineStarted
		}
	}
	halt()
	if t.Failed() {
		t.FailNow()
	}
	if err := ts.Err(); err != nil {
		t.Fatalf("store unhealthy after out-of-core calls beside ingest: %v", err)
	}
	if err := ingestRound(rounds); err != nil {
		t.Fatalf("ingest after the calls: %v", err)
	}
	t.Logf("%d checks and %d mining calls over a non-empty catalog beside %d rounds; %d segments",
		checked.Load(), mined.Load(), rounds, len(ts.Segments()))
}
