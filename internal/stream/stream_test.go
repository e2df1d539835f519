package stream

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// mustOpen starts an ingester, failing the test on a configuration error.
func mustOpen(t *testing.T, cfg Config) *Ingester {
	t.Helper()
	ing, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// ingestWorkload streams a tracesim workload into an ingester, chunk by
// chunk, from a single producer.
func ingestWorkload(t *testing.T, ing *Ingester, w tracesim.Workload, traces int, seed int64) {
	t.Helper()
	err := w.Stream(traces, seed, 8, func(c tracesim.StreamChunk) error {
		if len(c.Events) > 0 {
			if err := ing.Ingest(c.TraceID, c.Events...); err != nil {
				return err
			}
		}
		if c.Final {
			return ing.CloseTrace(c.TraceID)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("streaming workload: %v", err)
	}
}

// traceKeys maps each sequence of db to a canonical content key, counting
// duplicates, so two databases can be compared as multisets of traces
// regardless of ordering (shards permute trace order).
func traceKeys(db *seqdb.Database) map[string]int {
	keys := make(map[string]int)
	for _, s := range db.Sequences {
		key := ""
		for _, ev := range s {
			key += db.Dict.Name(ev) + "\x00"
		}
		keys[key]++
	}
	return keys
}

func TestSnapshotHoldsExactlyTheSealedTraces(t *testing.T) {
	w := tracesim.Workloads()["transaction"]
	const traces, seed = 40, 7
	want := traceKeys(w.MustGenerate(traces, seed))

	for _, shards := range []int{1, 4} {
		ing := mustOpen(t, Config{Shards: shards, FlushBatch: 5})
		ingestWorkload(t, ing, w, traces, seed)
		v, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if v.DB.NumSequences() != traces {
			t.Fatalf("shards=%d: snapshot has %d traces want %d", shards, v.DB.NumSequences(), traces)
		}
		got := traceKeys(v.DB)
		for key, n := range want {
			if got[key] != n {
				t.Fatalf("shards=%d: trace multiplicity %d want %d for one generated trace", shards, got[key], n)
			}
		}
		if len(v.ShardDBs) != shards {
			t.Fatalf("shards=%d: %d shard views", shards, len(v.ShardDBs))
		}
		total := 0
		for _, sdb := range v.ShardDBs {
			total += sdb.NumSequences()
		}
		if total != traces {
			t.Fatalf("shards=%d: shard views hold %d traces want %d", shards, total, traces)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// violatingSecurity returns an engine over rules mined from a security
// training batch, that batch's dictionary, and the security workload with a
// quarter of its scenarios truncated, so streaming it violates the rules.
func violatingSecurity(t *testing.T) (*verify.Engine, *seqdb.Dictionary, tracesim.Workload) {
	t.Helper()
	w := tracesim.Workloads()["security"]
	train := w.MustGenerate(30, 7)
	engine, err := verify.NewEngine(minedRules(t, train))
	if err != nil {
		t.Fatal(err)
	}
	w.ViolationRate = 0.25
	return engine, train.Dict, w
}

// copyReports deep-copies the violation lists of reports.
func copyReports(reports []verify.RuleReport) []verify.RuleReport {
	out := append([]verify.RuleReport(nil), reports...)
	for i := range out {
		out[i].Violations = append([]verify.RuleViolation(nil), out[i].Violations...)
	}
	return out
}

func totalViolations(reports []verify.RuleReport) int {
	return verify.Summary{Reports: reports}.TotalViolations()
}

// TestSnapshotViewIsFrozen: a View keeps exactly the traces sealed before
// it and the conformance reports accumulated by then while ingestion
// continues, with one shard (where DB is the shard's own) and with several;
// its index, built on first use, is the index of those traces. Appending to
// a view's violation list reallocates it and never reaches the shard's
// reports.
func TestSnapshotViewIsFrozen(t *testing.T) {
	engine, dict, w := violatingSecurity(t)
	for _, shards := range []int{1, 3} {
		ing := mustOpen(t, Config{Shards: shards, FlushBatch: 4, Dict: dict, Engine: engine})
		ingestWorkload(t, ing, w, 30, 11)
		v, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := v.DB.Clone()
		wantReports := copyReports(v.Reports)
		if totalViolations(wantReports) == 0 {
			t.Fatalf("shards=%d: the first snapshot has no violations to freeze", shards)
		}
		idx := v.DB.FlatIndex()
		ingestWorkload(t, ing, w, 30, 12)
		later, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if later.DB.NumSequences() != 60 {
			t.Fatalf("shards=%d: later snapshot has %d traces want 60", shards, later.DB.NumSequences())
		}
		if totalViolations(later.Reports) <= totalViolations(wantReports) {
			t.Fatalf("shards=%d: the second batch added no violations", shards)
		}
		requireSameDB(t, "frozen view", v.DB, want)
		if !reflect.DeepEqual(v.Reports, wantReports) {
			t.Fatalf("shards=%d: the first view's reports changed while ingestion continued", shards)
		}
		if v.DB.FlatIndex() != idx {
			t.Fatalf("shards=%d: the view's index was rebuilt although the view did not change", shards)
		}
		fresh := seqdb.BuildPositionIndex(want.Sequences, want.Dict.Size())
		if idx.NumSequences() != fresh.NumSequences() || idx.NumPositions() != fresh.NumPositions() {
			t.Fatalf("shards=%d: view index covers %d seqs/%d positions want %d/%d", shards,
				idx.NumSequences(), idx.NumPositions(), fresh.NumSequences(), fresh.NumPositions())
		}
		for e := seqdb.EventID(0); int(e) < fresh.NumEvents(); e++ {
			if idx.EventInstanceCount(e) != fresh.EventInstanceCount(e) || idx.EventSeqSupport(e) != fresh.EventSeqSupport(e) {
				t.Fatalf("shards=%d: event %d counts differ from a fresh build", shards, e)
			}
		}

		// A few more traces let the shards' lists grow in place past the
		// earlier views' ends, where an uncapped append would land.
		ingestWorkload(t, ing, w, 6, 13)
		cur, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		curReports := copyReports(cur.Reports)
		for _, view := range []*View{v, later} {
			for i := range view.Reports {
				view.Reports[i].Violations = append(view.Reports[i].Violations, verify.RuleViolation{Seq: -1, TemporalPoint: -1})
			}
		}
		after, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after.Reports, curReports) || !reflect.DeepEqual(cur.Reports, curReports) {
			t.Fatalf("shards=%d: appending to an earlier view's violations reached the ingester's reports", shards)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotListsAreTheViewsOwn: a snapshot's violation lists belong to
// the view alone. Overwriting every element of one view's lists leaves the
// next snapshot, taken with no ingest in between, equal to a deep copy of the
// first, with one shard as with several.
func TestSnapshotListsAreTheViewsOwn(t *testing.T) {
	engine, dict, w := violatingSecurity(t)
	for _, shards := range []int{1, 3} {
		ing := mustOpen(t, Config{Shards: shards, FlushBatch: 4, Dict: dict, Engine: engine})
		ingestWorkload(t, ing, w, 30, 11)
		v, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := copyReports(v.Reports)
		if totalViolations(want) == 0 {
			t.Fatalf("shards=%d: no rule was violated; the test proves nothing", shards)
		}
		for i := range v.Reports {
			for k := range v.Reports[i].Violations {
				v.Reports[i].Violations[k] = verify.RuleViolation{Seq: -1, TemporalPoint: -1}
			}
		}
		again, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Reports, want) {
			t.Fatalf("shards=%d: writing an earlier view's violations reached the next snapshot", shards)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func minedRules(t *testing.T, db *seqdb.Database) []rules.Rule {
	t.Helper()
	res, err := rules.Mine(db, rules.Options{
		MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 0.8,
		MaxPremiseLength: 2, MaxConsequentLength: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rules
}

// TestConcurrentProducersAndSnapshots hammers one ingester from several
// producer goroutines while another keeps taking snapshots and checking
// them — the -race exercise for the whole subsystem. With one shard every
// snapshot reads the violation lists the shard keeps appending to.
func TestConcurrentProducersAndSnapshots(t *testing.T) {
	for _, shards := range []int{1, 4} {
		concurrentProducersAndSnapshots(t, shards)
	}
}

func concurrentProducersAndSnapshots(t *testing.T, shards int) {
	w := tracesim.Workloads()["locking"]
	train := w.MustGenerate(30, 7)
	ruleSet := minedRules(t, train)
	if len(ruleSet) == 0 {
		t.Skip("no rules mined")
	}
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	ing := mustOpen(t, Config{Shards: shards, FlushBatch: 3, Dict: train.Dict, Engine: engine})

	const producers = 4
	const tracesPerProducer = 25
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fresh := w
			fresh.ViolationRate = 0.2
			db := fresh.MustGenerate(tracesPerProducer, int64(100+p))
			for i, s := range db.Sequences {
				id := tracesim.TraceID(p*tracesPerProducer + i)
				for j := 0; j < len(s); j += 3 {
					hi := j + 3
					if hi > len(s) {
						hi = len(s)
					}
					names := make([]string, 0, 3)
					for _, ev := range s[j:hi] {
						names = append(names, db.Dict.Name(ev))
					}
					if err := ing.Ingest(id, names...); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
				}
				if err := ing.CloseTrace(id); err != nil {
					t.Errorf("close trace: %v", err)
					return
				}
			}
		}(p)
	}

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := ing.Snapshot()
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			// Every snapshot must be internally consistent: batch-checking
			// its DB reproduces the online reports it carried.
			batch := engine.Check(v.DB)
			for i := range batch {
				if v.Reports[i].TotalTemporalPoints != batch[i].TotalTemporalPoints ||
					!reflect.DeepEqual(v.Reports[i].Violations, batch[i].Violations) {
					t.Errorf("snapshot inconsistent with its own online reports (rule %d)", i)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	snapWG.Wait()

	v, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v.DB.NumSequences() != producers*tracesPerProducer {
		t.Fatalf("final snapshot has %d traces want %d", v.DB.NumSequences(), producers*tracesPerProducer)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Ingest("late", "a"); err != ErrClosed {
		t.Fatalf("ingest after close: %v want ErrClosed", err)
	}
	if _, err := ing.Snapshot(); err != ErrClosed {
		t.Fatalf("snapshot after close: %v want ErrClosed", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestEmptyAndUnknownTraces(t *testing.T) {
	ing := mustOpen(t, Config{Shards: 2})
	// Sealing an id that never ingested events produces an empty trace.
	if err := ing.CloseTrace("ghost"); err != nil {
		t.Fatal(err)
	}
	// A trace id becomes reusable after sealing.
	if err := ing.Ingest("t", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := ing.CloseTrace("t"); err != nil {
		t.Fatal(err)
	}
	if err := ing.Ingest("t", "c"); err != nil {
		t.Fatal(err)
	}
	if err := ing.CloseTrace("t"); err != nil {
		t.Fatal(err)
	}
	v, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v.DB.NumSequences() != 3 {
		t.Fatalf("snapshot has %d traces want 3", v.DB.NumSequences())
	}
	lens := map[int]int{}
	for _, s := range v.DB.Sequences {
		lens[len(s)]++
	}
	if lens[0] != 1 || lens[2] != 1 || lens[1] != 1 {
		t.Fatalf("unexpected trace lengths: %v", lens)
	}
	ing.Close()
}

// TestEmptySealsReuseCheckers: sealing ids that never received events takes
// its checker from the shard's free list like any other trace, so the list
// stays bounded by the traces open at once instead of growing by one checker
// per empty seal; each empty trace satisfies every rule vacuously.
func TestEmptySealsReuseCheckers(t *testing.T) {
	engine, dict, _ := violatingSecurity(t)
	ing := mustOpen(t, Config{Shards: 1, Dict: dict, Engine: engine})
	const n = 50
	for i := 0; i < n; i++ {
		if err := ing.CloseTrace(fmt.Sprintf("empty-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if len(v.Reports) == 0 {
		t.Fatal("no rules; the test proves nothing")
	}
	for i, r := range v.Reports {
		if r.SatisfiedTraces != n || r.ViolatedTraces != 0 || r.TotalTemporalPoints != 0 || len(r.Violations) != 0 {
			t.Fatalf("rule %d: report %+v, want %d vacuously satisfied traces", i, r, n)
		}
	}
	// Closing joined the shard goroutine, so its state can be read here.
	if got := len(ing.shards[0].free); got > 1 {
		t.Fatalf("%d empty seals left %d parked checkers, want at most 1", n, got)
	}
}
