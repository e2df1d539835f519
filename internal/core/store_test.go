package core

import (
	"path/filepath"
	"testing"

	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// ingestAll streams a workload's traces into the ingester in interleaved
// chunks from one producer.
func ingestAll(t *testing.T, st *stream.Ingester, w tracesim.Workload, traces int, seed int64) {
	t.Helper()
	err := w.Stream(traces, seed, 8, func(c tracesim.StreamChunk) error {
		if len(c.Events) > 0 {
			if err := st.Ingest(c.TraceID, c.Events...); err != nil {
				return err
			}
		}
		if c.Final {
			return st.CloseTrace(c.TraceID)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("streaming workload: %v", err)
	}
}

// mustEngine compiles ruleSet for online checking.
func mustEngine(t *testing.T, ruleSet []Rule) *verify.Engine {
	t.Helper()
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// snapshot takes a snapshot of ing: its sealed traces and the summary of its
// online conformance reports.
func snapshot(t *testing.T, ing *stream.Ingester) (*Database, verify.Summary) {
	t.Helper()
	v, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return v.DB, verify.NewSummary(v.Reports)
}

// TestStoreLifecycle walks the whole durable lifecycle: a durable streaming
// session, a restart with Recover-based cold mining, and a second durable
// session that resumes — with online conformance seeded from the recovered
// history, and the rules' dictionary (Recover's) reconciled with the store's.
func TestStoreLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	w := tracesim.Workloads()["locking"]

	// Session 1: durable ingestion of live traffic, no rules yet.
	ts, err := store.Open(store.Options{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stream.Open(stream.Config{FlushBatch: 4, Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, st, w, 40, 7)
	snap1, _ := snapshot(t, st)
	if snap1.NumSequences() != 40 {
		t.Fatalf("session 1 snapshot has %d traces want 40", snap1.NumSequences())
	}
	res1, err := MineRules(snap1, RuleOptions{MinSeqSupportRel: 0.5, MinConfidence: 0.8,
		MaxPremiseLength: 2, MaxConsequentLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rules) == 0 {
		t.Fatal("no rules mined from session 1")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: cold-start mining over the recovered store must reproduce the
	// pre-restart snapshot and therefore the same rules.
	recovered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.NumSequences() != snap1.NumSequences() {
		t.Fatalf("recovered %d traces want %d", recovered.NumSequences(), snap1.NumSequences())
	}
	for i := range snap1.Sequences {
		a, b := recovered.Sequences[i], snap1.Sequences[i]
		if len(a) != len(b) {
			t.Fatalf("trace %d: recovered %d events want %d", i, len(a), len(b))
		}
		for j := range b {
			if a[j] != b[j] {
				t.Fatalf("trace %d event %d: recovered %d want %d", i, j, a[j], b[j])
			}
		}
	}
	res2, err := MineRules(recovered, RuleOptions{MinSeqSupportRel: 0.5, MinConfidence: 0.8,
		MaxPremiseLength: 2, MaxConsequentLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rules) != len(res1.Rules) {
		t.Fatalf("recovered mining found %d rules want %d", len(res2.Rules), len(res1.Rules))
	}
	for i := range res1.Rules {
		if res2.Rules[i].Key() != res1.Rules[i].Key() ||
			res2.Rules[i].Confidence != res1.Rules[i].Confidence {
			t.Fatalf("rule %d differs after recovery:\n got %+v\nwant %+v", i, res2.Rules[i], res1.Rules[i])
		}
	}

	// Session 2 resumes durably with the mined rules checking new violating
	// traffic online; the recovered history's conformance is seeded so
	// the online summary equals a batch CheckRules over the full snapshot.
	ts2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := stream.Open(stream.Config{FlushBatch: 4, Dict: recovered.Dict, Engine: mustEngine(t, res2.Rules), Store: ts2})
	if err != nil {
		t.Fatal(err)
	}
	hostile := w
	hostile.ViolationRate = 0.3
	ingestAll(t, st2, hostile, 30, 99)
	snap2, online := snapshot(t, st2)
	if snap2.NumSequences() != 70 {
		t.Fatalf("session 2 snapshot has %d traces want 70", snap2.NumSequences())
	}
	batch, err := CheckRules(snap2, res2.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if online.Render(snap2.Dict, 3) != batch.Render(snap2.Dict, 3) {
		t.Fatalf("online summary diverges from batch over the same snapshot:\n%s\nvs\n%s",
			online.Render(snap2.Dict, 3), batch.Render(snap2.Dict, 3))
	}
	if batch.TotalViolations() == 0 {
		t.Fatal("expected violations from the hostile workload")
	}

	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts2.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover on a directory with no store must fail cleanly.
	if _, err := Recover(filepath.Join(t.TempDir(), "nothing-here")); err == nil {
		t.Fatal("Recover on an empty directory succeeded")
	}
}
