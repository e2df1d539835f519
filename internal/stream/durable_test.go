package stream

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

func openTestStore(t *testing.T, dir string, shards int, tweak func(*store.Options)) *store.Store {
	t.Helper()
	opts := store.Options{Dir: dir, Shards: shards}
	if tweak != nil {
		tweak(&opts)
	}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	return st
}

// copyStoreTree snapshots a live store directory file by file — the moral
// equivalent of kill -9 plus a disk image: only bytes that reached the OS
// survive into the copy.
func copyStoreTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copying store tree: %v", err)
	}
}

func requireSameDB(t *testing.T, label string, got, want *seqdb.Database) {
	t.Helper()
	if got.NumSequences() != want.NumSequences() {
		t.Fatalf("%s: %d traces want %d", label, got.NumSequences(), want.NumSequences())
	}
	for i := range want.Sequences {
		g, w := got.Sequences[i], want.Sequences[i]
		if len(g) != len(w) {
			t.Fatalf("%s: trace %d has %d events want %d", label, i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: trace %d event %d is %d want %d", label, i, j, g[j], w[j])
			}
		}
	}
}

func requireSameReports(t *testing.T, label string, got, want []verify.RuleReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TotalTemporalPoints != w.TotalTemporalPoints ||
			g.SatisfiedTemporalPoints != w.SatisfiedTemporalPoints ||
			g.SatisfiedTraces != w.SatisfiedTraces ||
			g.ViolatedTraces != w.ViolatedTraces {
			t.Fatalf("%s: rule %d counters differ\n got %+v\nwant %+v", label, i, g, w)
		}
		if len(g.Violations) != len(w.Violations) {
			t.Fatalf("%s: rule %d has %d violations want %d", label, i, len(g.Violations), len(w.Violations))
		}
		for k := range w.Violations {
			if g.Violations[k].Seq != w.Violations[k].Seq || g.Violations[k].TemporalPoint != w.Violations[k].TemporalPoint {
				t.Fatalf("%s: rule %d violation %d: got %+v want %+v", label, i, k, g.Violations[k], w.Violations[k])
			}
		}
	}
}

// TestFlushBatchBoundsSegmentSize: a durable shard's barrier — the only
// path that publishes segments outside rotation — fires once FlushBatch
// traces were sealed since the last one, so every segment a barrier
// publishes spans at least FlushBatch traces. (A barrier also rolls in
// whatever its drain applied, so spans are not exact multiples.)
// SegmentBytes 1 lifts the store's own size threshold, so every barrier
// publishes and the bound is the ingester's.
func TestFlushBatchBoundsSegmentSize(t *testing.T) {
	const flushBatch, traces = 100, 250
	st := openTestStore(t, t.TempDir(), 1, func(o *store.Options) { o.SegmentBytes = 1 })
	ing, err := Open(Config{FlushBatch: flushBatch, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < traces; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := ing.Ingest(id, "open", "use"); err != nil {
			t.Fatal(err)
		}
		if err := ing.CloseTrace(id); err != nil {
			t.Fatal(err)
		}
	}
	// Close, not Snapshot: a snapshot consumed by a barrier's drain is
	// answered before that barrier publishes its segment.
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	// The close checkpoints the shard: its last segment is the sealed tail
	// left after the final barrier, of any size, and every trace is covered.
	spans := st.SegmentSpans()[0]
	if len(spans) == 0 {
		t.Fatalf("no segment published after %d seals at FlushBatch %d", traces, flushBatch)
	}
	next := 0
	for k, sp := range spans {
		if sp[0] != next || (k < len(spans)-1 && sp[1]-sp[0] < flushBatch) {
			t.Fatalf("segment spans %v: want contiguous spans of at least %d traces from 0, then the close's tail", spans, flushBatch)
		}
		next = sp[1]
	}
	if next != traces {
		t.Fatalf("segment spans %v: want all %d sealed traces covered after the close", spans, traces)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillAndRecoverEquivalence is the PR's acceptance criterion. A durable
// ingester with online conformance runs half an interleaved workload; the
// store directory is imaged mid-flight (kill -9 semantics) right after a
// snapshot; recovery must reproduce that snapshot's database, mined rules and
// conformance reports exactly — and, fed the remaining half, must arrive at
// the same final state as the uninterrupted original, proving recovered open
// traces resume with full history and re-advanced checkers.
func TestKillAndRecoverEquivalence(t *testing.T) {
	w := tracesim.Workloads()["transaction"]
	train := w.MustGenerate(30, 7)
	ruleSet := minedRules(t, train)
	if len(ruleSet) == 0 {
		t.Fatal("no rules mined")
	}

	fresh := w
	fresh.ViolationRate = 0.25
	const traces, seed, concurrency = 60, 99, 8

	// Pre-generate the interleaved chunk stream so both runs see the same
	// operations in the same order.
	type chunk struct {
		id     string
		events []string
		final  bool
	}
	var chunks []chunk
	err := fresh.Stream(traces, seed, concurrency, func(c tracesim.StreamChunk) error {
		chunks = append(chunks, chunk{id: c.TraceID, events: c.Events, final: c.Final})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ing *Ingester, from, to int) {
		t.Helper()
		for _, c := range chunks[from:to] {
			if len(c.events) > 0 {
				if err := ing.Ingest(c.id, c.events...); err != nil {
					t.Fatal(err)
				}
			}
			if c.final {
				if err := ing.CloseTrace(c.id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mkEngine := func(dict *seqdb.Dictionary) *verify.Engine {
		// Rebase the mined rules onto this run's dictionary by name, since
		// each store interns its own stream.
		rebased := make([]rules.Rule, len(ruleSet))
		for i, r := range ruleSet {
			pre := make(seqdb.Pattern, len(r.Pre))
			for k, ev := range r.Pre {
				pre[k] = dict.Intern(train.Dict.Name(ev))
			}
			post := make(seqdb.Pattern, len(r.Post))
			for k, ev := range r.Post {
				post[k] = dict.Intern(train.Dict.Name(ev))
			}
			r.Pre, r.Post = pre, post
			rebased[i] = r
		}
		engine, err := verify.NewEngine(rebased)
		if err != nil {
			t.Fatal(err)
		}
		return engine
	}

	dir := t.TempDir()
	// A tiny rotation budget forces WAL rotations throughout, so recovery
	// exercises segments + re-logged open traces, not just a long WAL.
	st := openTestStore(t, dir, 3, func(o *store.Options) { o.WALRotateBytes = 2048 })
	ing, err := Open(Config{FlushBatch: 4, Store: st, Engine: mkEngine(st.Dict())})
	if err != nil {
		t.Fatal(err)
	}
	half := len(chunks) / 2
	feed(ing, 0, half)
	s1, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The crash image: everything the snapshot exposed is flushed, so the
	// copied directory must recover to exactly s1.
	crashDir := filepath.Join(t.TempDir(), "crash-image")
	copyStoreTree(t, dir, crashDir)

	// The original keeps going to the end of the workload.
	feed(ing, half, len(chunks))
	f1, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover from the crash image.
	st2 := openTestStore(t, crashDir, 0, func(o *store.Options) { o.WALRotateBytes = 2048 })
	ing2, err := Open(Config{FlushBatch: 4, Store: st2, Engine: mkEngine(st2.Dict())})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ing2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, "recovered snapshot", r1.DB, s1.DB)
	requireSameReports(t, "recovered reports", r1.Reports, s1.Reports)

	// Mined rules over the recovered snapshot equal those over the pre-crash
	// snapshot (they are the same database, but mine both to pin the
	// acceptance criterion end to end).
	m1, m2 := minedRules(t, s1.DB), minedRules(t, r1.DB)
	if len(m1) != len(m2) {
		t.Fatalf("mined %d rules from recovered snapshot want %d", len(m2), len(m1))
	}
	for i := range m1 {
		if m1[i].Key() != m2[i].Key() ||
			m1[i].SeqSupport != m2[i].SeqSupport ||
			m1[i].InstanceSupport != m2[i].InstanceSupport ||
			m1[i].Confidence != m2[i].Confidence {
			t.Fatalf("rule %d differs after recovery: %+v vs %+v", i, m1[i], m2[i])
		}
	}

	// Every shard recovers exactly the sequences it held at the snapshot.
	for si, sdb := range r1.ShardDBs {
		requireSameDB(t, fmt.Sprintf("recovered shard %d", si), sdb, s1.ShardDBs[si])
	}

	// The recovered ingester absorbs the second half — open traces resume
	// with their full history — and must land exactly where the original did.
	feed(ing2, half, len(chunks))
	f2, err := ing2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, "post-recovery final snapshot", f2.DB, f1.DB)
	requireSameReports(t, "post-recovery final reports", f2.Reports, f1.Reports)
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableConcurrentProducers hammers a durable ingester — rotations
// forced by a tiny WAL budget, segments published by barriers whose tail has
// reached a tiny SegmentBytes, snapshots taken concurrently — from several
// producers under -race, then closes everything and proves a reopened store
// recovers exactly the final snapshot's per-shard state. Each producer leaves
// its first trace open through every rotation to Close and seals its last
// trace under its second trace's id again: the reopened store must hold the
// open traces, ids and events, exactly as ingested.
func TestDurableConcurrentProducers(t *testing.T) {
	w := tracesim.Workloads()["locking"]
	dir := t.TempDir()
	st := openTestStore(t, dir, 4, func(o *store.Options) {
		o.WALRotateBytes = 1024
		o.SegmentBytes = 64
	})
	ing, err := Open(Config{FlushBatch: 3, Buffer: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}

	const producers = 4
	const tracesPerProducer = 20
	type ingested struct {
		id     string
		events []string
	}
	leftOpen := make([]ingested, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			db := w.MustGenerate(tracesPerProducer+1, int64(200+p))
			first := p * (tracesPerProducer + 1)
			for i, s := range db.Sequences {
				id := tracesim.TraceID(first + i)
				if i == tracesPerProducer {
					id = tracesim.TraceID(first + 1) // sealed long ago: the id opens afresh
				}
				var all []string
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
					all = append(all, names...)
				}
				if i == 0 {
					leftOpen[p] = ingested{id: id, events: all}
					continue
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
			if _, err := ing.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()

	final, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if final.DB.NumSequences() != producers*tracesPerProducer {
		t.Fatalf("final snapshot has %d traces want %d", final.DB.NumSequences(), producers*tracesPerProducer)
	}
	// The crash image holds the rotated WALs as the producers left them;
	// the clean close below rewrites them from memory.
	crashDir := filepath.Join(t.TempDir(), "crash-image")
	copyStoreTree(t, dir, crashDir)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	wantOpen := map[string][]string{}
	for _, tr := range leftOpen {
		if len(tr.events) > 0 {
			wantOpen[tr.id] = tr.events
		}
	}
	for _, dir := range []string{dir, crashDir} {
		st2, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rec := st2.Recovered()
		if rec.NumOpen() != len(wantOpen) || len(wantOpen) == 0 {
			t.Fatalf("%s: recovered %d open traces want %d", dir, rec.NumOpen(), len(wantOpen))
		}
		for si, rs := range rec.Shards {
			for _, tr := range rs.Open {
				want, ok := wantOpen[tr.ID]
				if !ok || len(tr.Events) != len(want) {
					t.Fatalf("%s: recovered open trace %s with %d events, want %d (ingested: %v)", dir, tr.ID, len(tr.Events), len(want), ok)
				}
				for k, ev := range tr.Events {
					if name := st2.Dict().Name(ev); name != want[k] {
						t.Fatalf("%s: open trace %s event %d is %s want %s", dir, tr.ID, k, name, want[k])
					}
				}
			}
			shardDB := seqdb.NewDatabaseWithDict(st2.Dict())
			for _, s := range rs.Sequences {
				shardDB.Append(s)
			}
			requireSameDB(t, dir+": recovered shard", shardDB, final.ShardDBs[si])
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveredReportsGrowLikeBatch: a reopened ingester re-seeds its
// shards' counts and violation parts by sealing every recovered trace
// through the live close-and-cut step. Violating traffic after the reopen
// adds parts behind the recovered ones, and the reports must still equal a
// batch check over the final snapshot: a recovered part numbered or ordered
// wrongly would show up here.
func TestRecoveredReportsGrowLikeBatch(t *testing.T) {
	engine, dict, w := violatingSecurity(t)
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		st := openTestStore(t, dir, shards, nil)
		// The fresh store's dictionary takes the training ids, so the engine
		// compiled against dict applies unchanged.
		for id := 0; id < dict.Size(); id++ {
			st.Dict().Intern(dict.Name(seqdb.EventID(id)))
		}
		ing := mustOpen(t, Config{FlushBatch: 4, Store: st, Engine: engine})
		ingestWorkload(t, ing, w, 40, 3)
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st = openTestStore(t, dir, 0, nil)
		ing = mustOpen(t, Config{FlushBatch: 4, Store: st, Engine: engine})
		v, err := ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if totalViolations(v.Reports) == 0 {
			t.Fatal("the recovered reports hold no violations; the test proves nothing")
		}
		ingestWorkload(t, ing, w, 40, 4)
		v, err = ing.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := engine.Check(v.DB) // CheckRules over the snapshot, rules compiled once
		requireSameReports(t, fmt.Sprintf("shards=%d: reopened and grown", shards), v.Reports, want)
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
