package bench

import (
	"path/filepath"
	"strconv"
	"testing"

	"specmine/internal/core"
	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/tracesim"
)

// BenchmarkMineStoreRulesCallView measures out-of-core rule mining whose
// seed union fits the cache: 50,000 locking traces ingested into a durable
// 4-shard store, mined with the one-rule query of pipebench's ingest-locking
// workload under an unlimited budget. Each iteration opens a fresh segment
// cache, so it pins, decodes and indexes every segment into the call-wide
// view before the search runs. Profile the layer with
//
//	go test ./internal/bench -run XXX -bench MineStoreRulesCallView -cpuprofile cpu.out
func BenchmarkMineStoreRulesCallView(b *testing.B) {
	db := tracesim.LockingComponent().MustGenerate(50000, 1)
	dir := filepath.Join(b.TempDir(), "locking")
	st, err := store.Open(store.Options{Dir: dir, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range db.Dict.Export() {
		st.Dict().Intern(name)
	}
	ing, err := stream.Open(stream.Config{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	for i, seq := range db.Sequences {
		id := strconv.Itoa(i)
		if err := ing.IngestIDs(id, seq...); err != nil {
			b.Fatal(err)
		}
		if err := ing.CloseTrace(id); err != nil {
			b.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	ts, err := store.Open(store.Options{Dir: dir, OutOfCore: true})
	if err != nil {
		b.Fatal(err)
	}
	defer ts.Close()
	opts := core.RuleOptions{MinSeqSupportRel: 0.95, MinConfidence: 0.9, MaxPremiseLength: 1, MaxConsequentLength: 1, Workers: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ex, err := core.MineStoreRules(ts, opts, core.OutOfCoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rules) == 0 || ex.SegmentsSkipped != 0 {
			b.Fatalf("%d rules, %d of %d segments skipped: want rules from every segment", len(res.Rules), ex.SegmentsSkipped, ex.SegmentsTotal)
		}
	}
	b.ReportMetric(float64(len(ts.Segments())), "segments")
}
