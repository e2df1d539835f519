package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/core"
	"specmine/internal/episode"
	"specmine/internal/iterpattern"
	"specmine/internal/rules"
	"specmine/internal/seqpattern"
	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/verify"
)

func BenchmarkMineClosed(b *testing.B) {
	for _, c := range ClosedCases() {
		db := c.Gen()
		db.FlatIndex()
		if !c.SkipBaseline {
			db.Index()
		}
		b.Run(c.Name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := iterpattern.Mine(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		if c.SkipBaseline {
			continue
		}
		b.Run(c.Name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.MineClosed(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineClosedWorkers measures parallel scaling of the pattern miner
// on the cases marked Parallel. Interpret ns/op together with GOMAXPROCS
// (reported in the trajectory per row): on a single-processor runner the
// rows measure pool overhead, not speedup.
func BenchmarkMineClosedWorkers(b *testing.B) {
	for _, c := range ClosedCases() {
		if !c.Parallel {
			continue
		}
		db := c.Gen()
		db.FlatIndex()
		for _, workers := range ScalingWorkerCounts {
			opts := c.Opts
			opts.Workers = workers
			b.Run(fmt.Sprintf("%s/workers=%d", c.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := iterpattern.Mine(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMineSeqPatterns compares the unified-kernel sequential-pattern
// miner against the seed's map-based PrefixSpan on the comparator matrix.
func BenchmarkMineSeqPatterns(b *testing.B) {
	for _, c := range SeqPatternCases() {
		db := c.Gen()
		db.FlatIndex()
		b.Run(c.Name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := seqpattern.Mine(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.Name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.MineSeqPatterns(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineSeqPatternsWorkers measures the comparator's worker scaling
// on the Parallel cases (workers 1/4).
func BenchmarkMineSeqPatternsWorkers(b *testing.B) {
	for _, c := range SeqPatternCases() {
		if !c.Parallel {
			continue
		}
		db := c.Gen()
		db.FlatIndex()
		for _, workers := range ComparatorWorkerCounts {
			opts := c.Opts
			opts.Workers = workers
			b.Run(fmt.Sprintf("%s/workers=%d", c.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := seqpattern.Mine(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMineEpisodes compares the posting-driven episode miner against
// the seed's per-candidate window rescan on the comparator matrix.
func BenchmarkMineEpisodes(b *testing.B) {
	for _, c := range EpisodeCases() {
		db := c.Gen()
		db.FlatIndex()
		b.Run(c.Name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := episode.MineDatabase(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.Name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.MineEpisodeDatabase(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineEpisodesWorkers measures episode-mining worker scaling on the
// Parallel cases (workers 1/4).
func BenchmarkMineEpisodesWorkers(b *testing.B) {
	for _, c := range EpisodeCases() {
		if !c.Parallel {
			continue
		}
		db := c.Gen()
		db.FlatIndex()
		for _, workers := range ComparatorWorkerCounts {
			opts := c.Opts
			opts.Workers = workers
			b.Run(fmt.Sprintf("%s/workers=%d", c.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := episode.MineDatabase(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMineRules(b *testing.B) {
	for _, c := range RuleCases() {
		db := c.Gen()
		db.FlatIndex()
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rules.Mine(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineRulesWorkers measures parallel scaling of the rule miner —
// premise enumeration and consequent mining both fan out — on the cases
// marked Parallel.
func BenchmarkMineRulesWorkers(b *testing.B) {
	for _, c := range RuleCases() {
		if !c.Parallel {
			continue
		}
		db := c.Gen()
		db.FlatIndex()
		for _, workers := range ScalingWorkerCounts {
			opts := c.Opts
			opts.Workers = workers
			b.Run(fmt.Sprintf("%s/workers=%d", c.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := rules.Mine(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVerify compares the batched conformance engine against the
// per-rule rescan on the serving-path scenario: a fixed mined rule set
// checked against a fresh trace batch.
func BenchmarkVerify(b *testing.B) {
	for _, c := range VerifyCases() {
		ruleSet, db := c.Gen()
		if len(ruleSet) == 0 {
			b.Fatalf("%s: no rules mined", c.Name)
		}
		engine, err := verify.NewEngine(ruleSet)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/rules=%d/batched", c.Name, len(ruleSet)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = engine.Check(db)
			}
		})
		b.Run(fmt.Sprintf("%s/rules=%d/per-rule", c.Name, len(ruleSet)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range ruleSet {
					if _, err := baseline.CheckRule(db, r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	c := ClosedCases()[2]
	db := c.Gen()
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = seqdbBuildFlat(db)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = seqdbBuildMap(db)
		}
	})
}

// --- BENCH_mining.json trajectory (schema v8) ------------------------------

// scalingRow is one point of a worker-scaling curve. GOMAXPROCS and the
// machine's processor count are recorded per row — a parallel ns/op is
// meaningless without knowing how many processors the pool actually had. The
// v5 file recorded every parallel row at gomaxprocs 1 (identical ns/op for
// workers 2/4/8, measuring only pool overhead); v6 raises GOMAXPROCS to at
// least the worker count for every row and the writer refuses to emit a
// parallel row where it could not. Speedup is relative to the curve's
// 1-worker row; num_cpu reports the physical truth, so a curve measured on a
// single-core box is recognisable as overhead-only rather than mistaken for
// scaling.
type scalingRow struct {
	Workers    int     `json:"workers"`
	NsPerOp    int64   `json:"ns_per_op"`
	Gomaxprocs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Speedup    float64 `json:"speedup,omitempty"`
}

// scalingCurve measures one case across worker counts, raising GOMAXPROCS to
// max(NumCPU, workers) for the duration of each measurement (and restoring
// it), so every recorded row satisfies gomaxprocs >= workers. bench runs the
// case body at the given worker count for b.N iterations.
func scalingCurve(t *testing.T, counts []int, bench func(workers int, b *testing.B)) []scalingRow {
	t.Helper()
	rows := make([]scalingRow, 0, len(counts))
	var base int64
	for _, w := range counts {
		procs := runtime.NumCPU()
		if procs < w {
			procs = w
		}
		prev := runtime.GOMAXPROCS(procs)
		res := benchOnce(func(b *testing.B) { bench(w, b) })
		runtime.GOMAXPROCS(prev)
		row := scalingRow{Workers: w, NsPerOp: res.NsPerOp(), Gomaxprocs: procs, NumCPU: runtime.NumCPU()}
		if w > 1 && row.Gomaxprocs < w {
			// The writer's refusal contract: a parallel row measured with
			// fewer processors than workers is the v5 lie all over again.
			t.Fatalf("refusing to record workers=%d scaling row at gomaxprocs=%d", w, row.Gomaxprocs)
		}
		if w == 1 {
			base = row.NsPerOp
		} else if base > 0 {
			row.Speedup = round2(float64(base) / float64(row.NsPerOp))
		}
		rows = append(rows, row)
	}
	return rows
}

// trajectoryCase is one closed-mining row of the checked-in trajectory.
type trajectoryCase struct {
	Name            string       `json:"name"`
	Sequences       int          `json:"sequences"`
	Alphabet        int          `json:"alphabet"`
	Density         string       `json:"density"`
	Patterns        int          `json:"patterns"`
	FlatNsPerOp     int64        `json:"flat_ns_per_op"`
	FlatAllocsPerOp int64        `json:"flat_allocs_per_op"`
	FlatBytesPerOp  int64        `json:"flat_bytes_per_op"`
	BaseNsPerOp     int64        `json:"baseline_ns_per_op,omitempty"`
	BaseAllocsPerOp int64        `json:"baseline_allocs_per_op,omitempty"`
	BaseBytesPerOp  int64        `json:"baseline_bytes_per_op,omitempty"`
	Speedup         float64      `json:"speedup,omitempty"`
	AllocReduction  float64      `json:"alloc_reduction,omitempty"`
	BytesReduction  float64      `json:"bytes_reduction,omitempty"`
	Scaling         []scalingRow `json:"scaling,omitempty"`
}

// comparatorTrajectoryCase is one comparator-miner (seqpattern / episode)
// row: unified-kernel numbers against the retained seed implementation.
type comparatorTrajectoryCase struct {
	Name            string       `json:"name"`
	Results         int          `json:"results"`
	FlatNsPerOp     int64        `json:"flat_ns_per_op"`
	FlatAllocsPerOp int64        `json:"flat_allocs_per_op"`
	FlatBytesPerOp  int64        `json:"flat_bytes_per_op"`
	BaseNsPerOp     int64        `json:"baseline_ns_per_op"`
	BaseAllocsPerOp int64        `json:"baseline_allocs_per_op"`
	BaseBytesPerOp  int64        `json:"baseline_bytes_per_op"`
	Speedup         float64      `json:"speedup"`
	Scaling         []scalingRow `json:"scaling,omitempty"`
}

// ruleTrajectoryCase is one rule-mining row.
type ruleTrajectoryCase struct {
	Name        string       `json:"name"`
	Rules       int          `json:"rules"`
	NsPerOp     int64        `json:"ns_per_op"`
	AllocsPerOp int64        `json:"allocs_per_op"`
	BytesPerOp  int64        `json:"bytes_per_op"`
	Scaling     []scalingRow `json:"scaling,omitempty"`
}

// verifyTrajectoryCase is one batched-verification row. Since the online
// overhaul the batched engine drives the per-event checker, so the row also
// records the per-event view of the same work (events/sec and allocations
// per event through a reused Checker).
type verifyTrajectoryCase struct {
	Name               string  `json:"name"`
	Rules              int     `json:"rules"`
	Traces             int     `json:"traces"`
	Events             int     `json:"events"`
	BatchedNsPerOp     int64   `json:"batched_ns_per_op"`
	BatchedAllocsPerOp int64   `json:"batched_allocs_per_op"`
	PerRuleNsPerOp     int64   `json:"per_rule_ns_per_op"`
	PerRuleAllocsPerOp int64   `json:"per_rule_allocs_per_op"`
	Speedup            float64 `json:"speedup"`
	OnlineEventsPerSec float64 `json:"online_events_per_sec"`
	OnlineAllocsPerEvt float64 `json:"online_allocs_per_event"`
}

// streamTrajectoryCase is one streaming-ingestion row: a chunked trace
// stream pushed through the sharded ingester (sealing, online checking when
// configured, seal barriers, final snapshot).
type streamTrajectoryCase struct {
	Name           string  `json:"name"`
	Shards         int     `json:"shards"`
	Traces         int     `json:"traces"`
	Events         int     `json:"events"`
	Checked        bool    `json:"checked"`
	NsPerOp        int64   `json:"ns_per_op"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerOp     int64   `json:"bytes_per_op"`
}

// storeTrajectoryCase is one durable-ingestion row (schema v5): the same
// chunk stream through the store-backed ingester and the memory-only one,
// the throughput ratio between them (the acceptance bar is >= 0.25), a cold
// recovery rate, and the store's on-disk footprint after a clean close.
type storeTrajectoryCase struct {
	Name                string  `json:"name"`
	Shards              int     `json:"shards"`
	Traces              int     `json:"traces"`
	Events              int     `json:"events"`
	DurableNsPerOp      int64   `json:"durable_ns_per_op"`
	DurableEventsPerSec float64 `json:"durable_events_per_sec"`
	MemoryNsPerOp       int64   `json:"memory_ns_per_op"`
	MemoryEventsPerSec  float64 `json:"memory_events_per_sec"`
	DurableVsMemory     float64 `json:"durable_vs_memory"`
	RecoverNsPerOp      int64   `json:"recover_ns_per_op"`
	RecoverEventsPerSec float64 `json:"recover_events_per_sec"`
	WALBytes            int64   `json:"wal_bytes"`
	SegmentBytes        int64   `json:"segment_bytes"`
	Segments            int     `json:"segments"`
}

// oocoreTrajectoryCase is one out-of-core row (schema v7): the clustered
// fixture of internal/bench/oocore.go mined through the pin-and-evict
// segment cache at one cache budget, against the in-memory cold path (eager
// open + index + mine) on the same store. Three rows per fixture sweep the
// budget — a quarter of the decoded size, half of it, and unlimited — so the
// trajectory records how the ratio degrades as the cache tightens.
// SelectiveSkipRate is the fraction of segment bodies the cluster-0 rule
// check never decoded (TestOocoreFixture asserts ≥ 0.9 at two budgets);
// the cache counters come from one instrumented full-sweep mining run.
type oocoreTrajectoryCase struct {
	Name              string  `json:"name"`
	Clusters          int     `json:"clusters"`
	Traces            int     `json:"traces"`
	Segments          int     `json:"segments"`
	DecodedBytes      int64   `json:"decoded_bytes"`
	CacheBytes        int64   `json:"cache_bytes"` // 0 = unlimited
	InMemoryNsPerOp   int64   `json:"inmemory_ns_per_op"`
	OocoreNsPerOp     int64   `json:"oocore_ns_per_op"`
	OocoreVsInMemory  float64 `json:"oocore_vs_inmemory"`
	CheckNsPerOp      int64   `json:"check_ns_per_op"`
	SelectiveSkipRate float64 `json:"selective_skip_rate"`
	BodiesOpened      int64   `json:"bodies_opened"`
	CacheEvictions    int64   `json:"cache_evictions"`
	PeakCacheBytes    int64   `json:"peak_cache_bytes"`
}

type trajectory struct {
	Schema          string                     `json:"schema"`
	Generator       string                     `json:"generator"`
	GoVersion       string                     `json:"go_version"`
	NumCPU          int                        `json:"num_cpu"`
	Gomaxprocs      int                        `json:"gomaxprocs"`
	Cases           []trajectoryCase           `json:"cases"`
	SeqPatternCases []comparatorTrajectoryCase `json:"seqpattern_cases"`
	EpisodeCases    []comparatorTrajectoryCase `json:"episode_cases"`
	RuleCases       []ruleTrajectoryCase       `json:"rule_cases"`
	VerifyCases     []verifyTrajectoryCase     `json:"verify_cases"`
	StreamCases     []streamTrajectoryCase     `json:"stream_cases"`
	StoreCases      []storeTrajectoryCase      `json:"store_cases"`
	OocoreCases     []oocoreTrajectoryCase     `json:"oocore_cases"`
}

// benchOnce measures one case best-of-3: a single testing.Benchmark sample
// on a virtualised runner can land 2x off its steady-state value (observed
// on the verify rows of the v4->v5 regeneration), and a noise-inflated row
// would misdocument the performance the trajectory records.
func benchOnce(f func(b *testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		if i == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	return best
}

// TestWriteBenchTrajectory regenerates BENCH_mining.json at the repository
// root. It is the authoritative producer of the checked-in file, a
// historical record of the benchmark matrix that no gate reads (the
// performance gates are TestPerfGates, measured live); run it with
//
//	SPECMINE_WRITE_BENCH=1 go test ./internal/bench -run TestWriteBenchTrajectory -v -timeout 30m
//
// Without the environment variable the test is skipped, so routine test runs
// never rewrite the artifact (or pay the benchmarking cost).
func TestWriteBenchTrajectory(t *testing.T) {
	if os.Getenv("SPECMINE_WRITE_BENCH") == "" {
		t.Skip("set SPECMINE_WRITE_BENCH=1 to regenerate BENCH_mining.json")
	}
	out := trajectory{
		Schema:     "specmine/bench-mining/v8",
		Generator:  "SPECMINE_WRITE_BENCH=1 go test ./internal/bench -run TestWriteBenchTrajectory",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
	}
	for _, c := range ClosedCases() {
		db := c.Gen()
		db.FlatIndex()
		res, err := iterpattern.Mine(db, c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		flat := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := iterpattern.Mine(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		tc := trajectoryCase{
			Name:            c.Name,
			Sequences:       c.Sequences,
			Alphabet:        c.Alphabet,
			Density:         c.Density,
			Patterns:        len(res.Patterns),
			FlatNsPerOp:     flat.NsPerOp(),
			FlatAllocsPerOp: flat.AllocsPerOp(),
			FlatBytesPerOp:  flat.AllocedBytesPerOp(),
		}
		if !c.SkipBaseline {
			db.Index()
			base := benchOnce(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := baseline.MineClosed(db, c.Opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			tc.BaseNsPerOp = base.NsPerOp()
			tc.BaseAllocsPerOp = base.AllocsPerOp()
			tc.BaseBytesPerOp = base.AllocedBytesPerOp()
			tc.Speedup = round2(float64(base.NsPerOp()) / float64(flat.NsPerOp()))
			tc.AllocReduction = round2(float64(base.AllocsPerOp()) / float64(flat.AllocsPerOp()))
			tc.BytesReduction = round2(float64(base.AllocedBytesPerOp()) / float64(flat.AllocedBytesPerOp()))
		}
		if c.Parallel {
			tc.Scaling = scalingCurve(t, ScalingWorkerCounts, func(workers int, b *testing.B) {
				opts := c.Opts
				opts.Workers = workers
				for i := 0; i < b.N; i++ {
					if _, err := iterpattern.Mine(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		out.Cases = append(out.Cases, tc)
		t.Logf("%s: flat %v ns/op (%d allocs), speedup %.2fx", c.Name, tc.FlatNsPerOp, tc.FlatAllocsPerOp, tc.Speedup)
	}

	for _, c := range SeqPatternCases() {
		db := c.Gen()
		db.FlatIndex()
		res, err := seqpattern.Mine(db, c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		flat := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := seqpattern.Mine(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		base := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.MineSeqPatterns(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		tc := comparatorTrajectoryCase{
			Name:            c.Name,
			Results:         len(res.Patterns),
			FlatNsPerOp:     flat.NsPerOp(),
			FlatAllocsPerOp: flat.AllocsPerOp(),
			FlatBytesPerOp:  flat.AllocedBytesPerOp(),
			BaseNsPerOp:     base.NsPerOp(),
			BaseAllocsPerOp: base.AllocsPerOp(),
			BaseBytesPerOp:  base.AllocedBytesPerOp(),
			Speedup:         round2(float64(base.NsPerOp()) / float64(flat.NsPerOp())),
		}
		if c.Parallel {
			tc.Scaling = scalingCurve(t, ComparatorWorkerCounts, func(workers int, b *testing.B) {
				opts := c.Opts
				opts.Workers = workers
				for i := 0; i < b.N; i++ {
					if _, err := seqpattern.Mine(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		out.SeqPatternCases = append(out.SeqPatternCases, tc)
		t.Logf("%s: flat %v ns/op vs seed %v ns/op (%.2fx), %d patterns",
			c.Name, tc.FlatNsPerOp, tc.BaseNsPerOp, tc.Speedup, tc.Results)
	}

	for _, c := range EpisodeCases() {
		db := c.Gen()
		db.FlatIndex()
		res, err := episode.MineDatabase(db, c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		flat := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := episode.MineDatabase(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		base := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.MineEpisodeDatabase(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		tc := comparatorTrajectoryCase{
			Name:            c.Name,
			Results:         len(res.Episodes),
			FlatNsPerOp:     flat.NsPerOp(),
			FlatAllocsPerOp: flat.AllocsPerOp(),
			FlatBytesPerOp:  flat.AllocedBytesPerOp(),
			BaseNsPerOp:     base.NsPerOp(),
			BaseAllocsPerOp: base.AllocsPerOp(),
			BaseBytesPerOp:  base.AllocedBytesPerOp(),
			Speedup:         round2(float64(base.NsPerOp()) / float64(flat.NsPerOp())),
		}
		if c.Parallel {
			tc.Scaling = scalingCurve(t, ComparatorWorkerCounts, func(workers int, b *testing.B) {
				opts := c.Opts
				opts.Workers = workers
				for i := 0; i < b.N; i++ {
					if _, err := episode.MineDatabase(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		out.EpisodeCases = append(out.EpisodeCases, tc)
		t.Logf("%s: flat %v ns/op vs seed %v ns/op (%.2fx), %d episodes",
			c.Name, tc.FlatNsPerOp, tc.BaseNsPerOp, tc.Speedup, tc.Results)
	}

	for _, c := range RuleCases() {
		db := c.Gen()
		db.FlatIndex()
		res, err := rules.Mine(db, c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		run := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rules.Mine(db, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		rc := ruleTrajectoryCase{
			Name:        c.Name,
			Rules:       len(res.Rules),
			NsPerOp:     run.NsPerOp(),
			AllocsPerOp: run.AllocsPerOp(),
			BytesPerOp:  run.AllocedBytesPerOp(),
		}
		if c.Parallel {
			rc.Scaling = scalingCurve(t, ScalingWorkerCounts, func(workers int, b *testing.B) {
				opts := c.Opts
				opts.Workers = workers
				for i := 0; i < b.N; i++ {
					if _, err := rules.Mine(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		out.RuleCases = append(out.RuleCases, rc)
		t.Logf("%s: %v ns/op, %d rules", c.Name, rc.NsPerOp, rc.Rules)
	}

	for _, c := range VerifyCases() {
		ruleSet, db := c.Gen()
		if len(ruleSet) == 0 {
			t.Fatalf("%s: no rules mined", c.Name)
		}
		engine, err := verify.NewEngine(ruleSet)
		if err != nil {
			t.Fatal(err)
		}
		batched := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = engine.Check(db)
			}
		})
		perRule := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range ruleSet {
					if _, err := baseline.CheckRule(db, r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		events := db.NumEvents()
		checker := engine.NewChecker()
		online := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tally := engine.NewTally()
				for si, s := range db.Sequences {
					for _, ev := range s {
						checker.Advance(ev)
					}
					checker.Close(si, tally)
				}
				_ = engine.Reports([]*verify.Tally{tally}, tally.Parts())
			}
		})
		vc := verifyTrajectoryCase{
			Name:               c.Name,
			Rules:              len(ruleSet),
			Traces:             db.NumSequences(),
			Events:             events,
			BatchedNsPerOp:     batched.NsPerOp(),
			BatchedAllocsPerOp: batched.AllocsPerOp(),
			PerRuleNsPerOp:     perRule.NsPerOp(),
			PerRuleAllocsPerOp: perRule.AllocsPerOp(),
			Speedup:            round2(float64(perRule.NsPerOp()) / float64(batched.NsPerOp())),
			OnlineEventsPerSec: round2(float64(events) * 1e9 / float64(online.NsPerOp())),
			OnlineAllocsPerEvt: round2(float64(online.AllocsPerOp()) / float64(events)),
		}
		out.VerifyCases = append(out.VerifyCases, vc)
		t.Logf("%s: batched %v ns/op vs per-rule %v ns/op (%.2fx), online %.0f events/sec",
			c.Name, vc.BatchedNsPerOp, vc.PerRuleNsPerOp, vc.Speedup, vc.OnlineEventsPerSec)
	}

	for _, c := range StreamCases() {
		dict, ops, engine, events := c.GenStream()
		run := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ing, err := stream.Open(stream.Config{
					Shards: c.Shards, FlushBatch: c.FlushBatch, Dict: dict, Engine: engine,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, op := range ops {
					if op.Seal {
						if err := ing.CloseTrace(op.TraceID); err != nil {
							b.Fatal(err)
						}
					} else if err := ing.IngestIDs(op.TraceID, op.Events...); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := ing.Snapshot(); err != nil {
					b.Fatal(err)
				}
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		sc := streamTrajectoryCase{
			Name:           c.Name,
			Shards:         c.Shards,
			Traces:         c.Traces,
			Events:         events,
			Checked:        c.Checked,
			NsPerOp:        run.NsPerOp(),
			EventsPerSec:   round2(float64(events) * 1e9 / float64(run.NsPerOp())),
			AllocsPerEvent: round2(float64(run.AllocsPerOp()) / float64(events)),
			BytesPerOp:     run.AllocedBytesPerOp(),
		}
		out.StreamCases = append(out.StreamCases, sc)
		t.Logf("%s: %v ns/op, %.0f events/sec, %.2f allocs/event", c.Name, sc.NsPerOp, sc.EventsPerSec, sc.AllocsPerEvent)
	}

	for _, c := range StoreCases() {
		dict, ops, _, events := c.GenStream()
		durable := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp("", "specmine-traj-store-*")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := replayDurable(dir, c, dict, ops, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		})
		memory := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := replayMemory(c, dict, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
		// A persistent replay backs the recovery measurement and the on-disk
		// footprint. Measure the footprint first: each benchmarked Open
		// canonicalises and compacts, and the recorded numbers must describe
		// the store as a clean close left it.
		recDir := filepath.Join(t.TempDir(), "traj-recover-"+c.Name)
		if err := replayDurable(recDir, c, dict, ops, nil); err != nil {
			t.Fatal(err)
		}
		walBytes, segBytes, segments, err := storeFootprint(recDir)
		if err != nil {
			t.Fatal(err)
		}
		recov := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.Open(store.Options{Dir: recDir})
				if err != nil {
					b.Fatal(err)
				}
				db := st.Recovered().Database(st.Dict())
				db.FlatIndex()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		sc := storeTrajectoryCase{
			Name:                c.Name,
			Shards:              c.Shards,
			Traces:              c.Traces,
			Events:              events,
			DurableNsPerOp:      durable.NsPerOp(),
			DurableEventsPerSec: round2(float64(events) * 1e9 / float64(durable.NsPerOp())),
			MemoryNsPerOp:       memory.NsPerOp(),
			MemoryEventsPerSec:  round2(float64(events) * 1e9 / float64(memory.NsPerOp())),
			DurableVsMemory:     round2(float64(memory.NsPerOp()) / float64(durable.NsPerOp())),
			RecoverNsPerOp:      recov.NsPerOp(),
			RecoverEventsPerSec: round2(float64(events) * 1e9 / float64(recov.NsPerOp())),
			WALBytes:            walBytes,
			SegmentBytes:        segBytes,
			Segments:            segments,
		}
		out.StoreCases = append(out.StoreCases, sc)
		t.Logf("%s: durable %.0f events/sec (%.2fx of memory), recover %.0f events/sec, %d segments / %d KiB",
			c.Name, sc.DurableEventsPerSec, sc.DurableVsMemory, sc.RecoverEventsPerSec, sc.Segments, (walBytes+segBytes)>>10)
	}

	for _, c := range OocoreCases() {
		dir := t.TempDir()
		decoded, err := c.BuildStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		eager, err := store.Open(c.OpenOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		db := eager.Recovered().Database(eager.Dict())
		db.FlatIndex()
		popts := core.PatternOptions{MinInstanceSupport: c.MinSupport(), MaxPatternLength: 3}
		ref, err := core.MinePatterns(db, popts)
		if err != nil {
			t.Fatal(err)
		}
		selective := c.SelectiveRules(db)
		traces := db.NumSequences()
		if err := eager.Close(); err != nil {
			t.Fatal(err)
		}

		// The in-memory side is the cold path a caller actually pays to mine
		// a durable store in memory: eager open (decode every segment), build
		// the index, mine, close. Measured once — the budget sweep below only
		// varies the out-of-core side.
		inmem := benchOnce(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.Open(c.OpenOptions(dir))
				if err != nil {
					b.Fatal(err)
				}
				mdb := st.Recovered().Database(st.Dict())
				mdb.FlatIndex()
				if _, err := core.MinePatterns(mdb, popts); err != nil {
					b.Fatal(err)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})

		lazyOpts := c.OpenOptions(dir)
		lazyOpts.OutOfCore = true
		lazy, err := store.Open(lazyOpts)
		if err != nil {
			t.Fatal(err)
		}
		budgets := []struct {
			label string
			bytes int64
		}{
			{"quarter", decoded / 4},
			{"half", decoded / 2},
			{"unlimited", 0},
		}
		for _, bd := range budgets {
			oo := core.OutOfCoreOptions{CacheBytes: bd.bytes}
			res, mstats, err := core.MineStore(lazy, popts, oo)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Patterns) != len(ref.Patterns) {
				t.Fatalf("%s/%s: MineStore found %d patterns, in-memory %d",
					c.Name, bd.label, len(res.Patterns), len(ref.Patterns))
			}
			mine := benchOnce(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.MineStore(lazy, popts, oo); err != nil {
						b.Fatal(err)
					}
				}
			})
			_, cstats, err := core.CheckStore(lazy, selective, oo)
			if err != nil {
				t.Fatal(err)
			}
			check := benchOnce(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.CheckStore(lazy, selective, oo); err != nil {
						b.Fatal(err)
					}
				}
			})
			oc := oocoreTrajectoryCase{
				Name:              c.Name + "/budget=" + bd.label,
				Clusters:          c.Clusters,
				Traces:            traces,
				Segments:          mstats.SegmentsTotal,
				DecodedBytes:      decoded,
				CacheBytes:        bd.bytes,
				InMemoryNsPerOp:   inmem.NsPerOp(),
				OocoreNsPerOp:     mine.NsPerOp(),
				OocoreVsInMemory:  round2(float64(inmem.NsPerOp()) / float64(mine.NsPerOp())),
				CheckNsPerOp:      check.NsPerOp(),
				SelectiveSkipRate: round2(float64(cstats.SegmentsSkipped) / float64(cstats.SegmentsTotal)),
				BodiesOpened:      mstats.Obs.Counter("cache.bodies_opened").Value(),
				CacheEvictions:    mstats.Obs.Counter("cache.evictions").Value(),
				PeakCacheBytes:    mstats.Obs.Gauge("cache.peak_bytes").Value(),
			}
			out.OocoreCases = append(out.OocoreCases, oc)
			t.Logf("%s: oocore %v ns/op vs in-memory %v ns/op (%.2fx), skip %.2f, %d bodies opened",
				oc.Name, oc.OocoreNsPerOp, oc.InMemoryNsPerOp, oc.OocoreVsInMemory, oc.SelectiveSkipRate, oc.BodiesOpened)
		}

		if err := lazy.Close(); err != nil {
			t.Fatal(err)
		}
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_mining.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
