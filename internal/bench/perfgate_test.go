package bench

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"specmine/internal/bench/baseline"
	"specmine/internal/iterpattern"
	"specmine/internal/obs"
	"specmine/internal/seqpattern"
	"specmine/internal/verify"
)

// Performance gates. Every gate is a ratio between two paths measured in
// this process, a reference and the guarded path, so host speed falls on
// both sides and cancels out of the ratio. The references are the seed
// implementations in bench/baseline, the workers=1 run and the
// uninstrumented run. Each baseline floor is about two thirds of the median
// ratio over repeated runs on a 2-CPU host, so halving the guarded path's
// speed fails the gate; CHANGES.md records the runs behind each value.
const (
	// closedFloor bounds baseline.MineClosed / iterpattern.Mine time on
	// ClosedCases()[0].
	closedFloor = 2.5
	// verifyFloor bounds the per-rule baseline.CheckRule loop / Engine.Check
	// time on VerifyCases()[0].
	verifyFloor = 7.2
	// seqPatternFloor bounds baseline.MineSeqPatterns / seqpattern.Mine time
	// on SeqPatternCases()[0].
	seqPatternFloor = 8
	// speedupFloor bounds workers=1 / workers=speedupWorkers time on
	// ClosedCases()[0]. Below speedupWorkers CPUs the ratio measures pool
	// overhead, not parallelism, and the gate only logs.
	speedupFloor   = 2.5
	speedupWorkers = 4
	// obsFloor bounds uninstrumented / instrumented time of durable ingest
	// on StoreCases()[0]: a live metrics registry on the store and the
	// ingester may cost at most 3%.
	obsFloor = 0.97

	// A gate times one run of each side per pair and keeps taking pairs
	// until gateTime has passed and it has at least minPairs. Pairs of
	// single runs keep each pair's two sides milliseconds apart, shorter
	// than the swings in host speed that a long sample straddles.
	gateTime = 3 * time.Second
	minPairs = 7
)

// TestPerfGates runs the performance gates. It is skipped unless
// SPECMINE_PERF_GATES=1:
//
//	SPECMINE_PERF_GATES=1 GOMAXPROCS=$(nproc) go test ./internal/bench -run TestPerfGates -count=1 -v
func TestPerfGates(t *testing.T) {
	if os.Getenv("SPECMINE_PERF_GATES") != "1" {
		t.Skip("set SPECMINE_PERF_GATES=1 to run the performance gates")
	}
	t.Logf("num_cpu=%d gomaxprocs=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	t.Run("closed", func(t *testing.T) {
		c := ClosedCases()[0]
		db := c.Gen()
		db.FlatIndex()
		pos := baseline.Index(db)
		gate(t, closedFloor, nil,
			func() error { _, err := baseline.MineClosed(db, pos, c.Opts); return err },
			func() error { _, err := iterpattern.Mine(db, c.Opts); return err })
	})

	t.Run("verify", func(t *testing.T) {
		ruleSet, db := VerifyCases()[0].Gen()
		engine, err := verify.NewEngine(ruleSet)
		if err != nil {
			t.Fatal(err)
		}
		gate(t, verifyFloor, nil,
			func() error {
				for _, r := range ruleSet {
					if _, err := baseline.CheckRule(db, r); err != nil {
						return err
					}
				}
				return nil
			},
			func() error { engine.Check(db); return nil })
	})

	t.Run("seqpattern", func(t *testing.T) {
		c := SeqPatternCases()[0]
		db := c.Gen()
		db.FlatIndex()
		gate(t, seqPatternFloor, nil,
			func() error { _, err := baseline.MineSeqPatterns(db, c.Opts); return err },
			func() error { _, err := seqpattern.Mine(db, c.Opts); return err })
	})

	t.Run("speedup", func(t *testing.T) {
		c := ClosedCases()[0]
		db := c.Gen()
		db.FlatIndex()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.NumCPU(), speedupWorkers)))
		mine := func(workers int) func() error {
			opts := c.Opts
			opts.Workers = workers
			return func() error { _, err := iterpattern.Mine(db, opts); return err }
		}
		if runtime.NumCPU() < speedupWorkers {
			ratio, pairs := pairedRatio(t, nil, mine(1), mine(speedupWorkers))
			t.Logf("%.2fx over %d pairs; floor %.2fx not enforced: num_cpu=%d < %d",
				ratio, pairs, speedupFloor, runtime.NumCPU(), speedupWorkers)
			return
		}
		gate(t, speedupFloor, nil, mine(1), mine(speedupWorkers))
	})

	t.Run("obs", func(t *testing.T) {
		c := StoreCases()[0]
		dict, ops, _, _ := c.GenStream()
		dir := filepath.Join(t.TempDir(), "store")
		ingest := func(instrumented bool) func() error {
			return func() error {
				var reg *obs.Registry
				if instrumented {
					// A fresh registry per run keeps registration on the
					// clock, as a real instrumented session pays it.
					reg = obs.NewRegistry()
				}
				return replayDurable(dir, c, dict, ops, reg)
			}
		}
		gate(t, obsFloor, func() { os.RemoveAll(dir) }, ingest(false), ingest(true))
	})
}

// gate fails t when the paired ratio of ref to guarded time is below floor.
func gate(t *testing.T, floor float64, reset func(), ref, guarded func() error) {
	t.Helper()
	ratio, pairs := pairedRatio(t, reset, ref, guarded)
	if ratio < floor {
		t.Fatalf("%.2fx over %d pairs, below floor %.2fx", ratio, pairs, floor)
	}
	t.Logf("%.2fx over %d pairs, floor %.2fx", ratio, pairs, floor)
}

// pairedRatio times one run of ref and one of guarded per pair, the side
// that runs first swapping every pair, and returns the median over pairs of
// ref time / guarded time, and the number of pairs. One untimed run of each
// side warms caches first. reset, when non-nil, runs off the clock before
// every run.
func pairedRatio(t *testing.T, reset func(), ref, guarded func() error) (float64, int) {
	t.Helper()
	run := func(op func() error) time.Duration {
		if reset != nil {
			reset()
		}
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(ref)
	run(guarded)
	var ratios []float64
	for start := time.Now(); len(ratios) < minPairs || time.Since(start) < gateTime; {
		var r, g time.Duration
		if len(ratios)%2 == 0 {
			r, g = run(ref), run(guarded)
		} else {
			g, r = run(guarded), run(ref)
		}
		ratios = append(ratios, float64(r)/float64(g))
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], len(ratios)
}
