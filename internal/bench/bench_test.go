package bench

import (
	"fmt"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/episode"
	"specmine/internal/iterpattern"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/seqpattern"
	"specmine/internal/verify"
)

func BenchmarkMineClosed(b *testing.B) {
	for _, c := range ClosedCases() {
		db := c.Gen()
		db.FlatIndex()
		var pos baseline.Positions
		if !c.SkipBaseline {
			pos = baseline.Index(db)
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
				if _, err := baseline.MineClosed(db, pos, c.Opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineClosedWorkers measures parallel scaling of the pattern miner
// on the cases marked Parallel. Interpret ns/op together with GOMAXPROCS: on
// a single-processor runner the rows measure pool overhead, not speedup.
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
			_ = seqdb.BuildPositionIndex(db.Sequences, db.Dict.Size())
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = baseline.Index(db)
		}
	})
}
