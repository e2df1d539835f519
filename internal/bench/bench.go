// Package bench defines the mining-core benchmark matrix: closed-pattern
// mining, rule mining and batched conformance checking over tracesim and
// synth workloads that vary the number of sequences, the alphabet size and
// the event density. The matrix backs three artifacts:
//
//   - go test -bench benchmarks comparing the flat-index miner against the
//     seed's map-based implementation (package bench/baseline), plus
//     worker-scaling and batched-vs-per-rule verification benchmarks;
//   - equivalence regression tests asserting that the rewritten and the
//     parallel miners produce results identical to the seed algorithm, and
//     that the batched verifier reproduces the per-rule reports;
//   - TestPerfGates, in-process ratio floors against those references
//     (SPECMINE_PERF_GATES=1, see perfgate_test.go).
//
// Thresholds are chosen so every case finishes in milliseconds-to-seconds:
// iterative-pattern mining is exponential below a workload-dependent support
// cliff (the paper's Figure 1 regime), and the benchmark matrix deliberately
// stays on the tractable side of it while still exercising millions of
// search-node operations. The dense looping cases (`transaction-*`) probe the
// support-cliff neighbourhood itself: looping traces generate near-quadratic
// instance populations, which is exactly what the run-compressed, count-first
// mining core exists for.
package bench

import (
	"specmine/internal/episode"
	"specmine/internal/iterpattern"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/seqpattern"
	"specmine/internal/synth"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// ClosedCase is one closed-pattern mining benchmark configuration.
type ClosedCase struct {
	Name string
	Gen  func() *seqdb.Database
	Opts iterpattern.Options
	// SkipBaseline marks stress cases too heavy for the seed's map-based
	// miner; the benchmarks then measure the flat miner only.
	SkipBaseline bool
	// Parallel marks the cases that get worker-scaling rows (workers
	// 1/2/4/8) in the benchmark matrix.
	Parallel bool
}

// ScalingWorkerCounts are the worker-pool sizes measured for the cases marked
// Parallel. The 1-worker row anchors each curve.
var ScalingWorkerCounts = []int{1, 2, 4, 8}

// ClosedCases returns the closed-pattern benchmark matrix. The first case is
// the acceptance headline: >= 50 sequences over an alphabet of >= 100 events.
func ClosedCases() []ClosedCase {
	synthCase := func(name string, cfg synth.Config, minSup int) ClosedCase {
		return ClosedCase{
			Name: name,
			Gen:  func() *seqdb.Database { return synth.MustGenerate(cfg) },
			Opts: iterpattern.Options{MinInstanceSupport: minSup},
		}
	}
	traceCase := func(name, workload string, traces int, opts iterpattern.Options) ClosedCase {
		w := tracesim.Workloads()[workload]
		return ClosedCase{
			Name: name,
			Gen:  func() *seqdb.Database { return w.MustGenerate(traces, 7) },
			Opts: opts,
		}
	}
	cases := []ClosedCase{
		synthCase("synth-D0.05C30N0.1S8-sup20",
			synth.Config{NumSequences: 50, AvgSequenceLength: 30, NumEvents: 100, AvgPatternLength: 8, Seed: 1}, 20),
		synthCase("synth-D0.1C40N0.2S10-sup35",
			synth.Config{NumSequences: 100, AvgSequenceLength: 40, NumEvents: 200, AvgPatternLength: 10, Seed: 2}, 35),
		synthCase("synth-D0.2C50N1S10-sup60",
			synth.Config{NumSequences: 200, AvgSequenceLength: 50, NumEvents: 1000, AvgPatternLength: 10, Seed: 3}, 60),
		traceCase("tracesim-transaction-x50-len4", "transaction", 50,
			iterpattern.Options{MinSupportRel: 0.9, MaxPatternLength: 4}),
		traceCase("tracesim-security-x50-len4", "security", 50,
			iterpattern.Options{MinSupportRel: 0.9, MaxPatternLength: 4}),
		traceCase("tracesim-locking-x50-len4", "locking", 50,
			iterpattern.Options{MinSupportRel: 0.9, MaxPatternLength: 4}),
		traceCase("tracesim-transaction-x100-len6", "transaction", 100,
			iterpattern.Options{MinSupportRel: 0.9, MaxPatternLength: 6}),
	}
	cases[0].Parallel = true     // acceptance headline
	cases[3].Parallel = true     // dense looping target of the overhaul
	cases[6].SkipBaseline = true // seed miner needs minutes per op here
	cases[6].Parallel = true
	return cases
}

// ComparatorWorkerCounts are the worker-pool sizes measured for the
// comparator miners' Parallel cases (sequential row plus one mid-size pool).
var ComparatorWorkerCounts = []int{1, 4}

// SeqPatternCase is one sequential-pattern (PrefixSpan comparator) benchmark
// configuration, measured for the unified-kernel miner and the seed
// implementation preserved in bench/baseline.
type SeqPatternCase struct {
	Name string
	Gen  func() *seqdb.Database
	Opts seqpattern.Options
	// Parallel marks the cases with worker-scaling rows (workers 1/4).
	Parallel bool
}

// SeqPatternCases returns the sequential-pattern benchmark matrix. The first
// case is the comparator headline TestPerfGates guards: dense looping traces,
// the regime where the seed's per-node maps and quadratic closedness filter
// collapse.
func SeqPatternCases() []SeqPatternCase {
	traceCase := func(name, workload string, traces int, opts seqpattern.Options) SeqPatternCase {
		w := tracesim.Workloads()[workload]
		return SeqPatternCase{
			Name: name,
			Gen:  func() *seqdb.Database { return w.MustGenerate(traces, 7) },
			Opts: opts,
		}
	}
	cases := []SeqPatternCase{
		traceCase("seqpattern-transaction-x50-len4-closed", "transaction", 50,
			seqpattern.Options{MinSupportRel: 0.9, MaxPatternLength: 4, ClosedOnly: true}),
		{
			Name: "seqpattern-quest-D0.05C30N0.1S8-sup15-closed",
			Gen: func() *seqdb.Database {
				return synth.MustGenerate(synth.Config{NumSequences: 50, AvgSequenceLength: 30, NumEvents: 100, AvgPatternLength: 8, Seed: 1})
			},
			Opts: seqpattern.Options{MinSeqSupport: 15, ClosedOnly: true},
		},
		traceCase("seqpattern-security-x50-len4-full", "security", 50,
			seqpattern.Options{MinSupportRel: 0.5, MaxPatternLength: 4}),
	}
	cases[0].Parallel = true
	return cases
}

// EpisodeCase is one episode-mining (WINEPI comparator) benchmark
// configuration over a trace database, measured for the posting-driven miner
// and the seed's window-rescan implementation in bench/baseline.
type EpisodeCase struct {
	Name     string
	Gen      func() *seqdb.Database
	Opts     episode.Options
	Parallel bool
}

// EpisodeCases returns the episode benchmark matrix.
func EpisodeCases() []EpisodeCase {
	traceCase := func(name, workload string, traces int, opts episode.Options) EpisodeCase {
		w := tracesim.Workloads()[workload]
		return EpisodeCase{
			Name: name,
			Gen:  func() *seqdb.Database { return w.MustGenerate(traces, 7) },
			Opts: opts,
		}
	}
	cases := []EpisodeCase{
		traceCase("episode-transaction-x50-w6-len3", "transaction", 50,
			episode.Options{WindowWidth: 6, MinFrequency: 0.3, MaxEpisodeLength: 3}),
		traceCase("episode-locking-x100-w8-len4", "locking", 100,
			episode.Options{WindowWidth: 8, MinFrequency: 0.1, MaxEpisodeLength: 4}),
		traceCase("episode-security-x50-w6-len3", "security", 50,
			episode.Options{WindowWidth: 6, MinFrequency: 0.05, MaxEpisodeLength: 3}),
	}
	cases[0].Parallel = true
	return cases
}

// RuleCase is one rule-mining benchmark configuration (flat miner only: the
// rules baseline was not preserved, the acceptance target compares closed
// mining).
type RuleCase struct {
	Name     string
	Gen      func() *seqdb.Database
	Opts     rules.Options
	Parallel bool
}

// RuleCases returns the rule-mining benchmark matrix.
func RuleCases() []RuleCase {
	traceCase := func(name, workload string, traces int, opts rules.Options) RuleCase {
		w := tracesim.Workloads()[workload]
		return RuleCase{
			Name: name,
			Gen:  func() *seqdb.Database { return w.MustGenerate(traces, 7) },
			Opts: opts,
		}
	}
	cases := []RuleCase{
		// The strict 0.9/0.9 thresholds mine zero rules from the aberrated
		// security traces; the relaxed pair produces a few hundred.
		traceCase("nr-security-x30-rel0.5-conf0.8", "security", 30, rules.Options{
			MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 0.8,
			MaxPremiseLength: 2, MaxConsequentLength: 2,
		}),
		traceCase("nr-locking-x50-pre3-post3", "locking", 50, rules.Options{
			MinSeqSupportRel: 0.9, MinInstanceSupport: 1, MinConfidence: 0.9,
			MaxPremiseLength: 3, MaxConsequentLength: 3,
		}),
		traceCase("nr-transaction-x50-pre2-post2", "transaction", 50, rules.Options{
			MinSeqSupportRel: 0.9, MinInstanceSupport: 1, MinConfidence: 0.9,
			MaxPremiseLength: 2, MaxConsequentLength: 2,
		}),
	}
	cases[1].Parallel = true
	cases[2].Parallel = true
	return cases
}

// VerifyCase is one batched-verification benchmark configuration: a rule set
// mined from a training batch, checked against a larger fresh batch with an
// elevated violation rate (the serving-path scenario).
type VerifyCase struct {
	Name string
	// Gen returns the rule set to compile and the trace batch to check.
	Gen func() ([]rules.Rule, *seqdb.Database)
}

// VerifyCases returns the conformance-checking benchmark matrix.
func VerifyCases() []VerifyCase {
	mk := func(name, workload string, trainN, checkN int, opts rules.Options) VerifyCase {
		return VerifyCase{Name: name, Gen: func() ([]rules.Rule, *seqdb.Database) {
			w := tracesim.Workloads()[workload]
			train := w.MustGenerate(trainN, 7)
			res, err := rules.Mine(train, opts)
			if err != nil {
				panic(err)
			}
			fresh := w
			fresh.ViolationRate = 0.25
			return res.Rules, rebased(train.Dict, fresh.MustGenerate(checkN, 99))
		}}
	}
	relaxed := rules.Options{
		MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 0.8,
		MaxPremiseLength: 2, MaxConsequentLength: 2,
	}
	strict := rules.Options{
		MinSeqSupportRel: 0.9, MinInstanceSupport: 1, MinConfidence: 0.9,
		MaxPremiseLength: 3, MaxConsequentLength: 3,
	}
	return []VerifyCase{
		mk("verify-security-x200", "security", 30, 200, relaxed),
		mk("verify-locking-x500", "locking", 50, 500, strict),
		mk("verify-transaction-x200", "transaction", 30, 200, relaxed),
	}
}

// StreamCase is one streaming-ingestion benchmark configuration: a tracesim
// workload replayed as an interleaved chunk stream (see tracesim.Stream)
// into a sharded stream.Ingester, optionally with an online conformance
// engine attached. The headline metrics are events/sec and per-event allocs.
type StreamCase struct {
	Name     string
	Workload string
	Traces   int
	Shards   int
	// FlushBatch is the number of sealed traces a shard applies between
	// barriers.
	FlushBatch int
	// Concurrency is how many traces the replay keeps open at once.
	Concurrency int
	// Checked attaches an online engine compiled from rules mined on a
	// training batch, so every event also advances conformance automata.
	Checked bool
}

// StreamOp is one pre-generated ingestion operation: events to append to a
// trace, or (with Seal) its termination. Pre-generating operations keeps
// workload synthesis and name interning out of the measured region.
type StreamOp struct {
	TraceID string
	Events  []seqdb.EventID
	Seal    bool
}

// StreamCases returns the streaming-ingestion benchmark matrix.
func StreamCases() []StreamCase {
	return []StreamCase{
		{Name: "stream-locking-x200", Workload: "locking", Traces: 200,
			Shards: 4, FlushBatch: 32, Concurrency: 16},
		{Name: "stream-transaction-x200", Workload: "transaction", Traces: 200,
			Shards: 4, FlushBatch: 32, Concurrency: 16},
		{Name: "stream-security-x200-checked", Workload: "security", Traces: 200,
			Shards: 4, FlushBatch: 32, Concurrency: 16, Checked: true},
	}
}

// StoreCases returns the durable-ingestion benchmark matrix: stream cases
// replayed through a stream ingester bound to a log-structured store, so the
// measured path includes WAL appends, group commits, segment flushes and the
// final snapshot barrier — plus the store's open/recover/close lifecycle,
// which is why these cases run 500 traces: a real process opens its store
// once per run, not once per 20k events, and a longer stream keeps the
// fixed file-creation cost from dominating what is measured. The same cases
// back BenchmarkRecover (events/sec replayed from segments + WAL on a cold
// start). TestPerfGates' obs-overhead floor replays the first case.
func StoreCases() []StreamCase {
	return []StreamCase{
		{Name: "store-locking-x500", Workload: "locking", Traces: 500,
			Shards: 4, FlushBatch: 32, Concurrency: 16},
		{Name: "store-transaction-x500", Workload: "transaction", Traces: 500,
			Shards: 4, FlushBatch: 32, Concurrency: 16},
	}
}

// GenStream pre-generates the case's operation stream against a fresh
// dictionary, returning the dictionary (pass it to the ingester so ids
// resolve), the operations, the engine to attach (nil unless Checked) and
// the total event count.
func (c StreamCase) GenStream() (*seqdb.Dictionary, []StreamOp, *verify.Engine, int) {
	w := tracesim.Workloads()[c.Workload]
	var engine *verify.Engine
	dict := seqdb.NewDictionary()
	if c.Checked {
		train := w.MustGenerate(30, 7)
		res, err := rules.Mine(train, rules.Options{
			MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 0.8,
			MaxPremiseLength: 2, MaxConsequentLength: 2,
		})
		if err != nil {
			panic(err)
		}
		if len(res.Rules) == 0 {
			panic("bench: no rules mined for checked stream case")
		}
		engine, err = verify.NewEngine(res.Rules)
		if err != nil {
			panic(err)
		}
		dict = train.Dict
		w.ViolationRate = 0.25
	}
	var ops []StreamOp
	events := 0
	err := w.Stream(c.Traces, 99, c.Concurrency, func(ch tracesim.StreamChunk) error {
		ids := make([]seqdb.EventID, len(ch.Events))
		for i, n := range ch.Events {
			ids[i] = dict.Intern(n)
		}
		events += len(ids)
		if len(ids) > 0 {
			ops = append(ops, StreamOp{TraceID: ch.TraceID, Events: ids})
		}
		if ch.Final {
			ops = append(ops, StreamOp{TraceID: ch.TraceID, Seal: true})
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return dict, ops, engine, events
}

// rebased re-interns db's traces through dict, so rules mined against dict
// apply to traces generated with an independent dictionary (fresh batches
// intern events in a different order).
func rebased(dict *seqdb.Dictionary, db *seqdb.Database) *seqdb.Database {
	out := seqdb.NewDatabaseWithDict(dict)
	names := make([]string, 0, 64)
	for _, s := range db.Sequences {
		names = names[:0]
		for _, ev := range s {
			names = append(names, db.Dict.Name(ev))
		}
		out.AppendNames(names...)
	}
	return out
}
