package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"specmine/internal/core"
	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

const (
	// producers is the number of closed-loop client goroutines: one per core
	// of the 2-vCPU machine the benchmark was sized on.
	producers = 2
	// shards is the store's (and therefore the ingester's) shard count.
	shards = 4
	// openTraces is how many traces the replayed traffic keeps open at once.
	openTraces = 32
	// trainTraces is the size of the training batch every spec is mined
	// from, and trainSeed its seed. The spec is the same for every -seed: a
	// 30-trace batch is small enough that its mined spec swings between a
	// few hundred and many thousand rules from one seed to the next, which
	// would make the checking work, not the system, vary between seeds.
	trainTraces = 30
	trainSeed   = 7
	// snapEvery is the online workload's read cadence: producer 0 takes a
	// Snapshot after every snapEvery traces it has sealed itself (scaled
	// with the workload, so a scaled run takes as many snapshots).
	snapEvery = 250
	// mineWorkers is core.MineStoreRules' worker count (= producers).
	mineWorkers = 2
)

// workload is one benchmark input: the traffic replayed through durable
// ingest, the specification it is checked against, and the mining query run
// over the reopened store.
type workload struct {
	name string
	// fresh is the traffic model; train is the model the spec is mined from.
	fresh, train func() tracesim.Workload
	// traces is the number of fresh traces at scale 1.
	traces int
	// specOpts mines the spec from trainTraces training traces; mineOpts is
	// the MineStoreRules query over the reopened store.
	specOpts, mineOpts core.RuleOptions
	// cacheDiv sets the segment-cache budget to decoded/cacheDiv, where
	// decoded is the cache's own estimate (24 B/trace + 4 B/event); 0 means
	// unlimited.
	cacheDiv int64
	// online attaches the spec to the ingester as an online engine, and makes
	// producer 0 snapshot every snapEvery of its own seals.
	online bool
}

func withViolations(f func() tracesim.Workload, rate float64) func() tracesim.Workload {
	return func() tracesim.Workload {
		w := f()
		w.ViolationRate = rate
		return w
	}
}

// The workloads, one per layer the pipeline can be dominated by. README.md
// records why each was chosen and what it measured. The mining queries'
// thresholds sit in gaps of their workload's support and confidence
// distributions, so that the mined rule set, and the work of mining it, is
// the same for every seed: at 0.9/0.9, for example, mine-transaction yields
// 974 rules on some seeds and 3,011 on others, because 144 of its
// single-event rules have confidence 0.88-0.90.
var workloads = []workload{
	// The durable write path: many light traces, a 4-rule spec and a
	// one-rule mining query. The store fits the (unlimited) cache.
	{
		name:     "ingest-locking",
		fresh:    tracesim.LockingComponent,
		train:    tracesim.LockingComponent,
		traces:   50000,
		specOpts: core.RuleOptions{MinSeqSupportRel: 0.9, MinConfidence: 0.9, MaxPremiseLength: 3, MaxConsequentLength: 3, Workers: mineWorkers},
		mineOpts: core.RuleOptions{MinSeqSupportRel: 0.95, MinConfidence: 0.9, MaxPremiseLength: 1, MaxConsequentLength: 1, Workers: mineWorkers},
	},
	// The mining search and cache decode/evict: looping traces mined for
	// two-event rules through a cache a quarter of the data.
	{
		name:     "mine-transaction",
		fresh:    tracesim.TransactionComponent,
		train:    tracesim.TransactionComponent,
		traces:   700,
		specOpts: core.RuleOptions{MinSeqSupportRel: 0.9, MinConfidence: 0.9, MaxPremiseLength: 1, MaxConsequentLength: 1, Workers: mineWorkers},
		mineOpts: core.RuleOptions{MinSeqSupportRel: 0.85, MinConfidence: 0.85, MaxPremiseLength: 2, MaxConsequentLength: 2, Workers: mineWorkers},
		cacheDiv: 4,
	},
	// Planned verification and its report: a relaxed spec of thousands of
	// rules against traces with 25% truncated scenarios.
	{
		name:     "check-transaction",
		fresh:    withViolations(tracesim.TransactionComponent, 0.25),
		train:    tracesim.TransactionComponent,
		traces:   700,
		specOpts: relaxedSpec,
		mineOpts: core.RuleOptions{MinSeqSupportRel: 0.8, MinConfidence: 0.65, MaxPremiseLength: 1, MaxConsequentLength: 1, Workers: mineWorkers},
	},
	// Reads beside writes: an online engine on the ingester, and snapshot
	// barriers whose cost grows with the violations accumulated so far.
	{
		name:     "online-security",
		fresh:    withViolations(tracesim.SecurityComponent, 0.25),
		train:    tracesim.SecurityComponent,
		traces:   8000,
		specOpts: relaxedSpec,
		mineOpts: core.RuleOptions{MinSeqSupportRel: 0.7, MinConfidence: 0.85, MaxPremiseLength: 1, MaxConsequentLength: 1, Workers: mineWorkers},
		online:   true,
	},
}

// relaxedSpec mines the large specs: every rule of up to two events a side
// that holds in half the training traces with confidence 0.8.
var relaxedSpec = core.RuleOptions{MinSeqSupportRel: 0.5, MinConfidence: 0.8, MaxPremiseLength: 2, MaxConsequentLength: 2, Workers: mineWorkers}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pinned holds the input (op stream) and spec digests of every workload at
// seed 1 and scale 1. A change to tracesim or to the miner that alters either
// makes the benchmark refuse to run instead of silently measuring something
// else; re-pin deliberately, in a change of its own.
var pinned = map[string][2]string{
	"ingest-locking":    {"c4f9ffc3cf729c281d919696c6b035f0c2cccc69e44491d5fcd9d2487ef38f04", "162aafccdfdf85ce4ca3016ab784ada21f7176fc6015906756a94197e19af9ed"},
	"mine-transaction":  {"7e4d4e5d1b4f0edb79882d36588b0b5f76b275e4441f3f30590bf5631a5b2158", "e6ad36a1ec089f8ea2ad6e480e07f62f5dc7fe820423f5b585c1a4bf7e3b803e"},
	"check-transaction": {"8ea904ee17e1c5d22d3dcc3e8af10fde50055f3df6230a56a4c0ea0c41105360", "c9e2cce8d4044c376c47e2f157ea359f508dafe8bcf8763abc0eb398ebfd2603"},
	"online-security":   {"8e454da8b89ab770f1f0be228063f77dff2822e83c87f89a5d95daaf3b6384e6", "31ebddcb3eaca990fc2a217e6bc4c171f6b4bfbf3d9455e87009a581d60ab4ce"},
}

// op is one pre-interned ingest call: events appended to a trace, or (seal)
// the trace's termination.
type op struct {
	id     string
	events []seqdb.EventID
	seal   bool
}

// inputs is everything set-up produces; the timed repetitions only read it.
type inputs struct {
	// dict is the master dictionary: the spec's events first, then the
	// traffic's. A fresh store interns its names in order, so store ids equal
	// master ids.
	dict   *seqdb.Dictionary
	spec   []core.Rule
	engine *verify.Engine // online workloads only
	// traces are the generated traces, in trace order: the durability
	// oracle's expected multiset.
	traces []seqdb.Sequence
	// ops[p] is producer p's share of the op stream, in stream order. A trace
	// belongs to exactly one producer.
	ops       [producers][]op
	calls     int
	events    int
	snapEvery int
	// decoded is the segment cache's size estimate of the whole database.
	decoded     int64
	inputDigest string
	specDigest  string
}

// scaled returns the workload's trace count at the given scale (at least
// one trace per shard).
func (w workload) scaled(scale float64) int {
	return max(shards, int(math.Round(float64(w.traces)*scale)))
}

// setup generates the workload's inputs for seed: the training batch and its
// mined spec, then the fresh traffic as an interleaved op stream split
// between the producers. At seed 1 and scale 1 the digests must match the
// pinned ones.
func setup(w workload, seed int64, scale float64) (*inputs, error) {
	train, err := w.train().Generate(trainTraces, trainSeed)
	if err != nil {
		return nil, err
	}
	res, err := core.MineRules(train, w.specOpts)
	if err != nil {
		return nil, err
	}
	if len(res.Rules) == 0 {
		return nil, fmt.Errorf("%s: training batch yields an empty spec", w.name)
	}
	in := &inputs{dict: train.Dict, spec: res.Rules}
	if w.online {
		if in.engine, err = verify.NewEngine(in.spec); err != nil {
			return nil, err
		}
	}

	n := w.scaled(scale)
	in.traces = make([]seqdb.Sequence, 0, n)
	index := make(map[string]int, openTraces)
	d := newDigest()
	err = w.fresh().Stream(n, seed, openTraces, func(ch tracesim.StreamChunk) error {
		t, ok := index[ch.TraceID]
		if !ok {
			t = len(in.traces)
			index[ch.TraceID] = t
			in.traces = append(in.traces, nil)
		}
		p := t % producers
		if len(ch.Events) > 0 {
			ids := make([]seqdb.EventID, len(ch.Events))
			for i, name := range ch.Events {
				ids[i] = in.dict.Intern(name)
			}
			in.traces[t] = append(in.traces[t], ids...)
			in.ops[p] = append(in.ops[p], op{id: ch.TraceID, events: ids})
			in.events += len(ids)
			d.str(ch.TraceID)
			d.events(ids)
		}
		if ch.Final {
			delete(index, ch.TraceID)
			in.ops[p] = append(in.ops[p], op{id: ch.TraceID, seal: true})
			d.str(ch.TraceID)
			d.int(-1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range in.dict.Export() {
		d.str(name)
	}
	for p := range in.ops {
		in.calls += len(in.ops[p])
	}
	in.decoded = 24*int64(n) + 4*int64(in.events)
	in.snapEvery = max(1, int(math.Round(snapEvery*scale)))
	in.inputDigest = hex.EncodeToString(d.sum())
	in.specDigest = hex.EncodeToString(rulesDigest(in.spec))

	if seed == 1 && scale == 1 {
		if want := pinned[w.name]; in.inputDigest != want[0] || in.specDigest != want[1] {
			return nil, fmt.Errorf("%s: seed-1 digests changed: input %s (pinned %s), spec %s (pinned %s)",
				w.name, in.inputDigest, want[0], in.specDigest, want[1])
		}
	}
	return in, nil
}

// timeSetup runs setup once and times it. With want set, the inputs must
// reproduce want's digests.
func timeSetup(w workload, seed int64, scale float64, want *inputs) (*inputs, float64, error) {
	start := time.Now()
	in, err := setup(w, seed, scale)
	if err != nil {
		return nil, 0, err
	}
	t := time.Since(start).Seconds()
	if want != nil && (in.inputDigest != want.inputDigest || in.specDigest != want.specDigest) {
		return nil, 0, fmt.Errorf("%s: set-up is not deterministic for seed %d", w.name, seed)
	}
	return in, t, nil
}
