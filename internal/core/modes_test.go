package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/fsim"
	"specmine/internal/ltl"
	"specmine/internal/obs"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/store/cache"
	"specmine/internal/stream"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// Budget regimes of the harness: the segment cache at an unlimited budget, at
// exactly the decoded estimate of the segments a mining call's seeds need
// (both give the call one call-wide seed view), and at one byte (a view per
// seed, every unpinned segment evicted).
const (
	budgetUnlimited = iota
	budgetUnion
	budgetOneByte
)

// cacheBytes is regime's budget for a call whose seeds need segments of
// unionBytes decoded.
func cacheBytes(regime int, unionBytes int64) int64 {
	return [...]int64{budgetUnlimited: 0, budgetUnion: unionBytes, budgetOneByte: 1}[regime]
}

// modesInput is one decoded input of FuzzModesMatchOracle.
type modesInput struct {
	dict   *Dictionary
	traces []seqdb.Sequence // the workload in ingest order
	// cold adds a first durable session holding one trace of an event no
	// threshold reaches, so its segment holds no seed of any mining call.
	cold            bool
	rules           []Rule
	where           Where
	shards, flush   int
	sessions        int // the workload's durable sessions
	open, chunk     int // traces ingested interleaved, events per trace per round
	budget, workers int
	fault           int // 0: none; k: the read fault hits rule seed segment k-1
	popts           PatternOptions
	ropts           RuleOptions
	sopts           SeqPatternOptions
	eopts           EpisodeOptions
	idle            seqdb.EventID // the cold trace's one event
}

// decodeModesInput decodes data; bytes past the end read as zero, so every
// input decodes to a valid run. The layout, a byte each unless noted:
//   - the workload (tracesim locking, security, transaction, or random
//     traces), the trace count and the generator seed (random: the
//     alphabet size, then per trace a length byte and one byte per event);
//   - the shard count; the flush batch and durable sessions (low two bits
//     the batch, the next ones the sessions); the interleaving (low two
//     bits the traces open at once, the next ones the events per chunk);
//   - flags: bit 0 the cold session, bits 1-2 the workers 1, 4, 2 or -1,
//     bit 3 full patterns, bit 4 full rules, bit 5 closed-only sequential
//     patterns, bit 6 a rule set whose premises never fire;
//   - the budget regime, the read fault, the Where kind and three operand
//     bytes;
//   - the pattern threshold and length bound, the rule threshold, the rule
//     confidence and consequent bound (low two bits the confidence);
//   - for random workloads, extra rules: a count byte and, per rule, a
//     premise and a consequent of a length byte and event bytes.
func decodeModesInput(data []byte) *modesInput {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	in := &modesInput{dict: seqdb.NewDictionary()}
	kind, count, seed := next()%4, next(), next()
	names := []string{"locking", "security", "transaction"}
	var alphabet int
	if kind < len(names) {
		w := tracesim.Workloads()[names[kind]]
		w.ViolationRate = 0.3
		db := w.MustGenerate(6+count%8, int64(seed))
		in.dict, in.traces = db.Dict, db.Sequences
		alphabet = db.Dict.Size()
	} else {
		alphabet = 2 + seed%4
		for e := 0; e < alphabet; e++ {
			in.dict.Intern(string(rune('a' + e)))
		}
		in.traces = make([]seqdb.Sequence, 4+count%17)
		for i := range in.traces {
			s := make(seqdb.Sequence, 1+next()%12)
			for k := range s {
				s[k] = seqdb.EventID(next() % alphabet)
			}
			in.traces[i] = s
		}
	}
	never, absent := in.dict.Intern("never_called"), seqdb.EventID(in.dict.Size()+4)
	in.idle = in.dict.Intern("idle")
	in.shards = 1 + next()%4
	b := next()
	in.flush, in.sessions = 1+b%4, 1+b/4%3
	b = next()
	in.open, in.chunk = 1+b%4, 1+b/4%3
	flags := next()
	in.cold = flags&1 != 0
	in.workers = []int{1, 4, 2, -1}[flags>>1&3]
	in.budget, in.fault = next()%3, next()%4

	n := len(in.traces)
	if in.cold {
		n++
	}
	ev := func(b int) seqdb.EventID { return seqdb.EventID(b % in.dict.Size()) }
	wk, x, y, z := next()%8, next(), next(), next()
	switch wk {
	case 1: // window
		in.where = Where{From: x % (n + 1), To: x%(n+1) + 1 + y%n}
	case 2:
		in.where = Where{HasAll: []seqdb.EventID{ev(x)}}
	case 3:
		in.where = Where{HasAny: []seqdb.EventID{ev(x), ev(y)}}
	case 4: // ordinals, duplicates and out-of-range ones included
		in.where = Where{IDs: []int{x % n, y % (n + 4), x % n}}
	case 5: // an empty selection
		in.where = Where{From: n, To: n}
	case 6: // an event the dictionary does not hold
		in.where = Where{HasAll: []seqdb.EventID{absent}}
	case 7:
		in.where = Where{HasAll: []seqdb.EventID{ev(x)}, HasAny: []seqdb.EventID{ev(y), ev(z)}, From: z % n}
	}

	// Absolute thresholds of half, three quarters or all of the traces, at
	// least 2: the cold trace's one event never seeds a mining call. The
	// tracesim workloads' events correlate densely, so their rule threshold
	// starts at three quarters and their confidence floor is higher.
	frac := func(b int) int { return max(2, n*(2+b%3)/4) }
	in.popts = PatternOptions{MinInstanceSupport: frac(next()), MaxPatternLength: 2 + next()%2,
		IncludeInstances: true, Full: flags&8 != 0, Workers: in.workers}
	rthr, rconf := next(), next()
	if kind < len(names) {
		rthr = 1 + rthr%2
		rconf += 2
	}
	in.ropts = RuleOptions{MinSeqSupport: frac(rthr), MinInstanceSupport: 1, MinConfidence: []float64{0.5, 0.7, 0.8, 0.95}[rconf%4],
		MaxPremiseLength: 2, MaxConsequentLength: 1 + rconf/4%2, Full: flags&16 != 0, Workers: in.workers}
	in.sopts = SeqPatternOptions{MinSeqSupport: in.ropts.MinSeqSupport, MaxPatternLength: 3,
		ClosedOnly: flags&32 != 0, Workers: in.workers}
	in.eopts = EpisodeOptions{WindowWidth: 3, MinFrequency: 0.2, MaxEpisodeLength: 2, Workers: in.workers}

	// The rule set: rules mined from the workload itself, a premise and a
	// consequent that never occur, repeated events, and for random workloads
	// rules drawn over the alphabet plus the never-occurring event.
	first, last := in.traces[0][0], in.traces[len(in.traces)-1][0]
	if flags&64 != 0 {
		// Every premise holds the never-occurring event: every segment, and
		// the in-memory database as one, is answered from statistics.
		in.rules = []Rule{
			{Pre: seqdb.Pattern{never}, Post: seqdb.Pattern{first}},
			{Pre: seqdb.Pattern{first, never}, Post: seqdb.Pattern{last}},
		}
		return in
	}
	mined, err := MineRules(&seqdb.Database{Dict: in.dict, Sequences: in.traces},
		RuleOptions{MinSeqSupport: max(2, len(in.traces)/2), MinInstanceSupport: 1, MinConfidence: 0.6,
			MaxPremiseLength: 2, MaxConsequentLength: 2})
	if err != nil {
		panic(err)
	}
	in.rules = append(mined.Rules[:min(len(mined.Rules), 10)],
		Rule{Pre: seqdb.Pattern{never}, Post: seqdb.Pattern{first}},
		Rule{Pre: seqdb.Pattern{first}, Post: seqdb.Pattern{never}},
		Rule{Pre: seqdb.Pattern{first, first}, Post: seqdb.Pattern{last, last}})
	if kind == len(names) {
		pattern := func() seqdb.Pattern {
			p := make(seqdb.Pattern, 1+next()%3)
			for k := range p {
				if p[k] = seqdb.EventID(next() % (alphabet + 1)); int(p[k]) == alphabet {
					p[k] = never
				}
			}
			return p
		}
		for r := next() % 5; r > 0; r-- {
			in.rules = append(in.rules, Rule{Pre: pattern(), Post: pattern()})
		}
	}
	return in
}

// modesFixture holds one input's traces in every form a mode reads.
type modesFixture struct {
	db      *Database         // Recover of the cleanly closed store: the oracle's traces
	crashDB *Database         // Recover of the crash image copied after the last Snapshot
	memSnap *Database         // the memory-only ingester's final snapshot
	ingest  *Database         // the same traces in ingest order
	dir     string            // the store's directory
	online  [2]verify.Summary // online summaries of the durable and the memory ingester
}

// buildModesFixture streams the input through a durable and a memory-only
// rule-checking ingester side by side (after the cold session, when there is
// one), copies a crash image of the store after the last Snapshot, closes
// everything, and recovers what is left.
func buildModesFixture(t *testing.T, in *modesInput) *modesFixture {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	fx := &modesFixture{dir: dir, ingest: seqdb.NewDatabaseWithDict(in.dict)}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// send ingests events of trace id into every ingester of sts, and seals
	// the trace there when seal is set.
	send := func(sts []*stream.Ingester, id string, events seqdb.Sequence, seal bool) {
		t.Helper()
		names := make([]string, len(events))
		for k, e := range events {
			names[k] = in.dict.Name(e)
		}
		for _, st := range sts {
			must(st.Ingest(id, names...))
			if seal {
				must(st.CloseTrace(id))
			}
		}
	}
	engine := mustEngine(t, in.rules)
	mem, err := stream.Open(stream.Config{Shards: in.shards, FlushBatch: in.flush, Dict: in.dict, Engine: engine})
	must(err)
	if in.cold {
		ts, err := store.Open(store.Options{Dir: dir, Shards: in.shards})
		must(err)
		st, err := stream.Open(stream.Config{FlushBatch: in.flush, Dict: in.dict, Store: ts})
		must(err)
		cold := seqdb.Sequence{in.idle}
		send([]*stream.Ingester{st, mem}, "cold", cold, true)
		fx.ingest.Append(cold)
		must(st.Close())
		must(ts.Close())
	}
	// The workload's durable sessions: each clean close checkpoints every
	// shard's tail into a segment, and each reopen recovers the sealed
	// traces' conformance before ingesting more. Within a session, windows
	// of in.open traces arrive interleaved, in.chunk events per trace per
	// round, and a trace seals with its last chunk.
	var ts *TraceStore
	var st *stream.Ingester
	per := (len(in.traces) + in.sessions - 1) / in.sessions
	for lo := 0; lo < len(in.traces); lo += per {
		if st != nil {
			_, err := st.Snapshot() // a barrier: the online parts span several cuts
			must(err)
			must(st.Close())
			must(ts.Close())
		}
		ts, err = store.Open(store.Options{Dir: dir, Shards: in.shards})
		must(err)
		st, err = stream.Open(stream.Config{FlushBatch: in.flush, Dict: in.dict, Engine: engine, Store: ts})
		must(err)
		hi := min(lo+per, len(in.traces))
		for w := lo; w < hi; w += in.open {
			for pos, more := 0, true; more; pos += in.chunk {
				more = false
				for i := w; i < min(w+in.open, hi); i++ {
					s := in.traces[i]
					if pos >= len(s) {
						continue
					}
					end := min(pos+in.chunk, len(s))
					send([]*stream.Ingester{st, mem}, fmt.Sprintf("t%03d", i), s[pos:end], end == len(s))
					if end == len(s) {
						fx.ingest.Append(s)
					}
					more = more || end < len(s)
				}
			}
		}
	}
	var snap *Database
	snap, fx.online[0] = snapshot(t, st)
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)
	fx.memSnap, fx.online[1] = snapshot(t, mem)
	must(st.Close())
	must(mem.Close())
	must(ts.Close())

	fx.db, err = Recover(dir)
	must(err)
	fx.crashDB, err = Recover(crash)
	must(err)
	if !sameTraces(fx.ingest.Sequences, fx.db.Sequences) {
		t.Fatal("the recovered store does not hold the ingested traces")
	}
	for name, got := range map[string]*Database{"durable snapshot": snap, "memory snapshot": fx.memSnap, "crash image": fx.crashDB} {
		if !reflect.DeepEqual(got.Sequences, fx.db.Sequences) {
			t.Fatalf("the %s differs from the recovered store", name)
		}
	}
	return fx
}

// openOutOfCore opens the store at dir out of core until the test ends.
func openOutOfCore(t *testing.T, dir string) *TraceStore {
	t.Helper()
	ts, err := store.Open(store.Options{Dir: dir, OutOfCore: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// sameTraces reports whether a and b hold the same traces as multisets.
func sameTraces(a, b []seqdb.Sequence) bool {
	key := func(ss []seqdb.Sequence) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = fmt.Sprint(s)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

// copyTree copies a live store directory file by file: a crash image, in
// which only bytes that reached the operating system survive.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
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
		t.Fatal(err)
	}
}

// whereMatches is the per-trace oracle of a Where: every predicate checked
// directly against trace s of db, whose ordinal is s.
func whereMatches(db *Database, w Where, s int) bool {
	if s < w.From || (w.To > 0 && s >= w.To) {
		return false
	}
	if len(w.IDs) > 0 && !slices.Contains(w.IDs, s) {
		return false
	}
	has := func(e seqdb.EventID) bool { return slices.Contains(db.Sequences[s], e) }
	for _, e := range w.HasAll {
		if !has(e) {
			return false
		}
	}
	return len(w.HasAny) == 0 || slices.ContainsFunc(w.HasAny, has)
}

// sameResult reports whether two answers are equal field for field, an
// empty list matching a nil one: the answers hold no pointers below the top
// level, so when they differ only their %+v renderings can tell.
func sameResult(got, want any) bool {
	return reflect.DeepEqual(got, want) || fmt.Sprintf("%+v", got) == fmt.Sprintf("%+v", want)
}

// untimed drops the wall-clock time a mining result carries, which no two
// runs share.
func untimed(res any) any {
	switch r := res.(type) {
	case *PatternResult:
		r.Stats.Duration = 0
	case *RuleResult:
		r.Stats.Duration = 0
	case *SeqPatternResult:
		r.Duration = 0
	case *EpisodeResult:
		r.Duration = 0
	}
	return res
}

// selectTraces returns the ordinals of db's traces where selects and a
// database holding exactly those traces, in ordinal order.
func selectTraces(db *Database, where Where) ([]int, *Database) {
	sub := seqdb.NewDatabaseWithDict(db.Dict)
	var ordinals []int
	for s := range db.Sequences {
		if whereMatches(db, where, s) {
			ordinals = append(ordinals, s)
			sub.Append(db.Sequences[s])
		}
	}
	return ordinals, sub
}

// checkOracle is the one check oracle: the per-rule rescan
// (baseline.CheckRule) over the traces of db that where selects, with
// violations mapped back to the traces' ordinals in db, and every rule's
// violated-trace count cross-checked against the traces on which its LTL
// formula does not hold.
func checkOracle(t *testing.T, db *Database, ruleSet []Rule, where Where) verify.Summary {
	t.Helper()
	ordinals, sub := selectTraces(db, where)
	reports := make([]verify.RuleReport, len(ruleSet))
	for i, r := range ruleSet {
		rep, err := baseline.CheckRule(sub, r)
		if err != nil {
			t.Fatal(err)
		}
		formula, err := ltl.FromRule(r.Pre, r.Post)
		if err != nil {
			t.Fatal(err)
		}
		violated := 0
		for _, s := range sub.Sequences {
			if !ltl.Holds(formula, s) {
				violated++
			}
		}
		if rep.ViolatedTraces != violated {
			t.Fatalf("rule %s -> %s: the rescan reports %d violated traces, %s fails on %d",
				r.Pre.String(db.Dict), r.Post.String(db.Dict), rep.ViolatedTraces, formula.String(db.Dict), violated)
		}
		for k := range rep.Violations {
			rep.Violations[k].Seq = ordinals[rep.Violations[k].Seq]
		}
		reports[i] = rep
	}
	return verify.NewSummary(reports)
}

// patternOracle mines db with the seed's map-based miner.
func patternOracle(t *testing.T, db *Database, opts PatternOptions) *PatternResult {
	t.Helper()
	opts.Workers = 1
	res, err := baseline.Mine(db, baseline.Index(db), opts, !opts.Full)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ruleOracle mines db with the in-memory miner on one worker and recomputes
// every rule's statistics with rules.EvaluateRule.
func ruleOracle(t *testing.T, db *Database, opts RuleOptions) *RuleResult {
	t.Helper()
	opts.Workers = 1
	res, err := rules.Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		ev := rules.EvaluateRule(db, r.Pre, r.Post)
		if ev.SeqSupport != r.SeqSupport || ev.InstanceSupport != r.InstanceSupport || ev.Confidence != r.Confidence {
			t.Fatalf("mined %+v, but the rule evaluates to %+v", r, ev)
		}
	}
	return res
}

// seedUnion returns the catalog segments holding a trace with a seed event,
// and their decoded estimate: the segments a mining call with those seeds
// opens.
func seedUnion(ts *TraceStore, db *Database, seed func(seqdb.EventID) bool) ([]store.SegmentMeta, int64) {
	var union []store.SegmentMeta
	var bytes int64
	for _, m := range ts.Segments() {
		traces := db.Sequences[m.Base : m.Base+m.NumTraces()]
		if !slices.ContainsFunc(traces, func(s seqdb.Sequence) bool { return slices.ContainsFunc(s, seed) }) {
			continue
		}
		events := 0
		for _, s := range traces {
			events += len(s)
		}
		union = append(union, m)
		bytes += cache.EstimateBytes(len(traces), events)
	}
	return union, bytes
}

// explainCounts is an Explain without its registry, beside the registry's
// verify.* counters.
func explainCounts(ex *Explain) []any {
	plain := *ex
	plain.Obs, plain.Selection = nil, nil
	out := []any{plain, ex.Selection != nil}
	if ex.Selection != nil {
		out = append(out, *ex.Selection)
	}
	for _, name := range []string{"verify.traces_checked", "verify.traces_skipped", "verify.segments_checked", "verify.segments_skipped"} {
		out = append(out, ex.Obs.Counter(name).Value())
	}
	return out
}

// FuzzModesMatchOracle is the differential oracle for every execution mode.
// Each input decodes (decodeModesInput) to a workload ingested through a
// durable ingester, a rule set, a Where, a cache budget regime, a worker
// count and an optional read fault on one segment file. Every facade mode
// runs on it — in memory, out of core, predicated, online (durable and
// memory-only), over Recover of a crash image and over the ingest order —
// as a subtest named after the mode, and each answer must equal one naive
// oracle over the selected traces: checkOracle for checks, the seed's miner
// for patterns, the in-memory miner on one worker with every rule
// re-evaluated for rules, and the seed's comparator miners. Out-of-core calls must also account for their
// segments: a mining call skips exactly the segments showing no seed event
// and, with a call-wide view, pins and opens each other segment once; a
// check skips exactly the segments it never opened, and explains and counts
// the same on one proc. A faulted call fails with the injected error exactly
// when the fault fired and leaves nothing pinned or resident, and the
// unfaulted store then answers like the oracle. The seed corpus in
// testdata/fuzz/FuzzModesMatchOracle replays under plain go test.
func FuzzModesMatchOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeModesInput(data)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(in.workers, 0)))
		fx := buildModesFixture(t, in)
		checkModesAgainstOracle(t, in, fx)
	})
}

// checkModesAgainstOracle computes the oracles' answers over fx's recovered
// traces, runs the faulted calls when the input has a fault, and then every
// mode, comparing each with its oracle.
func checkModesAgainstOracle(t *testing.T, in *modesInput, fx *modesFixture) {
	db, where := fx.db, in.where
	selected, sub := selectTraces(db, where)
	wantAll, wantSel := checkOracle(t, db, in.rules, Where{}), checkOracle(t, db, in.rules, where)
	wantP, wantPSel := patternOracle(t, db, in.popts), patternOracle(t, sub, in.popts)
	wantR, wantRSel := ruleOracle(t, db, in.ropts), ruleOracle(t, sub, in.ropts)
	ts := openOutOfCore(t, fx.dir)
	segments, idx := len(ts.Segments()), db.FlatIndex()
	pUnion, pBytes := seedUnion(ts, db, func(e seqdb.EventID) bool { return idx.EventInstanceCount(e) >= in.popts.MinInstanceSupport })
	rUnion, rBytes := seedUnion(ts, db, func(e seqdb.EventID) bool { return idx.EventSeqSupport(e) >= in.ropts.MinSeqSupport })
	pBudget, rBudget := cacheBytes(in.budget, pBytes), cacheBytes(in.budget, rBytes)
	if in.fault > 0 {
		// The faulted stores reopen the directory, which one open store
		// locks; after them, the unfaulted store must answer as before.
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
		checkReadFault(t, in, fx.dir, pUnion, rUnion, pBudget, rBudget)
		ts = openOutOfCore(t, fx.dir)
	}

	// Checks.
	type checkMode struct {
		name     string
		want     verify.Summary
		selected int
		store    bool
		run      func() (verify.Summary, *Explain, error)
	}
	all := db.NumSequences()
	checks := []checkMode{
		{"CheckRules", wantAll, all, false, func() (verify.Summary, *Explain, error) {
			sum, err := CheckRules(db, in.rules)
			return sum, nil, err
		}},
		{"CheckWhere", wantSel, len(selected), false, func() (verify.Summary, *Explain, error) {
			return CheckWhere(db, in.rules, where)
		}},
		{"CheckWhere/crash-image", wantSel, len(selected), false, func() (verify.Summary, *Explain, error) {
			return CheckWhere(fx.crashDB, in.rules, where)
		}},
		{"CheckStore", wantAll, all, true, func() (verify.Summary, *Explain, error) {
			return CheckStore(ts, in.rules, OutOfCoreOptions{CacheBytes: pBudget})
		}},
		{"CheckStoreWhere", wantSel, len(selected), true, func() (verify.Summary, *Explain, error) {
			return CheckStoreWhere(ts, in.rules, where, OutOfCoreOptions{CacheBytes: pBudget})
		}},
		{"CheckOnline/durable", wantAll, all, false, func() (verify.Summary, *Explain, error) { return fx.online[0], nil, nil }},
		{"CheckOnline/memory", wantAll, all, false, func() (verify.Summary, *Explain, error) { return fx.online[1], nil, nil }},
	}
	explains := make(map[string][]any)
	for _, m := range checks {
		t.Run(m.name, func(t *testing.T) {
			got, ex, err := m.run()
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, m.want) {
				t.Fatalf("diverges from the oracle:\n%s\nwant\n%s", got.Render(db.Dict, 3), m.want.Render(db.Dict, 3))
			}
			if ex == nil {
				return
			}
			if ex.Render(db.Dict) == "" {
				t.Fatal("empty explain")
			}
			c := func(name string) int64 { return ex.Obs.Counter(name).Value() }
			if ex.Selected != m.selected || c("verify.traces_checked")+c("verify.traces_skipped") != int64(m.selected) {
				t.Fatalf("selected %d (checked %d + skipped %d), the oracle selects %d",
					ex.Selected, c("verify.traces_checked"), c("verify.traces_skipped"), m.selected)
			}
			if !m.store {
				return
			}
			if ex.Obs.Gauge("cache.resident_bytes").Value() != 0 {
				t.Fatal("the call's cache stays resident after it returned")
			}
			if ex.SegmentsTotal != segments || int64(ex.SegmentsSkipped) != int64(segments)-c("cache.segments_opened") {
				t.Fatalf("skipped %d of %d segments, but the catalog holds %d and the cache opened %d",
					ex.SegmentsSkipped, ex.SegmentsTotal, segments, c("cache.segments_opened"))
			}
			// The segment fan-out runs on GOMAXPROCS workers; on one it must
			// explain and count the same.
			prev := runtime.GOMAXPROCS(1)
			_, ex1, err := m.run()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("on one proc: %v", err)
			}
			if a, b := explainCounts(ex), explainCounts(ex1); !reflect.DeepEqual(a, b) {
				t.Fatalf("explains %+v at GOMAXPROCS %d, %+v at 1", a, prev, b)
			}
			explains[m.name] = explainCounts(ex)
		})
	}
	if a, b := explains["CheckStore"], explains["CheckStoreWhere"]; !t.Failed() && reflect.DeepEqual(where, Where{}) && !reflect.DeepEqual(a, b) {
		t.Fatalf("a zero Where: CheckStore explains %+v, CheckStoreWhere %+v", a, b)
	}

	// Mining, the comparator miners over the memory-only stream's snapshot
	// included. union is the number of segments an out-of-core call's seeds
	// need, -1 for an in-memory call.
	wantSeq, err := baseline.MineSeqPatterns(db, in.sopts)
	if err != nil {
		t.Fatal(err)
	}
	wantEpi, err := baseline.MineEpisodeDatabase(db, in.eopts)
	if err != nil {
		t.Fatal(err)
	}
	type mineMode struct {
		name  string
		want  any
		union int
		run   func() (any, *Explain, error)
	}
	inMemory := func(res any, err error) (any, *Explain, error) { return res, nil, err }
	mines := []mineMode{
		{"MinePatterns", wantP, -1, func() (any, *Explain, error) { return inMemory(MinePatterns(db, in.popts)) }},
		{"MinePatterns/crash-image", wantP, -1, func() (any, *Explain, error) { return inMemory(MinePatterns(fx.crashDB, in.popts)) }},
		{"MineWhere", wantPSel, -1, func() (any, *Explain, error) { return MineWhere(db, in.popts, where) }},
		{"MineStore", wantP, len(pUnion), func() (any, *Explain, error) {
			return MineStore(ts, in.popts, OutOfCoreOptions{CacheBytes: pBudget})
		}},
		{"MineRules", wantR, -1, func() (any, *Explain, error) { return inMemory(MineRules(db, in.ropts)) }},
		{"MineRules/crash-image", wantR, -1, func() (any, *Explain, error) { return inMemory(MineRules(fx.crashDB, in.ropts)) }},
		{"MineRules/ingest-order", wantR, -1, func() (any, *Explain, error) { return inMemory(MineRules(fx.ingest, in.ropts)) }},
		{"MineRulesWhere", wantRSel, -1, func() (any, *Explain, error) { return MineRulesWhere(db, in.ropts, where) }},
		{"MineStoreRules", wantR, len(rUnion), func() (any, *Explain, error) {
			return MineStoreRules(ts, in.ropts, OutOfCoreOptions{CacheBytes: rBudget})
		}},
		{"MineSequential/memory-snapshot", wantSeq, -1, func() (any, *Explain, error) {
			return inMemory(MineSequential(fx.memSnap, in.sopts))
		}},
		{"MineEpisodes/memory-snapshot", wantEpi, -1, func() (any, *Explain, error) {
			return inMemory(MineEpisodes(fx.memSnap, in.eopts))
		}},
	}
	for _, m := range mines {
		t.Run(m.name, func(t *testing.T) {
			got, ex, err := m.run()
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(untimed(got), untimed(m.want)) {
				t.Fatalf("diverges from the oracle:\n got %+v\nwant %+v", got, m.want)
			}
			if m.union < 0 {
				if ex != nil && ex.Selected != len(selected) {
					t.Fatalf("selected %d, the oracle selects %d", ex.Selected, len(selected))
				}
				return
			}
			if ex.Selected != all || ex.SegmentsTotal != segments || ex.SegmentsSkipped != segments-m.union {
				t.Fatalf("selected %d of %d traces, skipped %d of %d segments; want all, and %d skipped",
					ex.Selected, all, ex.SegmentsSkipped, ex.SegmentsTotal, segments-m.union)
			}
			if ex.Obs.Gauge("cache.resident_bytes").Value() != 0 {
				t.Fatal("the call's cache stays resident after it returned")
			}
			if in.budget == budgetOneByte {
				return
			}
			for _, counter := range []string{"cache.pins", "cache.bodies_opened"} {
				if got := ex.Obs.Counter(counter).Value(); got != int64(m.union) {
					t.Fatalf("%s counted %d, want one per seed segment (%d)", counter, got, m.union)
				}
			}
		})
	}
}

// checkReadFault reruns every out-of-core mode on a store whose segment
// file fails every read after the statistics: Open reads each segment file
// once (read 0) and a call once more for its statistics (read 1), so the
// first pin of its body is read 2. The faulted segment is one the rule
// miner's seeds need, so rule mining must fail, and pattern mining must too
// when its seeds need the segment. Each call gets a freshly opened store so
// its reads start from the same rank. The calls run the facade's bodies over
// their own segSource (mineStore, CheckStoreWhere) so the residency can be
// read before the source closes: with a one-byte budget nothing may stay
// pinned, and once it closes nothing may stay resident.
func checkReadFault(t *testing.T, in *modesInput, dir string, pUnion, rUnion []store.SegmentMeta, pBudget, rBudget int64) {
	if len(rUnion) == 0 {
		return
	}
	bad := rUnion[(in.fault-1)%len(rUnion)].Path
	engine, err := verify.NewEngine(in.rules)
	if err != nil {
		t.Fatal(err)
	}
	check := func(where Where) func(*segSource, *obs.Registry) error {
		return func(src *segSource, call *obs.Registry) error {
			_, _, err := checkSegments(src, engine, where, call)
			return err
		}
	}
	calls := []struct {
		name     string
		mustFail bool
		budget   int64
		run      func(*segSource, *obs.Registry) error
	}{
		{"MineStore", slices.ContainsFunc(pUnion, func(m store.SegmentMeta) bool { return m.Path == bad }), pBudget,
			func(src *segSource, call *obs.Registry) error {
				_, err := minePatterns(src, in.popts, call)
				return err
			}},
		{"MineStoreRules", true, rBudget, func(src *segSource, call *obs.Registry) error {
			_, err := mineRules(src, in.ropts, call)
			return err
		}},
		{"CheckStore", false, pBudget, check(Where{})},
		{"CheckStoreWhere", false, pBudget, check(in.where)},
	}
	for _, c := range calls {
		t.Run("read-fault/"+c.name, func(t *testing.T) {
			ffs := fsim.NewFaultFS(fsim.OS(), fsim.Rule{Op: fsim.OpRead, Path: bad, From: 2, To: 1 << 20, Err: syscall.EIO})
			ts, err := store.Open(store.Options{Dir: dir, OutOfCore: true, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			shared := NewMetrics()
			call := shared.Child()
			src, err := newSegSource(ts, c.budget, call)
			if err != nil {
				t.Fatal(err)
			}
			err = c.run(src, call)
			pinned := call.Gauge("cache.resident_bytes").Value()
			src.close()
			fired := len(ffs.Injections()) > 0
			ts.Close() // reports the store degraded by the read fault
			switch {
			case fired && !errors.Is(err, syscall.EIO):
				t.Fatalf("returned %v, want the injected read fault (injections %v)", err, ffs.Injections())
			case !fired && (err != nil || c.mustFail):
				t.Fatalf("returned %v without the fault firing", err)
			}
			if in.budget == budgetOneByte && pinned > c.budget {
				t.Fatalf("%d bytes stay pinned after the call, over the %d-byte budget", pinned, c.budget)
			}
			if got := counterVal(t, shared, "cache.resident_bytes"); got != 0 {
				t.Fatalf("%d bytes still resident after the call", got)
			}
		})
	}
}
