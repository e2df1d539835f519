package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"specmine/internal/bench/baseline"
	"specmine/internal/ltl"
	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// checkWorkload is one input to the differential check test: traces as event
// names, and a rule set over dict (which may name events no trace contains).
type checkWorkload struct {
	name   string
	dict   *Dictionary
	traces [][]string
	rules  []Rule
}

// checkFixture holds one workload's traces in every form a check mode reads:
// a durable store (opened out of core), the database recovered from it, and
// the summary a rule-checking durable Streamer accumulated while ingesting.
type checkFixture struct {
	db     *Database
	store  *TraceStore
	online verify.Summary
}

// checkModes is every way the facade checks a rule set. Each must equal the
// per-rule oracle over fx.db.
var checkModes = []struct {
	name string
	run  func(fx *checkFixture, ruleSet []Rule) (verify.Summary, error)
}{
	{"CheckRules", func(fx *checkFixture, rs []Rule) (verify.Summary, error) {
		return CheckRules(fx.db, rs)
	}},
	{"CheckWhere", func(fx *checkFixture, rs []Rule) (verify.Summary, error) {
		sum, _, err := CheckWhere(fx.db, rs, Where{})
		return sum, err
	}},
	{"CheckStore/budget=unlimited", func(fx *checkFixture, rs []Rule) (verify.Summary, error) {
		sum, _, err := CheckStore(fx.store, rs, OutOfCoreOptions{})
		return sum, err
	}},
	{"CheckStore/budget=thrash", func(fx *checkFixture, rs []Rule) (verify.Summary, error) {
		// A one-byte budget keeps at most the pinned segment resident.
		sum, _, err := CheckStore(fx.store, rs, OutOfCoreOptions{CacheBytes: 1})
		return sum, err
	}},
	{"CheckStoreWhere", func(fx *checkFixture, rs []Rule) (verify.Summary, error) {
		sum, _, err := CheckStoreWhere(fx.store, rs, Where{}, OutOfCoreOptions{})
		return sum, err
	}},
	{"CheckOnline", func(fx *checkFixture, rs []Rule) (verify.Summary, error) {
		return fx.online, nil
	}},
}

// TestCheckModesMatchOracle is the differential check test: on tracesim
// workloads and randomized rule sets (never-occurring and repeated events
// included), every check mode reports exactly what the per-rule rescan
// oracle reports, and every rule's violated-trace count equals the number of
// traces on which its LTL formula does not hold.
func TestCheckModesMatchOracle(t *testing.T) {
	for _, w := range checkWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			fx := buildCheckFixture(t, w)
			want := oracleSummary(t, fx.db, w.rules)
			for _, m := range checkModes {
				t.Run(m.name, func(t *testing.T) {
					got, err := m.run(fx, w.rules)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("diverges from the per-rule oracle:\n%s\nwant\n%s",
							got.Render(fx.db.Dict, 3), want.Render(fx.db.Dict, 3))
					}
				})
			}
		})
	}
}

// oracleSummary checks ruleSet rule by rule with the rescan oracle, and
// cross-checks each report's ViolatedTraces against the LTL semantics.
func oracleSummary(t *testing.T, db *Database, ruleSet []Rule) verify.Summary {
	t.Helper()
	reports := make([]verify.RuleReport, len(ruleSet))
	for i, r := range ruleSet {
		rep, err := baseline.CheckRule(db, r)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ltl.FromRule(r.Pre, r.Post)
		if err != nil {
			t.Fatal(err)
		}
		violated := 0
		for _, s := range db.Sequences {
			if !ltl.Holds(f, s) {
				violated++
			}
		}
		if rep.ViolatedTraces != violated {
			t.Fatalf("rule %s: oracle reports %d violated traces, %s fails on %d",
				r.Pre.String(db.Dict)+" -> "+r.Post.String(db.Dict), rep.ViolatedTraces, f.String(db.Dict), violated)
		}
		reports[i] = rep
	}
	return verify.NewSummary(reports)
}

// buildCheckFixture streams w's traces through a durable, rule-checking
// Streamer over two shards with a small flush batch (so the store seals many
// segments), then recovers the database and reopens the store out of core.
func buildCheckFixture(t *testing.T, w checkWorkload) *checkFixture {
	t.Helper()
	dir := t.TempDir()
	ts, err := OpenStore(dir, StoreOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamer(StreamOptions{FlushBatch: 3, Dict: w.dict, Rules: w.rules, Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	for i, names := range w.traces {
		id := fmt.Sprintf("t%03d", i)
		if err := st.Ingest(id, names...); err != nil {
			t.Fatal(err)
		}
		if err := st.CloseTrace(id); err != nil {
			t.Fatal(err)
		}
	}
	fx := &checkFixture{}
	if fx.online, err = st.CheckOnline(); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if fx.db, err = Recover(dir); err != nil {
		t.Fatal(err)
	}
	// One oracle serves every mode because the streamer's snapshot and the
	// recovered database hold the same traces in the same order.
	if !reflect.DeepEqual(snap.Sequences, fx.db.Sequences) {
		t.Fatal("recovered database differs from the streamer's snapshot")
	}
	if fx.store, err = OpenStore(dir, StoreOptions{OutOfCore: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fx.store.Close() })
	if n := len(fx.store.Segments()); n < 2 {
		t.Fatalf("fixture sealed %d segment(s); the store modes need several", n)
	}
	return fx
}

// checkWorkloads returns the tracesim workloads — rules mined from a
// training batch plus rules over a never-occurring event and with repeated
// events, checked against fresh traffic with truncated scenarios — one whose
// premises never fire, and randomized workloads over small alphabets.
func checkWorkloads(t *testing.T) []checkWorkload {
	t.Helper()
	var out []checkWorkload
	names := make([]string, 0, len(tracesim.Workloads()))
	for name := range tracesim.Workloads() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := tracesim.Workloads()[name]
		train := w.MustGenerate(30, 7)
		res, err := MineRules(train, RuleOptions{MinSeqSupportRel: 0.5, MinConfidence: 0.8,
			MaxPremiseLength: 2, MaxConsequentLength: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rules) == 0 {
			t.Fatalf("%s: no rules mined", name)
		}
		ruleSet := res.Rules
		never := train.Dict.Intern("never_called")
		r0 := ruleSet[0]
		ruleSet = append(ruleSet,
			Rule{Pre: seqdb.Pattern{never}, Post: r0.Post},
			Rule{Pre: r0.Pre, Post: seqdb.Pattern{never}},
			Rule{Pre: seqdb.Pattern{r0.Pre[0], r0.Pre[0]}, Post: seqdb.Pattern{r0.Post[0], r0.Post[0]}},
		)
		fresh := w
		fresh.ViolationRate = 0.3
		db := fresh.MustGenerate(40, 99)
		out = append(out, checkWorkload{name: name, dict: train.Dict, traces: traceNames(db), rules: ruleSet})
	}
	// Rules whose premises never fire: every segment, and the in-memory
	// database as a whole, is answered from statistics without a checker.
	last := out[len(out)-1]
	never := last.dict.Lookup("never_called")
	r0 := last.rules[0]
	out = append(out, checkWorkload{name: "never-fires", dict: last.dict, traces: last.traces, rules: []Rule{
		{Pre: seqdb.Pattern{never}, Post: r0.Post},
		{Pre: seqdb.Pattern{r0.Pre[0], never}, Post: r0.Pre},
	}})
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out, randomCheckWorkload(seed))
	}
	return out
}

// randomCheckWorkload draws traces over a 2–5 event alphabet and 1–8 rules
// over that alphabet plus one event no trace contains. Small alphabets make
// repeated events within premises, consequents and traces the common case.
func randomCheckWorkload(seed int64) checkWorkload {
	rng := rand.New(rand.NewSource(seed))
	dict := seqdb.NewDictionary()
	alphabet := 2 + rng.Intn(4)
	for i := 0; i <= alphabet; i++ {
		dict.Intern(string(rune('a' + i)))
	}
	w := checkWorkload{name: fmt.Sprintf("random/seed=%d", seed), dict: dict}
	for i := 0; i < 20+rng.Intn(20); i++ {
		names := make([]string, 1+rng.Intn(14))
		for j := range names {
			names[j] = dict.Name(seqdb.EventID(rng.Intn(alphabet)))
		}
		w.traces = append(w.traces, names)
	}
	pattern := func() seqdb.Pattern {
		p := make(seqdb.Pattern, 1+rng.Intn(3))
		for j := range p {
			p[j] = seqdb.EventID(rng.Intn(alphabet + 1))
		}
		return p
	}
	for r := 0; r < 1+rng.Intn(8); r++ {
		w.rules = append(w.rules, Rule{Pre: pattern(), Post: pattern()})
	}
	return w
}

// traceNames renders db's traces as event names.
func traceNames(db *Database) [][]string {
	out := make([][]string, len(db.Sequences))
	for i, s := range db.Sequences {
		out[i] = make([]string, len(s))
		for j, ev := range s {
			out[i][j] = db.Dict.Name(ev)
		}
	}
	return out
}
