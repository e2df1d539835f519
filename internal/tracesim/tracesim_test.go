package tracesim

import (
	"strings"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
)

func TestWorkloadValidate(t *testing.T) {
	ok := Workload{
		Scenarios:            []Scenario{{Name: "s", Events: []string{"a"}}},
		MinScenariosPerTrace: 1,
		MaxScenariosPerTrace: 2,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	bad := []Workload{
		{},
		{Scenarios: []Scenario{{Name: "s"}}, MinScenariosPerTrace: 1, MaxScenariosPerTrace: 1},
		{Scenarios: []Scenario{{Name: "s", Events: []string{"a"}, Weight: -1}}, MinScenariosPerTrace: 1, MaxScenariosPerTrace: 1},
		{Scenarios: []Scenario{{Name: "s", Events: []string{"a"}}}, MinScenariosPerTrace: 0, MaxScenariosPerTrace: 1},
		{Scenarios: []Scenario{{Name: "s", Events: []string{"a"}}}, MinScenariosPerTrace: 2, MaxScenariosPerTrace: 1},
		{Scenarios: []Scenario{{Name: "s", Events: []string{"a"}}}, MinScenariosPerTrace: 1, MaxScenariosPerTrace: 1, NoiseRate: 1.5},
		{Scenarios: []Scenario{{Name: "s", Events: []string{"a"}}}, MinScenariosPerTrace: 1, MaxScenariosPerTrace: 1, ViolationRate: 2},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid workload accepted", i)
		}
	}
	if _, err := ok.Generate(0, 1); err == nil {
		t.Errorf("zero traces accepted")
	}
	if _, err := (Workload{}).Generate(5, 1); err == nil {
		t.Errorf("invalid workload generated traces")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := LockingComponent()
	a := w.MustGenerate(20, 3)
	b := w.MustGenerate(20, 3)
	if a.NumEvents() != b.NumEvents() || a.NumSequences() != b.NumSequences() {
		t.Fatalf("same seed differs")
	}
	for i := range a.Sequences {
		for j := range a.Sequences[i] {
			if a.Dict.Name(a.Sequences[i][j]) != b.Dict.Name(b.Sequences[i][j]) {
				t.Fatalf("trace %d differs at %d", i, j)
			}
		}
	}
	// Ids, not just names: the durable store's segment files hold raw
	// EventIDs, so the assignment order itself must be reproducible — a
	// map-iteration-ordered intern anywhere in the generator would pass the
	// name comparison above and still invalidate every stored segment.
	ea, eb := a.Dict.Export(), b.Dict.Export()
	if len(ea) != len(eb) {
		t.Fatalf("dictionaries sized %d vs %d for the same seed", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("id %d interned as %q vs %q — id assignment is nondeterministic", i, ea[i], eb[i])
		}
	}
	c := w.MustGenerate(20, 4)
	if a.NumEvents() == c.NumEvents() && a.NumSequences() == c.NumSequences() {
		// Same shape is possible but identical content is not expected; check
		// at least one event differs.
		same := true
	outer:
		for i := range a.Sequences {
			if len(a.Sequences[i]) != len(c.Sequences[i]) {
				same = false
				break
			}
			for j := range a.Sequences[i] {
				if a.Dict.Name(a.Sequences[i][j]) != c.Dict.Name(c.Sequences[i][j]) {
					same = false
					break outer
				}
			}
		}
		if same {
			t.Errorf("different seeds produced identical traces")
		}
	}
}

func TestWorkloadsRegistry(t *testing.T) {
	ws := Workloads()
	for _, name := range []string{"transaction", "security", "locking"} {
		w, ok := ws[name]
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("workload %q invalid: %v", name, err)
		}
		db := w.MustGenerate(10, 1)
		if db.NumSequences() != 10 {
			t.Errorf("workload %q generated %d traces", name, db.NumSequences())
		}
		if err := db.Validate(); err != nil {
			t.Errorf("workload %q produced invalid database: %v", name, err)
		}
	}
}

func TestTransactionTracesEmbedFigure4Pattern(t *testing.T) {
	w := TransactionComponent()
	db := w.MustGenerate(60, 11)
	pattern := seqdb.ParsePattern(db.Dict, strings.Join(TransactionPattern(), " "))
	if pattern.Len() != 32 {
		t.Fatalf("Figure 4 pattern has %d events, want 32", pattern.Len())
	}
	// The commit lifecycle must occur as a subsequence in a large fraction of
	// traces (it carries weight 4 of 5).
	containing := 0
	for _, s := range db.Sequences {
		if s.ContainsSubsequence(pattern) {
			containing++
		}
	}
	if containing < db.NumSequences()/2 {
		t.Errorf("Figure 4 pattern embedded in only %d/%d traces", containing, db.NumSequences())
	}
}

func TestSecurityTracesSupportFigure5Rule(t *testing.T) {
	w := SecurityComponent()
	db := w.MustGenerate(80, 13)
	pre := seqdb.ParsePattern(db.Dict, strings.Join(SecurityRulePremise(), " "))
	post := seqdb.ParsePattern(db.Dict, strings.Join(SecurityRuleConsequent(), " "))
	if pre.Len() != 2 || post.Len() != 12 {
		t.Fatalf("Figure 5 rule shape wrong: pre=%d post=%d", pre.Len(), post.Len())
	}
	r := rules.EvaluateRule(db, pre, post)
	if r.SeqSupport < db.NumSequences()/3 {
		t.Errorf("premise occurs in only %d/%d traces", r.SeqSupport, db.NumSequences())
	}
	if r.Confidence < 0.95 {
		t.Errorf("rule confidence %.2f too low: traces do not follow the JAAS scenario", r.Confidence)
	}
	// The configuration probe scenario must make the one-event premise less
	// predictive than the two-event premise, as in the real component.
	oneEvent := rules.EvaluateRule(db, seqdb.ParsePattern(db.Dict, "XmlLoginConfigImpl.getConfigEntry"), pre[1:].Concat(post))
	if oneEvent.Confidence >= r.Confidence {
		t.Errorf("one-event premise should be less predictive: %.2f >= %.2f", oneEvent.Confidence, r.Confidence)
	}
}

func TestViolationRateProducesViolations(t *testing.T) {
	w := LockingComponent()
	w.ViolationRate = 0.5
	db := w.MustGenerate(60, 17)
	pre := seqdb.ParsePattern(db.Dict, "Mutex.lock")
	post := seqdb.ParsePattern(db.Dict, "Mutex.unlock")
	r := rules.EvaluateRule(db, pre, post)
	if r.Confidence >= 0.999 {
		t.Errorf("with 50%% violations the lock/unlock rule should not be perfect (conf=%v)", r.Confidence)
	}
	if r.Confidence < 0.3 {
		t.Errorf("confidence %v implausibly low", r.Confidence)
	}
}

func TestScenarioWeightsRespected(t *testing.T) {
	w := Workload{
		Name: "weighted",
		Scenarios: []Scenario{
			{Name: "hot", Events: []string{"hot.a"}, Weight: 9},
			{Name: "cold", Events: []string{"cold.a"}, Weight: 1},
		},
		MinScenariosPerTrace: 5,
		MaxScenariosPerTrace: 5,
	}
	db := w.MustGenerate(100, 23)
	idx := db.FlatIndex()
	hot := idx.EventInstanceCount(db.Dict.Lookup("hot.a"))
	cold := idx.EventInstanceCount(db.Dict.Lookup("cold.a"))
	if hot <= cold*3 {
		t.Errorf("weights not respected: hot=%d cold=%d", hot, cold)
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustGenerate did not panic")
		}
	}()
	(Workload{}).MustGenerate(1, 1)
}
