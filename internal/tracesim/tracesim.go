// Package tracesim simulates instrumented program traces in the style of the
// paper's JBoss Application Server case study (Section 7).
//
// The paper instruments components of JBoss AS with JBoss-AOP and collects
// method-invocation traces by running the distribution's test suite. That
// substrate is not reproducible offline, so this package provides the closest
// synthetic equivalent: a scenario-driven trace generator. A Workload bundles
// the behavioural scenarios of one component (each scenario being the series
// of method invocations a use case produces), background noise events from
// the rest of the component, a looping model (several scenario executions per
// test-case trace) and an aberration model (occasionally truncated scenario
// executions). Traces generated this way preserve the structural properties
// that make specification mining non-trivial: related events separated by
// arbitrary gaps, repetition within a trace and across traces, and noise.
//
// Two predefined workloads reproduce the case-study components:
// TransactionComponent (Figure 4) and SecurityComponent (Figure 5).
package tracesim

import (
	"errors"
	"fmt"
	"math/rand"

	"specmine/internal/seqdb"
)

// Scenario is one behavioural use case: the exact series of method
// invocations it emits, and its relative weight within the workload.
type Scenario struct {
	Name   string
	Events []string
	Weight float64
}

// Workload describes the trace-generation model for one instrumented
// component.
type Workload struct {
	// Name identifies the component (used by CLIs and reports).
	Name string
	// Scenarios are the use cases exercised by the simulated test suite.
	Scenarios []Scenario
	// NoiseEvents are method invocations from unrelated parts of the
	// component, interleaved between scenario events.
	NoiseEvents []string
	// NoiseRate is the probability of emitting a noise event before each
	// scenario event.
	NoiseRate float64
	// MinScenariosPerTrace and MaxScenariosPerTrace bound how many scenario
	// executions one test-case trace contains (looping behaviour).
	MinScenariosPerTrace int
	MaxScenariosPerTrace int
	// ViolationRate is the probability that a scenario execution is truncated
	// at a random point, simulating aberrant runs (failing test cases,
	// exceptions). Violating executions are what the verification tooling is
	// meant to flag.
	ViolationRate float64
}

// Validate reports configuration errors.
func (w Workload) Validate() error {
	if len(w.Scenarios) == 0 {
		return errors.New("tracesim: workload needs at least one scenario")
	}
	for _, sc := range w.Scenarios {
		if len(sc.Events) == 0 {
			return fmt.Errorf("tracesim: scenario %q has no events", sc.Name)
		}
		if sc.Weight < 0 {
			return fmt.Errorf("tracesim: scenario %q has negative weight", sc.Name)
		}
	}
	if w.NoiseRate < 0 || w.NoiseRate >= 1 {
		return errors.New("tracesim: NoiseRate must be in [0, 1)")
	}
	if w.ViolationRate < 0 || w.ViolationRate > 1 {
		return errors.New("tracesim: ViolationRate must be in [0, 1]")
	}
	if w.MinScenariosPerTrace < 1 || w.MaxScenariosPerTrace < w.MinScenariosPerTrace {
		return errors.New("tracesim: scenario-per-trace bounds must satisfy 1 <= min <= max")
	}
	return nil
}

// Generate produces numTraces traces under the workload model. The same
// arguments always produce the same database.
func (w Workload) Generate(numTraces int, seed int64) (*seqdb.Database, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if numTraces < 1 {
		return nil, errors.New("tracesim: numTraces must be >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	db := seqdb.NewDatabase()
	db.Sequences = make([]seqdb.Sequence, 0, numTraces)

	totalWeight := 0.0
	for _, sc := range w.Scenarios {
		weight := sc.Weight
		if weight == 0 {
			weight = 1
		}
		totalWeight += weight
	}

	var names []string // reused: AppendNames copies the trace out
	for i := 0; i < numTraces; i++ {
		repetitions := w.MinScenariosPerTrace
		if w.MaxScenariosPerTrace > w.MinScenariosPerTrace {
			repetitions += rng.Intn(w.MaxScenariosPerTrace - w.MinScenariosPerTrace + 1)
		}
		names = names[:0]
		for r := 0; r < repetitions; r++ {
			sc := w.pickScenario(rng, totalWeight)
			limit := len(sc.Events)
			if w.ViolationRate > 0 && rng.Float64() < w.ViolationRate && limit > 1 {
				limit = 1 + rng.Intn(limit-1)
			}
			for _, ev := range sc.Events[:limit] {
				if len(w.NoiseEvents) > 0 && rng.Float64() < w.NoiseRate {
					names = append(names, w.NoiseEvents[rng.Intn(len(w.NoiseEvents))])
				}
				names = append(names, ev)
			}
			if len(w.NoiseEvents) > 0 && rng.Float64() < w.NoiseRate {
				names = append(names, w.NoiseEvents[rng.Intn(len(w.NoiseEvents))])
			}
		}
		db.AppendNames(names...)
	}
	return db, nil
}

// MustGenerate is Generate for static workloads; it panics on error.
func (w Workload) MustGenerate(numTraces int, seed int64) *seqdb.Database {
	db, err := w.Generate(numTraces, seed)
	if err != nil {
		panic(err)
	}
	return db
}

func (w Workload) pickScenario(rng *rand.Rand, totalWeight float64) Scenario {
	f := rng.Float64() * totalWeight
	acc := 0.0
	for _, sc := range w.Scenarios {
		weight := sc.Weight
		if weight == 0 {
			weight = 1
		}
		acc += weight
		if f <= acc {
			return sc
		}
	}
	return w.Scenarios[len(w.Scenarios)-1]
}

// Workloads returns the predefined component workloads by name.
func Workloads() map[string]Workload {
	return map[string]Workload{
		"transaction": TransactionComponent(),
		"security":    SecurityComponent(),
		"locking":     LockingComponent(),
	}
}
