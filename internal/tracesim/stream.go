package tracesim

import (
	"fmt"
	"math/rand"
)

// Streaming replay of a workload: the same traces Generate produces, but
// delivered the way a live instrumented system would deliver them — as an
// interleaved stream of event chunks across many concurrently open traces,
// each eventually terminated. This is the workload generator for the stream
// ingester and the online conformance benchmarks.

// StreamChunk is one delivery from a live trace: a run of consecutive events
// belonging to TraceID. Final marks the trace's last chunk (a terminated
// trace); a Final chunk may carry zero events when the trace already
// delivered everything.
type StreamChunk struct {
	TraceID string
	Events  []string
	Final   bool
}

// TraceID returns the stable identifier of the i-th trace of a streamed
// workload, matching sequence i of the equivalent Generate call.
func TraceID(i int) string { return fmt.Sprintf("trace-%06d", i) }

// Stream generates exactly the traces of Generate(numTraces, seed) and
// delivers them as an interleaved chunk stream: up to concurrency traces are
// open at any moment, and each step appends a small chunk to one of them,
// chosen pseudo-randomly (deterministically for fixed arguments). fn is
// called once per chunk; a non-nil error aborts the stream and is returned.
func (w Workload) Stream(numTraces int, seed int64, concurrency int, fn func(StreamChunk) error) error {
	db, err := w.Generate(numTraces, seed)
	if err != nil {
		return err
	}
	if concurrency < 1 {
		concurrency = 1
	}
	// An independent generator drives the interleaving so the trace contents
	// stay byte-identical to Generate regardless of concurrency.
	rng := rand.New(rand.NewSource(seed*31 + int64(concurrency)))

	type openTrace struct {
		id   int
		name string // TraceID(id), formatted once per trace
		pos  int
	}
	var active []openTrace
	next := 0
	for len(active) > 0 || next < numTraces {
		for len(active) < concurrency && next < numTraces {
			active = append(active, openTrace{id: next, name: TraceID(next)})
			next++
		}
		k := rng.Intn(len(active))
		o := &active[k]
		s := db.Sequences[o.id]

		n := 1 + rng.Intn(4)
		if rest := len(s) - o.pos; n > rest {
			n = rest
		}
		events := make([]string, n)
		for i := 0; i < n; i++ {
			events[i] = db.Dict.Name(s[o.pos+i])
		}
		o.pos += n
		final := o.pos >= len(s)
		if err := fn(StreamChunk{TraceID: o.name, Events: events, Final: final}); err != nil {
			return err
		}
		if final {
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	return nil
}
