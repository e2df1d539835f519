package qre

import (
	"math/rand"
	"testing"

	"specmine/internal/seqdb"
	"specmine/internal/synth"
	"specmine/internal/tracesim"
)

func spansOfInstances(insts []Instance) []Span {
	out := make([]Span, len(insts))
	for i, in := range insts {
		out[i] = Span{Seq: int32(in.Seq), Start: int32(in.Start), End: int32(in.End)}
	}
	return out
}

// spanRunsOf compresses an explicit span list. Spans must be in the order the
// miners produce them: grouped by sequence, starts increasing within a
// sequence.
func spanRunsOf(spans []Span) SpanRuns {
	var rs SpanRuns
	for _, sp := range spans {
		rs.Append(sp)
	}
	return rs
}

// spansOf materialises the explicit span list rs represents.
func spansOf(rs SpanRuns) []Span {
	out := make([]Span, 0, rs.Len())
	rs.ForEach(func(sp Span) { out = append(out, sp) })
	return out
}

// checkRoundTrip compresses spans into SpanRuns and verifies every view of
// the compressed form reproduces the explicit list exactly: spansOf, ForEach
// order, Export, Len, SeqSupport, plus the canonicality guarantees the miners
// rely on (Equal and Signature agreement for equal lists).
func checkRoundTrip(t *testing.T, label string, spans []Span) {
	t.Helper()
	rs := spanRunsOf(spans)
	if rs.Len() != len(spans) {
		t.Fatalf("%s: Len=%d want %d", label, rs.Len(), len(spans))
	}
	back := spansOf(rs)
	if len(back) != len(spans) {
		t.Fatalf("%s: round-trip length %d want %d", label, len(back), len(spans))
	}
	for i := range spans {
		if back[i] != spans[i] {
			t.Fatalf("%s: span %d round-tripped to %+v want %+v (runs=%+v)", label, i, back[i], spans[i], rs.Runs())
		}
	}
	exported := rs.Export()
	for i := range spans {
		if exported[i] != spans[i].Export() {
			t.Fatalf("%s: instance %d exported to %+v want %+v", label, i, exported[i], spans[i].Export())
		}
	}
	seqs := 0
	lastSeq := int32(-1)
	for _, sp := range spans {
		if sp.Seq != lastSeq {
			seqs++
			lastSeq = sp.Seq
		}
	}
	if rs.SeqSupport() != seqs {
		t.Fatalf("%s: SeqSupport=%d want %d", label, rs.SeqSupport(), seqs)
	}
	// Canonicality: recompressing the same list yields identical runs.
	again := spanRunsOf(back)
	if !rs.Equal(again) {
		t.Fatalf("%s: recompression not canonical: %+v vs %+v", label, rs.Runs(), again.Runs())
	}
	if rs.Signature() != again.Signature() {
		t.Fatalf("%s: signatures differ for equal lists", label)
	}
}

func checkDatabasePatterns(t *testing.T, label string, db *seqdb.Database, maxLen int) {
	t.Helper()
	// Use the per-event frequent alphabet to enumerate a spread of patterns,
	// including looping multi-event ones, then round-trip their instance lists.
	idx := db.FlatIndex()
	events := idx.FrequentEventsByInstanceCount(2)
	if len(events) > 12 {
		events = events[:12]
	}
	var patterns []seqdb.Pattern
	for _, e := range events {
		patterns = append(patterns, seqdb.Pattern{e})
	}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40 && len(events) > 0; iter++ {
		n := 2 + rng.Intn(maxLen-1)
		p := make(seqdb.Pattern, n)
		for i := range p {
			p[i] = events[rng.Intn(len(events))]
		}
		patterns = append(patterns, p)
	}
	total := 0
	compressed := 0
	for _, p := range patterns {
		insts := FindAllInstances(db, p)
		spans := spansOfInstances(insts)
		checkRoundTrip(t, label+"/"+p.Key(), spans)
		rs := spanRunsOf(spans)
		total += rs.Len()
		compressed += len(rs.Runs())
	}
	if total > 0 && compressed > total {
		t.Fatalf("%s: compression expanded: %d runs for %d spans", label, compressed, total)
	}
}

// TestSpanRunsRoundTripWorkloads is the compression property test: on Quest
// synthetic databases and on every tracesim workload (including the dense
// looping ones the run representation exists for), compressing an instance
// list and decompressing it reproduces the same spans in the same order.
// Run under -race in CI.
func TestSpanRunsRoundTripWorkloads(t *testing.T) {
	quest := synth.MustGenerate(synth.Config{
		NumSequences: 40, AvgSequenceLength: 30, NumEvents: 60, AvgPatternLength: 6, Seed: 17,
	})
	checkDatabasePatterns(t, "quest", quest, 4)

	for name, w := range tracesim.Workloads() {
		db := w.MustGenerate(30, 7)
		checkDatabasePatterns(t, "tracesim-"+name, db, 5)
	}
}

// TestSpanRunsRandomized drives Append with adversarial random span streams
// (valid miner order, arbitrary strides and lengths) and checks the
// round-trip plus canonical equality between independently built lists.
func TestSpanRunsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 500; iter++ {
		var spans []Span
		numSeqs := 1 + rng.Intn(4)
		for s := 0; s < numSeqs; s++ {
			start := int32(rng.Intn(3))
			for k := 0; k < rng.Intn(12); k++ {
				length := int32(rng.Intn(5))
				spans = append(spans, Span{Seq: int32(s), Start: start, End: start + length})
				start += 1 + int32(rng.Intn(4))
			}
		}
		checkRoundTrip(t, "random", spans)
	}
}

// TestSpanRunsCompressesLoops pins the representation's reason to exist: a
// periodic instance list (one instance per loop iteration) collapses into a
// single run.
func TestSpanRunsCompressesLoops(t *testing.T) {
	var spans []Span
	for i := int32(0); i < 50; i++ {
		spans = append(spans, Span{Seq: 3, Start: 10 + 7*i, End: 13 + 7*i})
	}
	rs := spanRunsOf(spans)
	if len(rs.Runs()) != 1 {
		t.Fatalf("periodic list compressed to %d runs, want 1 (%+v)", len(rs.Runs()), rs.Runs())
	}
	r := rs.Runs()[0]
	if r.Count != 50 || r.Stride != 7 || r.Seq != 3 || r.Start != 10 || r.End != 13 {
		t.Fatalf("unexpected run %+v", r)
	}
	checkRoundTrip(t, "loop", spans)
}

func TestSpanRunsResetRecycles(t *testing.T) {
	rs := spanRunsOf([]Span{{Seq: 0, Start: 1, End: 2}, {Seq: 0, Start: 4, End: 5}})
	backing := rs.Runs()
	rs.Reset(backing)
	if rs.Len() != 0 || len(rs.Runs()) != 0 {
		t.Fatalf("Reset left state: %+v", rs)
	}
	rs.Append(Span{Seq: 1, Start: 0, End: 0})
	if rs.Len() != 1 || rs.Runs()[0].Seq != 1 {
		t.Fatalf("append after Reset wrong: %+v", rs.Runs())
	}
}
