// Command pipebench is specmine's end-to-end pipeline benchmark. Each
// repetition replays a tracesim op stream through sharded durable ingest
// (stream over the store's WALs and segments), closes the store, reopens it
// out-of-core, mines rules from it with core.MineStoreRules and checks a
// specification with core.CheckStore. It prints every metric as
// "name value unit" and, as its last line, one JSON object with the result.
// See README.md for the workloads, the metrics and their bounds.
//
//	go run . -workload ingest-locking -seed 1 -seconds 10 -trace 1
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 5
	// minReps is the fewest timed repetitions a pass makes, however short
	// -seconds is.
	minReps = 3
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics the result line carries without and
// with -trace 1; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"pipeline_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"disk_bytes_per_event", "B/event"},
}

var perLayer = []metricDef{
	{"span.open_s", "s"}, {"span.ingest_s", "s"}, {"span.barrier_s", "s"}, {"span.close_s", "s"},
	{"span.reopen_s", "s"}, {"span.mine_s", "s"}, {"span.check_s", "s"}, {"span.other_s", "s"},
	{"stream.ingest_calls", "count"}, {"stream.ingest_call_s", "s"},
	{"stream.ack_p50_us", "us"}, {"stream.ack_p99_us", "us"}, {"stream.ack_samples", "count"},
	{"stream.snapshot_calls", "count"}, {"stream.snapshot_s", "s"},
	{"stream.snapshot_p50_ms", "ms"}, {"stream.snapshot_max_ms", "ms"},
	{"stream.backpressure_waits", "count"}, {"stream.backpressure_s", "s"},
	{"stream.index_flush_s", "s"}, {"stream.events_acked", "count"},
	{"store.open_s", "s"}, {"store.close_s", "s"}, {"store.reopen_s", "s"},
	{"store.commits", "count"}, {"store.wal_flushes", "count"}, {"store.wal_flush_s", "s"},
	{"store.wal_bytes_per_event", "B/event"}, {"store.segments_published", "count"},
	{"store.segment_publish_s", "s"}, {"store.compaction_runs", "count"},
	{"store.wal_rotations", "count"}, {"store.retries", "count"}, {"store.segments", "count"},
	{"store.wal_bytes", "B"}, {"store.segment_bytes", "B"},
	{"cache.pins", "count"}, {"cache.bodies_opened", "count"}, {"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"}, {"cache.peak_mb", "MB"}, {"cache.budget_mb", "MB"},
	{"cache.decode_us_per_trace", "us"},
	{"mine.s", "s"}, {"mine.rules_emitted", "count"}, {"mine.premises_explored", "count"},
	{"mine.consequents_explored", "count"}, {"mine.nodes_per_s", "1/s"}, {"mine.segments_skipped", "count"},
	{"check.s", "s"}, {"check.traces_per_s", "1/s"},
	{"verify.traces_checked", "count"}, {"verify.traces_skipped", "count"},
	{"verify.rule_trace_gates", "count"}, {"verify.consequent_short_circuits", "count"},
	{"verify.probes_issued", "count"}, {"verify.gate_ratio", "ratio"}, {"verify.violations", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"proc.cpu_s", "s"}, {"proc.cpu_util", "ratio"}, {"proc.gc_cycles", "count"}, {"proc.gc_pause_s", "s"},
}

type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	dir      string
	scale    float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the process exit code: 0 when
// every output was correct, 1 when set-up, a call or a check failed (no
// result line is printed then), 2 on bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name: "+workloadNames())
	var c config
	fl.Int64Var(&c.seed, "seed", 1, "input seed")
	fl.Float64Var(&c.seconds, "seconds", 10, "how long each measured pass runs (at least 3 repetitions each)")
	traceFlag := fl.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	fl.StringVar(&c.traceOut, "trace-out", "", "span JSON file for -trace 1 (default <dir>/spans-<workload>-seed<n>.json)")
	fl.StringVar(&c.dir, "dir", ".bench_build", "directory for the repetitions' stores")
	fl.Float64Var(&c.scale, "scale", 1, "multiplies every workload's trace count")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fl.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || c.scale <= 0 {
		fmt.Fprintf(stderr, "pipebench: need -workload (%s), -trace 0|1 and a positive -scale\n", workloadNames())
		return 2
	}
	c.trace = *traceFlag == 1
	if c.trace && c.traceOut == "" {
		c.traceOut = filepath.Join(c.dir, fmt.Sprintf("spans-%s-seed%d.json", w.name, c.seed))
	}

	fmt.Fprintf(stdout, "# workload=%s seed=%d scale=%g go_version=%s num_cpu=%d gomaxprocs=%d\n",
		w.name, c.seed, c.scale, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := measure(w, c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(buf))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is one run's outcome: every metric by name, and the calls made by
// the timed repetitions.
type result struct {
	metrics           map[string]float64
	attempted, failed int64
}

// measure runs set-up, the warm-up repetition and its oracle, the untraced
// pass and (with c.trace) the traced pass, printing every metric as it goes.
func measure(w workload, c config, out io.Writer) (*result, error) {
	in, first, err := timeSetup(w, c.seed, c.scale, nil)
	if err != nil {
		return nil, err
	}
	// Set-up runs again while the untraced pass runs, spread evenly over it,
	// so that setup_s samples the same stretch of machine time as
	// pipeline_s rather than the first second of the run.
	setups := []float64{first}
	resetup := func() (time.Duration, error) {
		start := time.Now()
		_, t, err := timeSetup(w, c.seed, c.scale, in)
		setups = append(setups, t)
		return time.Since(start), err
	}
	fmt.Fprintf(out, "# traces=%d events=%d calls=%d spec_rules=%d\n# input_digest=%s\n# spec_digest=%s\n",
		len(in.traces), in.events, in.calls, len(in.spec), in.inputDigest, in.specDigest)
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(c.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	rep := 0
	nextDir := func() string {
		rep++
		return filepath.Join(work, fmt.Sprintf("rep-%03d", rep))
	}
	dir := nextDir()
	warm, err := runRep(w, in, dir, rep, false, true)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := checkOracle(w, in, dir, warm); err != nil {
		return nil, err
	}
	want := outputDigest(warm.rules, warm.check)
	fmt.Fprintf(out, "# mined_rules=%d violations=%d segments=%d\n", len(warm.rules), warm.check.TotalViolations(), warm.disk.segments)
	os.RemoveAll(dir)

	res := &result{metrics: make(map[string]float64)}
	// pass runs timed repetitions for seconds (at least minReps), checks
	// each one's output against the warm-up's, and keeps only its numbers.
	// With tracing the run is split between an untraced and a traced pass,
	// so a traced run takes as long as an untraced one.
	seconds := c.seconds
	if c.trace {
		seconds /= 2
	}
	pass := func(traced bool) ([]sample, error) {
		var samples []sample
		start := time.Now()
		var paused time.Duration // spent in set-up, not measuring
		elapsed := func() float64 { return (time.Since(start) - paused).Seconds() }
		for len(samples) < minReps || elapsed() < seconds {
			dir := nextDir()
			r, err := runRep(w, in, dir, rep, traced, false)
			res.attempted += r.attempted
			res.failed += r.failed
			if err == nil && !bytes.Equal(outputDigest(r.rules, r.check), want) {
				err = errors.New("output differs from the warm-up repetition's")
			}
			s := sample{
				wall:         r.wall.Seconds(),
				heapMB:       float64(r.peakHeap) / mb,
				diskPerEvent: float64(r.disk.total) / float64(in.events),
			}
			if err == nil && traced {
				s.layers, s.spans = layerMetrics(w, in, r), r.tr.spans
				if len(samples) == 0 {
					// Once per run: the sweep decodes the whole store again.
					s.layers["cache.decode_us_per_trace"], err = decodeSweep(dir, len(in.traces))
				}
			}
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("repetition %d: %w", rep, err)
			}
			samples = append(samples, s)
			if !traced && len(setups) < setupReps && elapsed() >= seconds*float64(len(setups))/setupReps {
				d, err := resetup()
				if err != nil {
					return nil, err
				}
				paused += d
			}
		}
		return samples, nil
	}

	plain, err := pass(false)
	if err != nil {
		return nil, err
	}
	for len(setups) < setupReps {
		if _, err := resetup(); err != nil {
			return nil, err
		}
	}
	res.metrics["setup_s"] = median(setups)
	// pipeline_s is the fastest repetition, not the median: see README.md
	// ("Why the fastest repetition") for the CPU-speed phases it filters out.
	walls := field(plain, func(s sample) float64 { return s.wall })
	res.metrics["pipeline_s"] = slices.Min(walls)
	res.metrics["peak_heap_mb"] = median(field(plain, func(s sample) float64 { return s.heapMB }))
	res.metrics["disk_bytes_per_event"] = median(field(plain, func(s sample) float64 { return s.diskPerEvent }))
	for _, d := range endToEnd {
		fmt.Fprintf(out, "%s %.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintf(out, "pipeline_median_s %.6g s\npipeline_max_s %.6g s\npipeline_reps %d count\nfailed_op_ratio %.6g ratio\n",
		median(walls), slices.Max(walls), len(walls), float64(res.failed)/float64(max(res.attempted, 1)))
	if !c.trace {
		return res, nil
	}

	traced, err := pass(true)
	if err != nil {
		return nil, err
	}
	layers := make(map[string][]float64)
	var spans []span
	for _, s := range traced {
		for k, v := range s.layers {
			layers[k] = append(layers[k], v)
		}
		spans = append(spans, s.spans...)
	}
	for k, vs := range layers {
		res.metrics[k] = median(vs)
	}
	res.metrics["trace.overhead_ratio"] = slices.Min(field(traced, func(s sample) float64 { return s.wall })) / res.metrics["pipeline_s"]
	for _, d := range perLayer {
		fmt.Fprintf(out, "%s %.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintf(out, "traced_reps %d count\n", len(traced))
	return res, writeSpans(c.traceOut, w, c, spans)
}

// sample is what a measured repetition leaves behind once its outputs are
// checked and its store deleted.
type sample struct {
	wall, heapMB, diskPerEvent float64
	layers                     map[string]float64 // traced only
	spans                      []span             // traced only
}

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
