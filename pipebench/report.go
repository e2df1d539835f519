package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"specmine/internal/obs"
	"specmine/internal/store"
	"specmine/internal/store/cache"
)

// mb is the unit of the *_mb metrics.
const mb = 1 << 20

// layerMetrics derives one traced repetition's per-layer metrics from its
// spans, its call latencies and the registry shared by store, stream and
// cache. Phases are the root span's children; span.other_s is what they
// leave of the repetition's wall time.
func layerMetrics(w workload, in *inputs, r *repOutput) map[string]float64 {
	wall := r.wall.Seconds()
	m := make(map[string]float64)
	named := make(map[string]float64)
	phases := 0.0
	for _, s := range r.tr.spans {
		named[s.Name] += s.seconds()
		if s.Parent == 1 {
			m["span."+s.Name+"_s"] += s.seconds()
			phases += s.seconds()
		}
	}
	m["span.other_s"] = wall - phases

	var acks, snaps []float64
	for _, p := range r.prods {
		for _, d := range p.acks {
			acks = append(acks, d.Seconds())
		}
	}
	for _, s := range r.tr.spans {
		if s.Name == "stream.snapshot" {
			snaps = append(snaps, s.seconds())
		}
	}
	slices.Sort(acks)
	slices.Sort(snaps)
	reg := series(r.reg.Snapshot())
	m["stream.ingest_calls"] = float64(len(acks))
	m["stream.ingest_call_s"] = sum(acks)
	m["stream.ack_p50_us"] = quantile(acks, 0.50) * 1e6
	m["stream.ack_p99_us"] = quantile(acks, 0.99) * 1e6
	m["stream.ack_samples"] = float64(len(acks))
	m["stream.snapshot_calls"] = float64(len(snaps))
	m["stream.snapshot_s"] = sum(snaps)
	m["stream.snapshot_p50_ms"] = quantile(snaps, 0.50) * 1e3
	m["stream.snapshot_max_ms"] = quantile(snaps, 1) * 1e3
	m["stream.backpressure_waits"] = reg.value("stream.backpressure_waits")
	m["stream.backpressure_s"] = reg.histSum("stream.backpressure_wait_ns") / 1e9
	m["stream.index_flush_s"] = reg.histSum("stream.flush_ns") / 1e9
	m["stream.events_acked"] = reg.value("stream.events_acked")

	m["store.open_s"] = named["store.open"]
	m["store.close_s"] = named["store.close"]
	m["store.reopen_s"] = named["reopen"]
	m["store.commits"] = reg.value("store.commits")
	m["store.wal_flushes"] = reg.histCount("store.wal_flush_ns")
	m["store.wal_flush_s"] = reg.histSum("store.wal_flush_ns") / 1e9
	m["store.wal_bytes_per_event"] = reg.histSum("store.wal_flush_bytes") / float64(in.events)
	m["store.segments_published"] = reg.value("store.segments_published")
	m["store.segment_publish_s"] = reg.histSum("store.segment_publish_ns") / 1e9
	m["store.compaction_runs"] = reg.value("store.compaction_runs")
	m["store.wal_rotations"] = reg.value("store.wal_rotations")
	m["store.retries"] = reg.value("store.retries")
	m["store.segments"] = float64(r.disk.segments)
	m["store.wal_bytes"] = float64(r.disk.wal)
	m["store.segment_bytes"] = float64(r.disk.seg)

	pins, bodies := reg.value("cache.pins"), reg.value("cache.bodies_opened")
	m["cache.pins"] = pins
	m["cache.bodies_opened"] = bodies
	if pins > 0 {
		m["cache.hit_ratio"] = 1 - bodies/pins
	}
	m["cache.evictions"] = reg.value("cache.evictions")
	m["cache.peak_mb"] = reg.value("cache.peak_bytes") / mb
	if w.cacheDiv > 0 {
		m["cache.budget_mb"] = float64(in.decoded/w.cacheDiv) / mb
	}

	mine := named["mine"]
	premises, consequents := reg.value("mine.premises_explored"), reg.value("mine.consequents_explored")
	m["mine.s"] = mine
	m["mine.rules_emitted"] = reg.value("mine.rules_emitted")
	m["mine.premises_explored"] = premises
	m["mine.consequents_explored"] = consequents
	m["mine.nodes_per_s"] = (premises + consequents) / mine
	m["mine.segments_skipped"] = float64(r.mineStats.SegmentsSkipped)

	check := named["check"]
	traces := float64(len(in.traces))
	m["check.s"] = check
	m["check.traces_per_s"] = traces / check
	for _, k := range []string{"traces_checked", "traces_skipped", "rule_trace_gates", "consequent_short_circuits", "probes_issued"} {
		m["verify."+k] = reg.value("verify." + k)
	}
	m["verify.gate_ratio"] = m["verify.rule_trace_gates"] / (float64(len(in.spec)) * traces)
	m["verify.violations"] = float64(r.check.TotalViolations())

	m["proc.cpu_s"] = r.cpu.Seconds()
	m["proc.cpu_util"] = r.cpu.Seconds() / wall
	m["proc.gc_cycles"] = float64(r.gcCycles)
	m["proc.gc_pause_s"] = r.gcPause.Seconds()
	return m
}

// series reads a registry snapshot, summing every labeled variant of a name.
type series []obs.Series

func (s series) value(name string) float64 {
	v := 0.0
	for _, x := range s {
		if x.Name == name {
			v += float64(x.Value)
		}
	}
	return v
}

func (s series) histSum(name string) float64 {
	v := 0.0
	for _, x := range s {
		if x.Name == name {
			v += float64(x.Sum)
		}
	}
	return v
}

func (s series) histCount(name string) float64 {
	v := 0.0
	for _, x := range s {
		if x.Name == name {
			v += float64(x.Count)
		}
	}
	return v
}

// decodeSweep reopens a closed store out-of-core and pins every segment
// once through a fresh unlimited cache, returning the decode time per trace
// in microseconds.
func decodeSweep(dir string, traces int) (float64, error) {
	st, err := store.Open(store.Options{Dir: dir, OutOfCore: true})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	pool := cache.New(st, cache.Options{})
	start := time.Now()
	for i := 0; i < pool.NumSegments(); i++ {
		sg, err := pool.Pin(i)
		if err != nil {
			return 0, err
		}
		sg.Unpin()
	}
	return time.Since(start).Seconds() * 1e6 / float64(traces), nil
}

// writeSpans writes the traced repetitions' spans as one JSON document.
func writeSpans(path string, w workload, c config, spans []span) error {
	doc := struct {
		Workload   string  `json:"workload"`
		Seed       int64   `json:"seed"`
		Scale      float64 `json:"scale"`
		GoVersion  string  `json:"go_version"`
		NumCPU     int     `json:"num_cpu"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Spans      []span  `json:"spans"`
	}{w.name, c.seed, c.scale, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// quantile is the nearest-rank q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
