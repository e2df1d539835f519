package core

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"specmine/internal/obs"
	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/tracesim"
)

// streamWorkload drives a fixed tracesim workload through the ingester and
// returns the number of events ingested (the count the stream.events_acked
// counter must match exactly).
func streamWorkload(t *testing.T, st *stream.Ingester, w tracesim.Workload, numTraces int, seed int64) int64 {
	t.Helper()
	var events int64
	err := w.Stream(numTraces, seed, 5, func(c tracesim.StreamChunk) error {
		if len(c.Events) > 0 {
			if err := st.Ingest(c.TraceID, c.Events...); err != nil {
				return err
			}
			events += int64(len(c.Events))
		}
		if c.Final {
			return st.CloseTrace(c.TraceID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// scrapeProm fetches a Prometheus text exposition and returns every sample,
// keyed both by the full "name{labels}" form and by the bare metric name
// summed across label sets (how per-shard series are checked in aggregate).
func scrapeProm(t *testing.T, url string) (full, sums map[string]int64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	full = make(map[string]int64)
	sums = make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		key := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		full[key] += int64(v)
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		sums[name] += int64(v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return full, sums
}

func counterVal(t *testing.T, reg *MetricsRegistry, name string) int64 {
	t.Helper()
	s, ok := reg.Find(name)
	if !ok {
		t.Fatalf("series %q not registered", name)
	}
	return s.Value
}

// TestMetricsSmoke is the end-to-end observability smoke: one registry shared
// by the durable streaming session, the store, and an out-of-core checking
// run, exposed over a loopback ServeDebug endpoint and scraped back. The
// scraped series must exist and be mutually consistent — acked events equal
// the workload's event count, cache hits plus bodies opened equal pins.
func TestMetricsSmoke(t *testing.T) {
	w := tracesim.Workloads()["transaction"]
	const numTraces = 40
	train := w.MustGenerate(numTraces, 11)
	res, err := MineRules(train, RuleOptions{
		MinSeqSupportRel: 0.5, MinConfidence: 0.8,
		MaxPremiseLength: 2, MaxConsequentLength: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules mined from the training batch")
	}

	reg := NewMetrics()
	dir := t.TempDir()
	ts, err := store.Open(store.Options{Dir: dir, Shards: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stream.Open(stream.Config{FlushBatch: 4, Dict: train.Dict, Store: ts, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	events := streamWorkload(t, st, w, numTraces, 11)
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	// Out-of-core checking over the same registry populates the cache.*,
	// verify.* and store.* recovery-side series.
	ts2, err := store.Open(store.Options{Dir: dir, OutOfCore: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckStore(ts2, res.Rules, OutOfCoreOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if err := ts2.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := ServeDebug("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	full, sums := scrapeProm(t, base+"/debug/metrics")
	if got := sums["stream_events_acked"]; got != events {
		t.Errorf("scraped stream_events_acked = %d, workload ingested %d events", got, events)
	}
	if got := sums["stream_traces_sealed"]; got != numTraces {
		t.Errorf("scraped stream_traces_sealed = %d, want %d", got, numTraces)
	}
	if got := sums["cache_pins"]; got == 0 || got != sums["cache_hits"]+sums["cache_bodies_opened"] {
		t.Errorf("scraped cache_pins = %d, hits+bodies_opened = %d+%d", got, sums["cache_hits"], sums["cache_bodies_opened"])
	}
	if sums["store_commits"] == 0 {
		t.Error("scraped store_commits is zero after durable ingest")
	}
	if sums["store_wal_flush_ns_count"] == 0 {
		t.Error("scraped store_wal_flush_ns histogram recorded no flushes")
	}
	if sums["store_segments_published"] == 0 {
		t.Error("scraped store_segments_published is zero after sealing traces")
	}
	for _, name := range []string{
		"stream_ingest_ns_count",
		"verify_traces_checked", "verify_segments_checked",
		"cache_resident_bytes", "cache_peak_bytes", "store_health_state",
	} {
		if _, ok := sums[name]; !ok {
			t.Errorf("scraped exposition is missing series %s", name)
		}
	}
	// Per-shard series carry the shard label through the exposition.
	if _, ok := full[`stream_queue_depth{shard="0"}`]; !ok {
		t.Error(`scraped exposition is missing stream_queue_depth{shard="0"}`)
	}

	// The JSON snapshot agrees with the Prometheus view.
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Series []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	foundAcked := false
	for _, s := range vars.Series {
		if s.Name == "stream.events_acked" {
			foundAcked = true
			if s.Value != events {
				t.Errorf("/debug/vars stream.events_acked = %d, want %d", s.Value, events)
			}
		}
	}
	if !foundAcked {
		t.Error("/debug/vars is missing stream.events_acked")
	}

	// The traced-operations endpoint serves JSON.
	resp, err = http.Get(base + "/debug/ops")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/ops: status %d err %v", resp.StatusCode, err)
	}
	if !json.Valid(body) {
		t.Fatalf("GET /debug/ops returned invalid JSON: %.100s", body)
	}
}

// TestRegistryCounterEquivalence pins the contract that registry counters are
// exact, not sampled: after a fixed workload, the registry's stream ack
// totals equal the driven counts, and a fresh registry attached to an
// out-of-core checking run reports exactly the counts of the call's own
// registry, Explain.Obs.
func TestRegistryCounterEquivalence(t *testing.T) {
	w := tracesim.Workloads()["locking"]
	const numTraces = 30
	train := w.MustGenerate(numTraces, 23)
	res, err := MineRules(train, RuleOptions{
		MinSeqSupportRel: 0.4, MinConfidence: 0.7,
		MaxPremiseLength: 2, MaxConsequentLength: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules mined from the training batch")
	}

	regIngest := NewMetrics()
	dir := t.TempDir()
	ts, err := store.Open(store.Options{Dir: dir, Shards: 2, Obs: regIngest})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stream.Open(stream.Config{FlushBatch: 4, Dict: train.Dict, Store: ts, Obs: regIngest})
	if err != nil {
		t.Fatal(err)
	}
	events := streamWorkload(t, st, w, numTraces, 23)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if got := counterVal(t, regIngest, "stream.events_acked"); got != events {
		t.Errorf("stream.events_acked = %d, drove %d events", got, events)
	}
	if got := counterVal(t, regIngest, "stream.traces_sealed"); got != numTraces {
		t.Errorf("stream.traces_sealed = %d, sealed %d traces", got, numTraces)
	}

	// A fresh registry on the checking run: its cumulative series must equal
	// the call's own registry series by series.
	regCheck := NewMetrics()
	ts2, err := store.Open(store.Options{Dir: dir, OutOfCore: true, Obs: regCheck})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := CheckStore(ts2, res.Rules, OutOfCoreOptions{CacheBytes: 1 << 16, Obs: regCheck})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"verify.traces_checked", "verify.traces_skipped",
		"verify.segments_checked", "verify.segments_skipped",
		"cache.pins", "cache.hits", "cache.evictions",
		"cache.bodies_opened", "cache.segments_opened",
		"cache.resident_bytes", "cache.peak_bytes",
	} {
		if got, want := counterVal(t, regCheck, name), counterVal(t, stats.Obs, name); got != want {
			t.Errorf("%s = %d, the call's registry reports %d", name, got, want)
		}
	}
	if counterVal(t, stats.Obs, "verify.traces_checked")+counterVal(t, stats.Obs, "verify.traces_skipped") == 0 {
		t.Error("checking run did no per-trace work at all")
	}

	// Determinism: the identical run on yet another fresh registry produces
	// identical counter values.
	regAgain := NewMetrics()
	ts3, err := store.Open(store.Options{Dir: dir, OutOfCore: true, Obs: regAgain})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckStore(ts3, res.Rules, OutOfCoreOptions{CacheBytes: 1 << 16, Obs: regAgain}); err != nil {
		t.Fatal(err)
	}
	if err := ts3.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"verify.traces_checked", "verify.traces_skipped",
		"verify.segments_checked", "verify.segments_skipped",
	} {
		if a, b := counterVal(t, regCheck, name), counterVal(t, regAgain, name); a != b {
			t.Errorf("%s differs across identical runs: %d vs %d", name, a, b)
		}
	}
}

// TestConcurrentCallsCountPerCall pins per-call counting on a shared
// registry: concurrent CheckStore and MineStoreRules calls, all counting into
// one OutOfCoreOptions.Obs under a small cache budget, each report in
// stats.Obs exactly the counters of the same call run alone, and the shared
// registry holds the sum over the calls. GOMAXPROCS is 1 so that each
// CheckStore call's segment fan-out has one worker and pins its segments in
// ordinal order, which makes its cache.evictions exact; the calls still
// overlap as goroutines. TestCheckStoreWorkerCountInvariance covers the
// counters at more workers.
func TestConcurrentCallsCountPerCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ts := buildSegmentedStore(t, 3, 4, 20)
	ruleSet := queryRules(t, ts.Recovered().Database(ts.Dict()))
	const budget, calls = 2 << 10, 4
	runs := []struct {
		name string
		run  func(OutOfCoreOptions) (*Explain, error)
		must []string // series the call must have counted
	}{
		{"CheckStore", func(oo OutOfCoreOptions) (*Explain, error) {
			_, stats, err := CheckStore(ts, ruleSet, oo)
			return stats, err
		}, []string{"cache.pins", "cache.bodies_opened", "cache.evictions",
			"verify.traces_checked", "verify.segments_checked"}},
		{"MineStoreRules", func(oo OutOfCoreOptions) (*Explain, error) {
			_, stats, err := MineStoreRules(ts, RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
				MaxPremiseLength: 2, MaxConsequentLength: 2, Workers: 1}, oo)
			return stats, err
		}, []string{"cache.pins", "cache.hits", "cache.bodies_opened", "cache.evictions",
			"mine.premises_explored", "mine.rules_emitted"}},
	}
	// counters reads every counter series of a registry.
	counters := func(r *MetricsRegistry) map[string]int64 {
		out := map[string]int64{}
		for _, s := range r.Snapshot() {
			if s.Kind == obs.KindCounter {
				out[s.Name] = s.Value
			}
		}
		return out
	}
	for _, rc := range runs {
		t.Run(rc.name, func(t *testing.T) {
			solo, err := rc.run(OutOfCoreOptions{CacheBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			want := counters(solo.Obs)
			for _, name := range rc.must {
				if want[name] == 0 {
					t.Fatalf("solo run counted no %s (%v): the fixture does not exercise it", name, want)
				}
			}

			shared := NewMetrics()
			stats := make([]*Explain, calls)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range stats {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					s, err := rc.run(OutOfCoreOptions{CacheBytes: budget, Obs: shared})
					if err != nil {
						t.Error(err)
					}
					stats[i] = s
				}()
			}
			close(start)
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, s := range stats {
				if got := counters(s.Obs); !reflect.DeepEqual(got, want) {
					t.Errorf("call %d counted %v, a solo run %v", i, got, want)
				}
				if s.SegmentsSkipped != solo.SegmentsSkipped {
					t.Errorf("call %d skipped %d segments, a solo run %d", i, s.SegmentsSkipped, solo.SegmentsSkipped)
				}
			}
			got := counters(shared)
			for name, v := range want {
				if got[name] != calls*v {
					t.Errorf("shared %s = %d, want the sum over %d calls, %d", name, got[name], calls, calls*v)
				}
			}
		})
	}
}

// TestResidencyReturnsAtCallEnd: each out-of-core call's segment cache gives
// its residency back when the call returns, so a registry shared by
// sequential calls reads zero resident bytes between them rather than the
// sum of every finished call's final residency, while cache.peak_bytes still
// records the highest residency any call reached.
func TestResidencyReturnsAtCallEnd(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	ruleSet := queryRules(t, ts.Recovered().Database(ts.Dict()))
	calls := []struct {
		name string
		run  func(OutOfCoreOptions) (*Explain, error)
	}{
		{"CheckStore", func(oo OutOfCoreOptions) (*Explain, error) {
			_, stats, err := CheckStore(ts, ruleSet, oo)
			return stats, err
		}},
		{"MineStoreRules", func(oo OutOfCoreOptions) (*Explain, error) {
			_, stats, err := MineStoreRules(ts, RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
				MaxPremiseLength: 2, MaxConsequentLength: 2}, oo)
			return stats, err
		}},
		{"MineStore", func(oo OutOfCoreOptions) (*Explain, error) {
			_, stats, err := MineStore(ts, PatternOptions{MinInstanceSupport: 3}, oo)
			return stats, err
		}},
	}
	shared := NewMetrics()
	var peak int64
	for round := 0; round < 3; round++ {
		for _, c := range calls {
			stats, err := c.run(OutOfCoreOptions{Obs: shared})
			if err != nil {
				t.Fatal(err)
			}
			callPeak := stats.Obs.Gauge("cache.peak_bytes").Value()
			if callPeak == 0 {
				t.Fatalf("%s kept nothing resident; the test proves nothing", c.name)
			}
			peak = max(peak, callPeak)
			if got := stats.Obs.Gauge("cache.resident_bytes").Value(); got != 0 {
				t.Errorf("round %d %s: the call's registry reads %d resident bytes after it returned", round, c.name, got)
			}
			if got := counterVal(t, shared, "cache.resident_bytes"); got != 0 {
				t.Errorf("round %d %s: the shared registry reads %d resident bytes after the call returned", round, c.name, got)
			}
			if got := counterVal(t, shared, "cache.peak_bytes"); got != peak {
				t.Errorf("round %d %s: shared cache.peak_bytes = %d, want the calls' highest peak %d", round, c.name, got, peak)
			}
		}
	}
}
