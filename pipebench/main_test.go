package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkDoc is the part of the repository's BENCHMARK.json this test
// checks the program against.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at 1/100 scale with tracing on. run exits 0
// only when the oracle and every repetition's output check pass; on top of
// that, every metric BENCHMARK.json documents must print with its unit, the
// result line must carry exactly the per-layer metrics, and the phase spans
// must leave less than 2% of the traced repetition unaccounted for.
func TestSmoke(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, dw := range doc.Workloads {
		t.Run(dw.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", dw.Name, "-seed", "1", "-scale", "0.01", "-seconds", "0",
				"-trace", "1", "-dir", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			printed := make(map[string][2]string) // name -> value, unit
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 && f[0] != "#" {
					printed[f[0]] = [2]string{f[1], f[2]}
				}
			}
			for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
				got, ok := printed[m.Name]
				if !ok || got[1] != m.Unit {
					t.Errorf("metric %s: printed %q, want unit %s", m.Name, got, m.Unit)
				}
			}

			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(doc.PerLayer) {
				t.Errorf("result line %+v", res)
			}

			value := func(name string) float64 {
				v, err := strconv.ParseFloat(printed[name][0], 64)
				if err != nil {
					t.Fatalf("metric %s: %v", name, err)
				}
				return v
			}
			total := value("span.other_s")
			for _, p := range []string{"open", "ingest", "barrier", "close", "reopen", "mine", "check"} {
				total += value("span." + p + "_s")
			}
			if other := value("span.other_s"); other < 0 || other > 0.02*total {
				t.Errorf("phase spans leave %.6fs of %.6fs unaccounted for", other, total)
			}
		})
	}
}

// TestPinnedDigests regenerates every workload's seed-1 inputs at full size:
// a change to the trace simulator or to the miner that alters the op stream
// or a spec fails here before it can silently change what is measured.
func TestPinnedDigests(t *testing.T) {
	for _, w := range workloads {
		if _, err := setup(w, 1, 1); err != nil {
			t.Error(err)
		}
	}
}
