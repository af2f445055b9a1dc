package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySeconds is how long each tiny workload measures: enough jobs for
// the p90 every run reports.
var tinySeconds = map[string]float64{
	"exact-small":     0.2,
	"large-heuristic": 0.2,
	"plan-service":    0.6,
	"lifetime-sim":    0.5,
}

func tinyConfig(t *testing.T, workload string, seed int64, trace bool) config {
	t.Helper()
	secs, ok := tinySeconds[workload]
	if !ok {
		t.Fatalf("no tiny duration for %s", workload)
	}
	return config{workload: workload, seed: seed, seconds: secs, trace: trace, size: tiny, setups: 1}
}

// runTiny runs one tiny invocation and returns its result and report.
func runTiny(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	stderrLog = io.Discard
	var out bytes.Buffer
	res, err := run(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v\n%s", cfg.workload, cfg.seed, cfg.trace, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", cfg.workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res, out.String()
}

// reportLine returns the value of a "name value" line of a report.
func reportLine(t *testing.T, report, name string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1]
		}
	}
	t.Fatalf("report has no %s line:\n%s", name, report)
	return ""
}

var endToEnd = []string{"setup_s", "work_per_s", "p50_ms", "p90_ms", "slo_frac", "plan_cost_uJ", "max_rss_mb"}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, _ := runTiny(t, tinyConfig(t, w.name, 1, false))
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("got %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, name := range endToEnd {
				m, ok := res.Metrics[name]
				if !ok || !(m.Value > 0) || m.Unit == "" {
					t.Errorf("metric %s = %+v (present %v), want a positive value with a unit", name, m, ok)
				}
			}
		})
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			_, plain := runTiny(t, tinyConfig(t, w.name, 3, false))
			res, traced := runTiny(t, tinyConfig(t, w.name, 3, true))
			for _, d := range []string{"input_digest", "result_digest"} {
				if a, b := reportLine(t, plain, d), reportLine(t, traced, d); a != b {
					t.Errorf("%s: untraced %s, traced %s", d, a, b)
				}
			}
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(layerMetrics))
			}
			for _, lm := range layerMetrics {
				if m, ok := res.Metrics[lm.name]; !ok || m.Unit != lm.unit {
					t.Errorf("per-layer metric %s missing or mis-united: %+v", lm.name, m)
				}
			}
			if res.Metrics["trace.spans"].Value < 1 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) uint64 {
				wl, err := w.setup(seed, tiny, 200*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				defer wl.close()
				return wl.inputDigest()
			}
			a, b, c := digest(5), digest(5), digest(6)
			if a != b {
				t.Errorf("seed 5 gave input digests %016x and %016x", a, b)
			}
			if a == c {
				t.Errorf("seeds 5 and 6 gave the same input digest %016x", a)
			}
		})
	}
}

func TestLayerMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range endToEnd {
		seen[name] = true
	}
	for _, lm := range layerMetrics {
		if seen[lm.name] {
			t.Errorf("metric %s listed twice", lm.name)
		}
		seen[lm.name] = true
	}
}

// TestPassesFollowFlags pins how many full passes a run makes: the flags
// alone decide it, and every run repeats its first pass at least once.
func TestPassesFollowFlags(t *testing.T) {
	for _, c := range []struct {
		d, pass time.Duration
		want    int
	}{
		{20 * time.Second, 2500 * time.Millisecond, 8},
		{20 * time.Second, 10 * time.Second, 2},
		{20 * time.Second, 4 * time.Second, 5},
		{200 * time.Millisecond, 4 * time.Second, 2},
	} {
		if got := passes(c.d, c.pass); got != c.want {
			t.Errorf("passes(%v, %v) = %d, want %d", c.d, c.pass, got, c.want)
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "plan-service", "--seed", "9", "--seconds", "2", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "plan-service" || cfg.seed != 9 || cfg.seconds != 2 || !cfg.trace {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "exact-small", "--trace", "2"},
		{"--workload", "exact-small", "--seconds", "0"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v: want an error", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with what the benchmark prints: the same workloads, and the same metric
// names and units in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	res, _ := runTiny(t, tinyConfig(t, "exact-small", 1, false))
	if len(spec.EndToEnd) != len(res.Metrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, a run prints %d", len(spec.EndToEnd), len(res.Metrics))
	}
	for _, e := range spec.EndToEnd {
		if m, ok := res.Metrics[e.Name]; !ok || m.Unit != e.Unit {
			t.Errorf("end-to-end %s (%s): run printed %+v", e.Name, e.Unit, m)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, e := range spec.PerLayer {
		if lm := layerMetrics[i]; e.Name != lm.name || e.Unit != lm.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, e.Name, e.Unit, lm.name, lm.unit)
		}
	}
}
