// Command perfbench is the repository's benchmark. One invocation runs one
// named workload from a seed, checks every output it produced, and prints
// its metrics by name and unit, ending with one JSON line:
//
//	go run . --workload exact-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the workload runs untraced and the JSON carries the
// end-to-end metrics. With --trace 1 it runs twice from fresh set-ups,
// untraced and then traced, probes the layers below it on its own
// instances, and the JSON carries the per-layer metrics and the tracing
// overhead. README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// phase is what one timed run of a workload produced.
type phase struct {
	// attempted counts units of work started; failed counts those that
	// failed plus every output check that did not hold.
	attempted, failed int
	// work is the units completed (cells, answered requests, simulated
	// rounds) in elapsed, the timed wall time.
	work    float64
	elapsed time.Duration
	// lat holds each job's latency in ms (a cell, a request measured from
	// its due time, a simulation run).
	lat []float64
	// jobs is how many jobs the timings cover, failed ones included;
	// sloOK counts those that succeeded within the latency limit.
	jobs, sloOK int
	// costUJ is the mean plan cost in µJ over a set of jobs that does not
	// depend on how fast the run went.
	costUJ float64
	// digest hashes the result bits of that same fixed set.
	digest uint64
	// checks lists every output check that failed.
	checks []string
	// layer holds per-layer numbers the phase measured itself.
	layer map[string]float64
}

func (ph *phase) checkf(format string, args ...interface{}) {
	ph.failed++
	if len(ph.checks) < 20 {
		ph.checks = append(ph.checks, fmt.Sprintf(format, args...))
	}
}

// workload is one set-up instance of a named workload.
type workload interface {
	// run measures a run sized by d (full passes over a fixed job set, or
	// d's share of the request stream), recording spans into tr when it is
	// non-nil.
	run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	// probe times the layers below the workload on its own instances.
	probe(tr *tracer) (map[string]float64, error)
	// inputDigest hashes every input the seed produced.
	inputDigest() uint64
	close() error
}

// size selects full-scale inputs or the tiny ones the tests run.
type size int

const (
	full size = iota
	tiny
)

type workloadDef struct {
	name  string
	setup func(seed int64, sz size, d time.Duration) (workload, error)
}

var workloads = []workloadDef{
	{"exact-small", func(seed int64, sz size, _ time.Duration) (workload, error) {
		return newBatch(exactSmall(sz), seed)
	}},
	{"large-heuristic", func(seed int64, sz size, _ time.Duration) (workload, error) {
		return newBatch(largeHeuristic(sz), seed)
	}},
	{"plan-service", func(seed int64, sz size, d time.Duration) (workload, error) {
		return newService(serviceSpecFor(sz), seed, d)
	}},
	{"lifetime-sim", func(seed int64, sz size, _ time.Duration) (workload, error) {
		return newLifetime(lifetimeSpecFor(sz), seed)
	}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	size     size
	setups   int
}

// stderrLog receives diagnostics that do not fail the run.
var stderrLog io.Writer = os.Stderr

// setups is how many times a run sets its workload up; setup_s is their
// median.
const setups = 5

// passes is how many full passes over its fixed job set a batch or
// simulation run of d makes when one pass stands for pass of it: d/pass
// rounded, and at least two, so that every run checks a repeat against the
// first pass. It depends on the flags alone, never on how fast the code
// runs, so two commits time every job the same number of times.
func passes(d, pass time.Duration) int {
	return max(2, int(math.Round(float64(d)/float64(pass))))
}

// errChecks marks a run whose outputs failed their checks; its result is
// still printed, with correct=false.
var errChecks = errors.New("output checks failed")

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long one timed run measures")
	fs.IntVar(&trace, "trace", 0, "1 = print per-layer metrics from a traced run")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory the traced run writes its span log to (empty = keep in memory only)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return cfg, fmt.Errorf("unknown --workload %q (have %v)", cfg.workload, names)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(cfg.seconds > 0) {
		return cfg, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	cfg.trace = trace == 1
	cfg.setups = setups
	return cfg, nil
}

// run executes one invocation, printing the human-readable report to out
// and returning the result line. A non-nil result with errChecks means the
// run finished but its outputs were wrong.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(ctx, cfg, def, d, out)
	}

	var w workload
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if w, err = def.setup(cfg.seed, cfg.size, d); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()
	ph, err := w.run(ctx, d, nil)
	if err != nil {
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	tail, err := summarize(ph.lat, 0.90)
	if err != nil {
		return nil, fmt.Errorf("job latency: %w", err)
	}
	m := map[string]metric{
		"setup_s":      {median(setupS), "s"},
		"work_per_s":   {ph.work / ph.elapsed.Seconds(), "1/s"},
		"p50_ms":       {tail.P50, "ms"},
		"p90_ms":       {tail.Tail, "ms"},
		"slo_frac":     {float64(ph.sloOK) / float64(max(ph.jobs, 1)), "fraction"},
		"plan_cost_uJ": {ph.costUJ, "uJ"},
		"max_rss_mb":   {maxRSSMB(), "MB"},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d jobs attempted, %d failed, %d latency samples\n",
		cfg.workload, cfg.seed, ph.attempted, ph.failed, tail.N)
	return finish(out, w.inputDigest(), ph, m)
}

// runTraced is the --trace 1 run: an untraced and a traced run from fresh
// set-ups of the same seed, then the layer probes.
func runTraced(ctx context.Context, cfg config, def workloadDef, d time.Duration, out io.Writer) (*result, error) {
	measure := func(tr *tracer) (workload, *phase, error) {
		w, err := def.setup(cfg.seed, cfg.size, d)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		ph, err := w.run(ctx, d, tr)
		if err != nil {
			w.close()
			return nil, nil, err
		}
		return w, ph, nil
	}
	w0, ph0, err := measure(nil)
	if err != nil {
		return nil, err
	}
	if err := w0.close(); err != nil {
		return nil, err
	}
	tr := newTracer()
	w1, ph1, err := measure(tr)
	if err != nil {
		return nil, err
	}
	defer w1.close()
	probed, err := w1.probe(tr)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := w1.close(); err != nil {
		return nil, err
	}
	if ph0.digest != ph1.digest {
		ph1.checkf("traced result digest %016x differs from untraced %016x", ph1.digest, ph0.digest)
	}

	vals := layerValues(tr, ph0, ph1, probed)
	vals["trace.spans"] = float64(tr.len())
	rate0, rate1 := ph0.work/ph0.elapsed.Seconds(), ph1.work/ph1.elapsed.Seconds()
	vals["trace.rate_overhead_frac"] = (rate0 - rate1) / rate0
	if p0, p1 := median(ph0.lat), median(ph1.lat); p0 > 0 {
		vals["trace.p50_overhead_frac"] = (p1 - p0) / p0
	}
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{vals[lm.name], lm.unit}
	}
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "span log: %s (%d spans)\n", path, tr.len())
	}
	merged := *ph1
	merged.attempted += ph0.attempted
	merged.failed += ph0.failed
	merged.checks = append(append([]string(nil), ph0.checks...), ph1.checks...)
	return finish(out, w1.inputDigest(), &merged, m)
}

// finish prints the report lines and builds the result.
func finish(out io.Writer, input uint64, ph *phase, m map[string]metric) (*result, error) {
	fmt.Fprintf(out, "input_digest %016x\nresult_digest %016x\n", input, ph.digest)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	// Numbers the phase measured below the end-to-end level (the service's
	// hit/miss split and generator lag, simulator counts) are worth reading
	// in an untraced run too.
	layerNames := make([]string, 0, len(ph.layer))
	for name := range ph.layer {
		if _, printed := m[name]; !printed {
			layerNames = append(layerNames, name)
		}
	}
	sort.Strings(layerNames)
	for _, name := range layerNames {
		fmt.Fprintf(out, "  %-30s %14.6g\n", name, ph.layer[name])
	}
	for _, c := range ph.checks {
		fmt.Fprintln(out, "CHECK FAILED:", c)
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %g", name, v.Value)
		}
	}
	res := &result{Correct: len(ph.checks) == 0, Attempted: max(ph.attempted, 1), Failed: ph.failed, Metrics: m}
	if !res.Correct {
		return res, errChecks
	}
	return res, nil
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest accumulates result bits into a 64-bit FNV-1a hash.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) ints(vs []int) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
