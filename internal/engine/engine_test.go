package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// testProblem draws random connected instances like the experiment
// generators do, small enough that every registered solver finishes in
// milliseconds.
func testProblem(rng *rand.Rand, posts, nodes int) (*model.Problem, error) {
	field := geom.Square(120)
	for attempt := 0; attempt < 1000; attempt++ {
		p := &model.Problem{
			Posts:    field.RandomPoints(rng, posts),
			BS:       field.Corner(),
			Nodes:    nodes,
			Energy:   energy.Default(),
			Charging: charging.Default(),
		}
		if err := p.Validate(); err == nil {
			return p, nil
		}
	}
	return nil, errors.New("no connected test instance")
}

func testSweep() *Sweep {
	sw := &Sweep{
		ID:       "test-sweep",
		Title:    "engine test sweep",
		XLabel:   "nodes",
		YLabel:   "cost",
		Seeds:    3,
		BaseSeed: 7,
	}
	for _, nodes := range []int{12, 16} {
		nodes := nodes
		sw.Points = append(sw.Points, Point{
			X:     float64(nodes),
			Label: fmt.Sprintf("%d nodes", nodes),
			Gen: ProblemGen(func(rng *rand.Rand) (*model.Problem, error) {
				return testProblem(rng, 5, nodes)
			}),
		})
	}
	for _, name := range []string{"rfh", "idb"} {
		solve := MustSolver(name)
		label := name
		sw.Algorithms = append(sw.Algorithms, Algorithm{
			Label:   label,
			Outputs: []SeriesSpec{{Label: label, CI: true}},
			Run: func(ctx context.Context, inst *Instance) (CellResult, error) {
				res, err := solve(ctx, inst.Problem())
				if err != nil {
					return CellResult{}, err
				}
				return CellResult{Values: []float64{res.Cost}, Evaluations: res.Evaluations}, nil
			},
		})
	}
	return sw
}

// TestRunDeterminism is the golden determinism check: the same sweep at
// workers 1, 4 and GOMAXPROCS must produce byte-identical figure JSON
// and identical raw cell values.
func TestRunDeterminism(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var goldenJSON []byte
	var goldenRaw [][][][]float64
	for _, w := range workerCounts {
		res, err := Run(context.Background(), testSweep(), RunConfig{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		buf, err := json.Marshal(res.Figure)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if goldenJSON == nil {
			goldenJSON = buf
			goldenRaw = res.Raw
			continue
		}
		if string(buf) != string(goldenJSON) {
			t.Errorf("workers=%d produced different figure JSON:\n%s\nvs workers=1:\n%s", w, buf, goldenJSON)
		}
		if !reflect.DeepEqual(res.Raw, goldenRaw) {
			t.Errorf("workers=%d produced different raw values", w)
		}
	}
}

// TestRunFigureShape checks labels, CI and series ordering follow the
// spec declaration order.
func TestRunFigureShape(t *testing.T) {
	res, err := Run(context.Background(), testSweep(), RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figure
	if fig.ID != "test-sweep" || len(fig.X) != 2 || fig.X[0] != 12 {
		t.Errorf("unexpected figure header: %+v", fig)
	}
	if len(fig.Series) != 2 || fig.Series[0].Label != "rfh" || fig.Series[1].Label != "idb" {
		t.Fatalf("series not in declaration order: %+v", fig.Series)
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 || len(s.CI95) != 2 {
			t.Errorf("series %q: wrong lengths: %+v", s.Label, s)
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %q: non-positive cost %v", s.Label, y)
			}
		}
	}
	if res.Timing.Cells != 2*3*2 {
		t.Errorf("timing cells = %d, want 12", res.Timing.Cells)
	}
	if res.Evaluations <= 0 {
		t.Errorf("evaluations not aggregated: %d", res.Evaluations)
	}
}

// TestRunVector checks the Fig6-style transposed assembly: one series
// per point, elementwise-averaged over seeds, on an explicit X axis.
func TestRunVector(t *testing.T) {
	sw := testSweep()
	sw.X = []float64{1, 2, 3}
	sw.Algorithms = []Algorithm{{
		Label:   "vec",
		Outputs: []SeriesSpec{{Vector: true}},
		Run: func(ctx context.Context, inst *Instance) (CellResult, error) {
			base := inst.X * float64(inst.Seed+1)
			return CellResult{Values: []float64{base, base + 1, base + 2}}, nil
		},
	}}
	res, err := Run(context.Background(), sw, RunConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figure
	if len(fig.Series) != len(sw.Points) {
		t.Fatalf("want one series per point, got %d", len(fig.Series))
	}
	if fig.Series[0].Label != "12 nodes" || fig.Series[1].Label != "16 nodes" {
		t.Errorf("vector series labels wrong: %+v", fig.Series)
	}
	// mean over seeds 0..2 of 12*(s+1) = 12*2 = 24 at the first X.
	if got := fig.Series[0].Y[0]; got != 24 {
		t.Errorf("vector mean = %v, want 24", got)
	}
}

// TestRunCancellation: a cancelled context aborts the sweep and the
// reported error unwraps to context.Canceled.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, testSweep(), RunConfig{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunCellTimeout: a cell exceeding CellTimeout fails the sweep with
// context.DeadlineExceeded, within roughly one timeout, and the error
// names the deadline that was hit (context.WithTimeoutCause).
func TestRunCellTimeout(t *testing.T) {
	sw := testSweep()
	var causes []string
	var mu sync.Mutex
	sw.Algorithms = []Algorithm{{
		Label:   "stuck",
		Outputs: []SeriesSpec{{Label: "stuck"}},
		Run: func(ctx context.Context, inst *Instance) (CellResult, error) {
			<-ctx.Done()
			mu.Lock()
			causes = append(causes, context.Cause(ctx).Error())
			mu.Unlock()
			return CellResult{}, ctx.Err()
		},
	}}
	start := time.Now()
	_, err := Run(context.Background(), sw, RunConfig{Workers: 2, CellTimeout: 30 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	const wantCause = "cell deadline (30ms) exceeded"
	if !strings.Contains(err.Error(), wantCause) {
		t.Errorf("sweep error %q does not name the cell deadline", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CellError, got %T: %v", err, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(causes) == 0 {
		t.Fatal("no cell observed a cancellation cause")
	}
	for _, c := range causes {
		if !strings.Contains(c, wantCause) {
			t.Errorf("context.Cause inside cell = %q, want it to name the 30ms deadline", c)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, want about one cell timeout", elapsed)
	}
}

// TestRunPerPointSeeds: Point.Seeds overrides the sweep default.
func TestRunPerPointSeeds(t *testing.T) {
	sw := testSweep()
	sw.Points[1].Seeds = 1
	var mu sync.Mutex
	seen := map[string]int{}
	sw.Algorithms = sw.Algorithms[:1]
	inner := sw.Algorithms[0].Run
	sw.Algorithms[0].Run = func(ctx context.Context, inst *Instance) (CellResult, error) {
		mu.Lock()
		seen[fmt.Sprintf("%d/%d", inst.Point, inst.Seed)]++
		mu.Unlock()
		return inner(ctx, inst)
	}
	if _, err := Run(context.Background(), sw, RunConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3+1 {
		t.Errorf("cells run: %v, want 3 seeds for point 0 and 1 for point 1", seen)
	}
}

// TestRunSeedScheme: instance seeds follow BaseSeed + SeedStride*point
// + seed exactly.
func TestRunSeedScheme(t *testing.T) {
	sw := testSweep()
	sw.SeedStride = 100
	var mu sync.Mutex
	got := map[int64]bool{}
	sw.Algorithms = []Algorithm{{
		Label:   "probe",
		Outputs: []SeriesSpec{{Label: "probe"}},
		Run: func(ctx context.Context, inst *Instance) (CellResult, error) {
			mu.Lock()
			got[inst.InstanceSeed] = true
			mu.Unlock()
			return CellResult{Values: []float64{0}}, nil
		},
	}}
	if _, err := Run(context.Background(), sw, RunConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < 2; pi++ {
		for s := 0; s < 3; s++ {
			want := int64(7 + 100*pi + s)
			if !got[want] {
				t.Errorf("missing instance seed %d (have %v)", want, got)
			}
		}
	}
}

// TestRunValidation rejects malformed sweeps up front.
func TestRunValidation(t *testing.T) {
	bad := []*Sweep{
		{}, // no ID
		{ID: "x"},
		{ID: "x", Points: []Point{{Gen: ProblemGen(func(*rand.Rand) (*model.Problem, error) { return nil, nil })}}},
	}
	for i, sw := range bad {
		if _, err := Run(context.Background(), sw, RunConfig{}); err == nil {
			t.Errorf("sweep %d accepted", i)
		}
	}
	// Vector output must be alone and needs an explicit X.
	sw := testSweep()
	sw.Algorithms[0].Outputs = []SeriesSpec{{Vector: true}, {Label: "extra"}}
	if _, err := Run(context.Background(), sw, RunConfig{}); err == nil {
		t.Error("vector output with sibling accepted")
	}
	sw = testSweep()
	sw.Algorithms[0].Outputs = []SeriesSpec{{Vector: true}}
	if _, err := Run(context.Background(), sw, RunConfig{}); err == nil {
		t.Error("vector output without X accepted")
	}
}

// TestRegistry covers lookup, sorted listing and duplicate rejection.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"rfh", "rfh-iterative", "idb", "local-search", "idb-local-search", "anneal", "auto", "optimal"} {
		if _, ok := Solver(name); !ok {
			t.Errorf("solver %q not registered (have %v)", name, Solvers())
		}
	}
	if _, ok := Solver("definitely-not-registered"); ok {
		t.Error("unknown solver resolved")
	}
	names := Solvers()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Solvers() not sorted: %v", names)
		}
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate Register", func() { Register("rfh", []string{model.KindDeployment}, MustSolver("rfh")) })
	mustPanic("empty Register", func() { Register("", nil, nil) })
	mustPanic("unknown MustSolver", func() { MustSolver("definitely-not-registered") })
}

// TestSharedLimiter: two sweeps sharing one single-slot limiter never
// run two cells at once.
func TestSharedLimiter(t *testing.T) {
	limiter := NewLimiter(1)
	var mu sync.Mutex
	active, maxActive := 0, 0
	probe := func(ctx context.Context, inst *Instance) (CellResult, error) {
		mu.Lock()
		active++
		if active > maxActive {
			maxActive = active
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return CellResult{Values: []float64{1}}, nil
	}
	newSweep := func(id string) *Sweep {
		sw := testSweep()
		sw.ID = id
		sw.Algorithms = []Algorithm{{Label: "probe", Outputs: []SeriesSpec{{Label: "probe"}}, Run: probe}}
		return sw
	}
	var wg sync.WaitGroup
	for _, id := range []string{"a", "b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := Run(context.Background(), newSweep(id), RunConfig{Workers: 4, Limiter: limiter}); err != nil {
				t.Errorf("sweep %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if maxActive != 1 {
		t.Errorf("max concurrent cells = %d, want 1 under a single-slot limiter", maxActive)
	}
}

// TestProgressEvents: every cell yields a start and a finish event, and
// Done reaches Total.
func TestProgressEvents(t *testing.T) {
	var events []Event
	_, err := Run(context.Background(), testSweep(), RunConfig{
		Workers:  2,
		Progress: func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var started, finished, maxDone int
	for _, ev := range events {
		switch ev.Kind {
		case CellStarted:
			started++
		case CellFinished:
			finished++
			if ev.Done > maxDone {
				maxDone = ev.Done
			}
			if ev.Err != nil {
				t.Errorf("cell error: %v", ev.Err)
			}
		}
	}
	const total = 2 * 3 * 2
	if started != total || finished != total || maxDone != total {
		t.Errorf("events started=%d finished=%d maxDone=%d, want %d each", started, finished, maxDone, total)
	}
}
