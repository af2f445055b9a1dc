// Package experiments reproduces every table and figure of the paper's
// evaluation (Section II field experiments and Section VI simulations).
// Each FigN function runs the corresponding experiment at the paper's
// parameters (scaled down optionally for quick runs) and returns both
// structured series and a rendered text table with the same rows/series
// the paper plots. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wrsn/internal/charging"
	"wrsn/internal/energy"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// Options controls experiment scale and execution. The zero value is
// replaced by paper defaults per experiment and runs sequentially with
// GOMAXPROCS engine workers.
type Options struct {
	// Seeds is the number of random post distributions to average; the
	// paper uses 20 for large-scale experiments and 5 for the
	// optimal-solution comparison. 0 selects the per-experiment default.
	Seeds int
	// BaseSeed offsets the deterministic seed sequence (default 1).
	BaseSeed int64
	// Quick shrinks workloads (fewer seeds, smaller node counts) to keep
	// CI and `go test -bench` runs fast while preserving every trend;
	// the cmd/wrsn-experiments tool runs full scale by default.
	Quick bool

	// Context cancels a running experiment mid-sweep (nil means
	// context.Background()); the error wraps the context's error.
	Context context.Context
	// Workers sizes the engine's worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Results are bit-identical at any value.
	Workers int
	// Timeout bounds each (point, seed, algorithm) cell (0 = unbounded).
	Timeout time.Duration
	// Progress observes engine cell events (may be nil).
	Progress engine.ProgressFunc
	// Limiter optionally shares a cell-concurrency budget with other
	// experiments running at the same time.
	Limiter engine.Limiter

	// Retry re-runs failed cells with deterministic exponential backoff
	// before declaring them terminal (zero value: one attempt, no retry).
	Retry engine.RetryPolicy
	// Checkpoint journals every completed cell to a crash-safe per-sweep
	// file under Checkpoint.Dir; with Checkpoint.Resume an existing
	// journal is replayed and journaled cells are skipped, byte-
	// identically (nil disables checkpointing).
	Checkpoint *engine.Checkpoint
	// DrainGrace lets in-flight cells finish (and be journaled) for this
	// long after Context is cancelled before they are hard-cancelled.
	DrainGrace time.Duration
	// Chaos injects deterministic, seeded faults into cell execution —
	// a test/CI harness for the retry and checkpoint machinery, never
	// for real measurements (nil disables injection).
	Chaos *engine.ChaosConfig

	// RunSweep, when non-nil, replaces engine.Run for every sweep an
	// experiment executes — the hook cmd/wrsn-experiments' sharded modes
	// use to route sweeps through a shard coordinator, a single shard
	// worker, or a spool merge instead of plain in-process execution.
	// Implementations must preserve engine.Run's contract: same Result,
	// byte-identical values.
	RunSweep func(ctx context.Context, sw *engine.Sweep, cfg engine.RunConfig) (*engine.Result, error)
}

func (o Options) seeds(def, quick int) int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return quick
	}
	return def
}

func (o Options) baseSeed() int64 {
	if o.BaseSeed != 0 {
		return o.BaseSeed
	}
	return 1
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) runConfig() engine.RunConfig {
	return engine.RunConfig{
		Workers:     o.Workers,
		CellTimeout: o.Timeout,
		Progress:    o.Progress,
		Limiter:     o.Limiter,
		Retry:       o.Retry,
		Checkpoint:  o.Checkpoint,
		DrainGrace:  o.DrainGrace,
		Chaos:       o.Chaos,
	}
}

// Series and Figure are the engine's figure types; every experiment
// assembles its output through engine.Run, so the types live there and
// are re-exported here for the package's public API.
type (
	// Series is one plotted line: a label and a Y value per X position.
	Series = engine.Series
	// Figure is the structured output of one experiment: the X axis and
	// one series per algorithm/configuration, in the paper's units.
	Figure = engine.Figure
)

// runSweep executes a sweep through the RunSweep hook, or engine.Run
// directly when no hook is installed.
func (o Options) runSweep(sw *engine.Sweep) (*engine.Result, error) {
	if o.RunSweep != nil {
		return o.RunSweep(o.ctx(), sw, o.runConfig())
	}
	return engine.Run(o.ctx(), sw, o.runConfig())
}

// runFigure executes a sweep spec under the experiment's options and
// returns its assembled figure.
func runFigure(opts Options, sw *engine.Sweep) (*Figure, error) {
	res, err := opts.runSweep(sw)
	if err != nil {
		return nil, err
	}
	return res.Figure, nil
}

// njToMicroJ converts the model's nanojoule costs to the paper's
// microjoule axes.
func njToMicroJ(nj float64) float64 { return nj / 1000 }

// newSeededRNG returns a deterministic RNG for one experiment seed.
func newSeededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// maxInstanceAttempts bounds connected-instance regeneration.
const maxInstanceAttempts = 1000

// randomConnectedProblem draws random post sets in the field until one is
// connected to the base station at maximum transmission range, exactly as
// a simulation whose random topology must admit any routing at all.
func randomConnectedProblem(rng *rand.Rand, field geom.Field, n, m int, em energy.Model) (*model.Problem, error) {
	for attempt := 0; attempt < maxInstanceAttempts; attempt++ {
		p := &model.Problem{
			Posts:    field.RandomPoints(rng, n),
			BS:       field.Corner(),
			Nodes:    m,
			Energy:   em,
			Charging: charging.Default(),
		}
		if err := p.Validate(); err == nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("experiments: no connected %d-post instance in %.0fx%.0fm after %d attempts",
		n, field.Width, field.Height, maxInstanceAttempts)
}
