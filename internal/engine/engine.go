// Package engine is the unified experiment engine behind every figure
// of the paper reproduction and its extensions: a registry of named,
// context-aware solvers and a declarative, fault-tolerant sweep runner.
//
// A Sweep describes a (point × seed × algorithm) grid — the shape shared
// by all of the paper's Section VI evaluations and the extension
// studies: an x-axis of problem configurations, a number of random
// instances per configuration, and a set of labelled algorithms run on
// every instance. Run executes the grid on a worker pool and assembles
// the resulting Figure.
//
// # Determinism
//
// Results are bit-identical at any worker count. Each (point, seed)
// instance is generated from its own rand.Rand seeded with
//
//	BaseSeed + SeedStride*point + seed
//
// (SeedStride defaults to 0: every x-axis position sees the same
// instance sequence, the paper's methodology for monotone sweep curves),
// each cell's computation depends only on its instance, and aggregation
// runs in declaration order after all cells finish. Scheduling can
// change only wall time, never values.
//
// # Fault tolerance
//
// The runner survives its own workload. Every cell runs under a Guard,
// the guard wrsnd solves under too. A panicking solver is recovered on
// the worker and becomes a per-cell CellError instead of crashing the
// pool; failed and timed-out cells are retried under RunConfig.Retry
// with deterministic exponential backoff, except that a structurally
// unsupported instance gets one attempt; cells that stay failed after
// their attempt budget surface in Result.Failed (and as Run's returned
// error) while every other cell still completes. With
// RunConfig.Checkpoint, each completed cell is journaled to an
// append-only, CRC-framed, fsynced JSONL file as it finishes, and a
// resumed run replays the journal — skipping completed cells — to a
// final figure byte-identical to an uninterrupted run's. ChaosConfig
// injects deterministic panics, errors and latency to test all of the
// above under fire.
//
// # Cancellation and observability
//
// The context passed to Run flows into every cell; cancelling it aborts
// in-flight solvers at their next cancellation point (or, with
// RunConfig.DrainGrace, lets them drain for a grace period first so
// their results still reach the checkpoint journal). RunConfig can
// additionally bound each cell with a timeout, observe cell lifecycle
// events through a ProgressFunc, and share a Limiter between
// concurrently running sweeps so their combined parallelism stays
// bounded.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wrsn/internal/model"
	"wrsn/internal/stats"
)

// Generator builds one problem instance — any model.Instance kind, not
// just the deployment problem — from a deterministically seeded RNG. It
// must consume randomness only from rng so that instances depend solely
// on the cell's seed.
type Generator func(rng *rand.Rand) (model.Instance, error)

// ProblemGen adapts a deployment-problem generator to the
// instance-typed Generator shape: the closure shape every paper figure
// uses (Go's function types are invariant, so a func returning
// *model.Problem is not itself a Generator even though *model.Problem
// implements model.Instance).
func ProblemGen(fn func(rng *rand.Rand) (*model.Problem, error)) Generator {
	return func(rng *rand.Rand) (model.Instance, error) {
		return fn(rng)
	}
}

// Point is one x-axis position of a sweep: the plotted X value and the
// generator producing its problem instances.
type Point struct {
	X float64
	// Label names the point in progress events, and becomes the series
	// label for Vector outputs (e.g. Fig. 6's "400 nodes").
	Label string
	// Seeds overrides Sweep.Seeds for this point when > 0 (e.g. a
	// deterministic grid layout needs exactly one).
	Seeds int
	Gen   Generator
}

// SeriesSpec declares one output series of an algorithm.
type SeriesSpec struct {
	// Label names the series (ignored for Vector outputs, which take
	// their per-point labels from Point.Label).
	Label string
	// Unit annotates table headers ("" = the figure default, "-" = none).
	Unit string
	// CI attaches 95% confidence half-widths to the series.
	CI bool
	// Vector marks an output that spans the whole X axis (one value per
	// X position per cell, e.g. per-iteration convergence costs). A
	// Vector output must be its algorithm's only output, and the Sweep
	// must set X explicitly; it yields one series per point, averaged
	// elementwise over seeds.
	Vector bool
}

// Instance is one generated problem handed to an algorithm, along with
// the cell coordinates an algorithm may need for derived seeding (e.g.
// simulator seeds).
type Instance struct {
	// Inst is the generated problem instance of whatever kind the
	// point's Generator produces.
	Inst model.Instance
	// Point and Seed are the cell's grid coordinates.
	Point, Seed int
	// X is the point's plotted value.
	X float64
	// BaseSeed is the sweep's base seed; InstanceSeed is the RNG seed
	// this instance was generated from (BaseSeed + SeedStride*Point +
	// Seed).
	BaseSeed, InstanceSeed int64
}

// Problem returns the instance as the deployment problem, or nil when
// the sweep generates another problem family — the accessor
// deployment-specific algorithm cells (simulators, repair studies)
// unwrap their instances through.
func (in *Instance) Problem() *model.Problem {
	p, _ := in.Inst.(*model.Problem)
	return p
}

// CellResult is what an algorithm returns for one cell.
type CellResult struct {
	// Values holds one value per Output (or one per X position for a
	// Vector output).
	Values []float64
	// Evaluations optionally reports the solver's inner-evaluation
	// count for the timing summary.
	Evaluations int64
}

// Algorithm is one labelled entry of a sweep: a computation run on
// every (point, seed) instance, producing one value per declared output.
// A NaN value marks "no observation for this cell" and is skipped by
// aggregation (e.g. travel-per-visit when no visit completed).
//
// Run must be pure with respect to its instance: the engine may invoke
// it again for the same cell (retries after a fault, reruns after a
// crash-resume of an incomplete journal), and every invocation must
// produce the same values.
type Algorithm struct {
	Label   string
	Outputs []SeriesSpec
	Run     func(ctx context.Context, inst *Instance) (CellResult, error)
}

// Sweep declaratively describes one experiment grid.
type Sweep struct {
	// Figure metadata.
	ID, Title, XLabel, YLabel string
	// X optionally overrides the figure's x-axis (required when any
	// output is a Vector; defaults to the points' X values otherwise).
	X []float64

	Points []Point
	// Seeds is the number of random instances per point (>= 1).
	Seeds int
	// BaseSeed anchors the deterministic seed scheme.
	BaseSeed int64
	// SeedStride decorrelates instances across points: instance seed =
	// BaseSeed + SeedStride*point + seed. 0 shares the instance
	// sequence across all points (the paper's methodology).
	SeedStride int64

	Algorithms []Algorithm
}

// Limiter bounds cell concurrency across sweeps: sweeps running in
// parallel share one Limiter so their combined active cells never
// exceed its size. The exported Acquire/TryAcquire/Release hooks let
// other schedulers (the wrsnd planning daemon) share the same budget
// with sweep cells.
type Limiter chan struct{}

// NewLimiter returns a Limiter admitting n concurrent cells.
func NewLimiter(n int) Limiter {
	if n < 1 {
		n = 1
	}
	return make(Limiter, n)
}

// Acquire blocks until a slot is free or ctx is cancelled, reporting
// whether a slot was taken. A false return means ctx was cancelled and
// the caller holds nothing — it must not Release. This is the only
// blocking path into the limiter, so a cancelled waiter can never leak a
// goroutine behind a saturated pool.
func (l Limiter) Acquire(ctx context.Context) bool {
	select {
	case l <- struct{}{}:
		return true
	default:
	}
	select {
	case l <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// TryAcquire takes a slot without blocking, reporting whether it got one.
func (l Limiter) TryAcquire() bool {
	select {
	case l <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a previously acquired slot.
func (l Limiter) Release() { <-l }

// InFlight returns the number of currently held slots.
func (l Limiter) InFlight() int { return len(l) }

// Cap returns the limiter's slot capacity.
func (l Limiter) Cap() int { return cap(l) }

// RunConfig tunes sweep execution. The zero value runs with GOMAXPROCS
// workers, no per-cell timeout, no retries, no checkpointing and no
// observers.
type RunConfig struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS(0), 1 is
	// fully sequential. Results are identical at any value.
	Workers int
	// CellTimeout bounds each cell's algorithm run (0 = unbounded). A
	// cell exceeding it fails with a cause wrapping
	// context.DeadlineExceeded ("cell deadline (30s) exceeded") and is
	// retried under Retry like any other failure.
	CellTimeout time.Duration
	// Retry re-runs failed cells with deterministic exponential backoff
	// before declaring them terminally failed. Zero value: one attempt.
	Retry RetryPolicy
	// Checkpoint journals each completed cell to an append-only file
	// under Checkpoint.Dir; with Checkpoint.Resume, already-journaled
	// cells are restored instead of re-run (nil = no journaling).
	Checkpoint *Checkpoint
	// DrainGrace is how long in-flight cells may keep running after the
	// parent context is cancelled, so their results still land in the
	// journal before the sweep returns (0 = abort in-flight cells
	// immediately, the historical behaviour).
	DrainGrace time.Duration
	// Shard restricts execution to the cell-index range [Shard.Start,
	// Shard.End) of the canonical point-major grid — the worker half of
	// the sharded sweep protocol (internal/shard). Cells outside the
	// range are neither run nor reported, and the checkpoint journal
	// header carries Shard.Lease so the resulting segment is
	// self-describing. Nil runs the whole grid.
	Shard *ShardSpec
	// Chaos deterministically injects panics, errors and latency into
	// cell attempts. Testing and benchmarking only.
	Chaos *ChaosConfig
	// Progress observes cell lifecycle events (may be nil).
	Progress ProgressFunc
	// Limiter optionally shares a concurrency budget with other sweeps
	// running at the same time (nil = this sweep's workers only).
	Limiter Limiter
}

// Result is a finished sweep: the assembled figure, the raw per-cell
// values for custom post-processing, and the performance summary.
//
// Run returns a non-nil Result alongside a non-nil error when the sweep
// ran but did not fully succeed: terminally failed cells are listed in
// Failed (their raw values stay nil and their figure contributions are
// skipped), and an interrupted sweep is marked Partial.
type Result struct {
	Figure *Figure
	// Raw is indexed [algorithm][point][seed][output] (for Vector
	// outputs the last index spans the X axis). Rows of failed or
	// not-run cells are nil.
	Raw [][][][]float64
	// Durations is each cell's algorithm wall time, indexed
	// [algorithm][point][seed]. Instance generation is excluded; cells
	// restored from a checkpoint report their journaled duration.
	Durations [][][]time.Duration
	// Evaluations is the summed solver-evaluation count.
	Evaluations int64
	Timing      Timing

	// Failed lists terminally failed cells (attempt budget exhausted) in
	// deterministic grid order. Failed[0] is also Run's returned error.
	Failed []*CellError
	// Partial marks a sweep interrupted by context cancellation: some
	// cells never ran. Completed cells are still present in Raw and in
	// the checkpoint journal, if one was configured.
	Partial bool
	// Resumed counts cells restored from the checkpoint journal instead
	// of being re-run.
	Resumed int
	// Retries counts attempts beyond each cell's first, across the
	// whole sweep.
	Retries int
}

// cell is one unit of work.
type cell struct{ point, seed, algo int }

// instSlot lazily generates one (point, seed) instance exactly once,
// whichever cell touches it first.
type instSlot struct {
	once sync.Once
	inst *Instance
	err  error
}

type runner struct {
	sw  *Sweep
	cfg RunConfig

	insts     [][]*instSlot
	raw       [][][][]float64
	durations [][][]time.Duration
	evals     [][][]int64
	errs      []error // per cell index: terminal failure or cancellation
	skip      []bool  // per cell index: restored from the journal
	excluded  []bool  // per cell index: outside cfg.Shard's range

	journal *journal
	guard   Guard
	retried atomic.Int64

	cells []cell
	done  atomic.Int64

	mu sync.Mutex // serialises progress callbacks
}

// pointSeeds returns the effective seed count of point pi.
func (sw *Sweep) pointSeeds(pi int) int {
	if s := sw.Points[pi].Seeds; s > 0 {
		return s
	}
	return sw.Seeds
}

// validate rejects malformed sweeps before any work starts.
func (sw *Sweep) validate() error {
	if sw.ID == "" {
		return errors.New("engine: sweep needs an ID")
	}
	if len(sw.Points) == 0 {
		return fmt.Errorf("engine: sweep %s has no points", sw.ID)
	}
	if len(sw.Algorithms) == 0 {
		return fmt.Errorf("engine: sweep %s has no algorithms", sw.ID)
	}
	for pi, pt := range sw.Points {
		if pt.Gen == nil {
			return fmt.Errorf("engine: sweep %s point %d has no generator", sw.ID, pi)
		}
		if sw.pointSeeds(pi) < 1 {
			return fmt.Errorf("engine: sweep %s point %d has no seeds", sw.ID, pi)
		}
	}
	for _, a := range sw.Algorithms {
		if a.Run == nil || len(a.Outputs) == 0 {
			return fmt.Errorf("engine: sweep %s algorithm %q needs Run and at least one output", sw.ID, a.Label)
		}
		for _, spec := range a.Outputs {
			if spec.Vector {
				if len(a.Outputs) != 1 {
					return fmt.Errorf("engine: sweep %s algorithm %q: a Vector output must be the only output", sw.ID, a.Label)
				}
				if len(sw.X) == 0 {
					return fmt.Errorf("engine: sweep %s algorithm %q: Vector outputs need an explicit X axis", sw.ID, a.Label)
				}
			}
		}
	}
	if len(sw.X) > 0 && !sw.vectorOnly() && len(sw.X) != len(sw.Points) {
		return fmt.Errorf("engine: sweep %s: explicit X length %d does not match %d points for scalar outputs",
			sw.ID, len(sw.X), len(sw.Points))
	}
	return nil
}

// vectorOnly reports whether every output of every algorithm is a
// Vector (the only configuration where X may diverge from the points).
func (sw *Sweep) vectorOnly() bool {
	for _, a := range sw.Algorithms {
		for _, spec := range a.Outputs {
			if !spec.Vector {
				return false
			}
		}
	}
	return true
}

// wantValues is the number of values algorithm ai must return per cell.
func (sw *Sweep) wantValues(ai int) int {
	if sw.Algorithms[ai].Outputs[0].Vector {
		return len(sw.X)
	}
	return len(sw.Algorithms[ai].Outputs)
}

// Run executes the sweep and assembles its figure. Results are
// bit-identical at any cfg.Workers. Cancelling ctx aborts or drains
// in-flight cells and returns a Partial result with an error wrapping
// the context's cause; terminally failed cells (after cfg.Retry's
// attempt budget) never abort the rest of the sweep — they are reported
// in Result.Failed and as the returned error once every other cell has
// finished.
func Run(ctx context.Context, sw *Sweep, cfg RunConfig) (*Result, error) {
	if err := sw.validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	r := &runner{sw: sw, cfg: cfg, guard: Guard{Retry: cfg.Retry, Chaos: cfg.Chaos, Timeout: cfg.CellTimeout}}
	if cfg.CellTimeout > 0 {
		r.guard.TimeoutCause = fmt.Errorf("cell deadline (%s) exceeded: %w", cfg.CellTimeout, context.DeadlineExceeded)
	}
	r.insts = make([][]*instSlot, len(sw.Points))
	for pi := range sw.Points {
		r.insts[pi] = make([]*instSlot, sw.pointSeeds(pi))
		for si := range r.insts[pi] {
			r.insts[pi][si] = new(instSlot)
		}
	}
	r.raw = make([][][][]float64, len(sw.Algorithms))
	r.durations = make([][][]time.Duration, len(sw.Algorithms))
	r.evals = make([][][]int64, len(sw.Algorithms))
	for ai := range sw.Algorithms {
		r.raw[ai] = make([][][]float64, len(sw.Points))
		r.durations[ai] = make([][]time.Duration, len(sw.Points))
		r.evals[ai] = make([][]int64, len(sw.Points))
		for pi := range sw.Points {
			r.raw[ai][pi] = make([][]float64, sw.pointSeeds(pi))
			r.durations[ai][pi] = make([]time.Duration, sw.pointSeeds(pi))
			r.evals[ai][pi] = make([]int64, sw.pointSeeds(pi))
		}
	}
	// Point-major, then seed, then algorithm: the sequential order the
	// hand-rolled loops used, so workers=1 replays it exactly.
	for pi := range sw.Points {
		for si := 0; si < sw.pointSeeds(pi); si++ {
			for ai := range sw.Algorithms {
				r.cells = append(r.cells, cell{point: pi, seed: si, algo: ai})
			}
		}
	}
	r.errs = make([]error, len(r.cells))
	r.skip = make([]bool, len(r.cells))
	r.excluded = make([]bool, len(r.cells))
	if s := cfg.Shard; s != nil {
		if s.Start < 0 || s.End > len(r.cells) || s.Start > s.End {
			return nil, fmt.Errorf("engine: sweep %s: shard range [%d,%d) outside the %d-cell grid",
				sw.ID, s.Start, s.End, len(r.cells))
		}
		for idx := range r.cells {
			if idx < s.Start || idx >= s.End {
				r.excluded[idx] = true
			}
		}
	}

	resumed, err := r.openCheckpoint()
	if err != nil {
		return nil, err
	}
	if r.journal != nil {
		defer r.journal.Close()
	}

	// workCtx governs in-flight cell execution. Without DrainGrace it
	// follows ctx directly; with it, cells already running when ctx is
	// cancelled get a grace period to finish (and be journaled) before
	// the hard cancel. Scheduling of *new* cells always stops at ctx.
	workCtx, workCancel := context.WithCancelCause(context.Background())
	defer workCancel(nil)
	poolDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			if cfg.DrainGrace > 0 {
				select {
				case <-time.After(cfg.DrainGrace):
					workCancel(fmt.Errorf("engine: drain grace (%s) exceeded after interrupt: %w",
						cfg.DrainGrace, context.Cause(ctx)))
				case <-poolDone:
				}
				return
			}
			workCancel(context.Cause(ctx))
		case <-poolDone:
		}
	}()

	start := time.Now()
	// Replay journaled cells first, in grid order: their finish events
	// (Resumed, zero duration) precede any live execution.
	for idx := range r.cells {
		if !r.skip[idx] || r.excluded[idx] {
			continue
		}
		c := r.cells[idx]
		r.emit(Event{
			Kind: CellFinished, Sweep: sw.ID,
			Point: c.point, Seed: c.seed, Algorithm: sw.Algorithms[c.algo].Label,
			Done: int(r.done.Add(1)), Total: len(r.cells),
			Evaluations: r.evals[c.algo][c.point][c.seed], Resumed: true,
		})
	}

	live := make([]int, 0, len(r.cells))
	for idx := range r.cells {
		if !r.skip[idx] && !r.excluded[idx] {
			live = append(live, idx)
		}
	}
	if workers > len(live) {
		workers = len(live)
	}
	if workers <= 1 {
		for _, idx := range live {
			r.runCell(ctx, workCtx, idx)
		}
	} else {
		queue := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range queue {
					r.runCell(ctx, workCtx, idx)
				}
			}()
		}
		for _, idx := range live {
			queue <- idx
		}
		close(queue)
		wg.Wait()
	}
	close(poolDone)
	wall := time.Since(start)

	var evaluations int64
	for ai := range r.evals {
		for pi := range r.evals[ai] {
			for _, e := range r.evals[ai][pi] {
				evaluations += e
			}
		}
	}
	var active time.Duration
	for ai := range r.durations {
		for pi := range r.durations[ai] {
			for _, d := range r.durations[ai][pi] {
				active += d
			}
		}
	}
	res := &Result{
		Raw:         r.raw,
		Durations:   r.durations,
		Evaluations: evaluations,
		Timing:      NewTiming(sw.ID, wall, active, len(r.cells), evaluations, workers),
		Failed:      r.failedCells(),
		Partial:     ctx.Err() != nil,
		Resumed:     resumed,
		Retries:     int(r.retried.Load()),
	}
	fig, figErr := r.figure()
	res.Figure = fig
	if res.Partial {
		return res, fmt.Errorf("engine: %s interrupted: %w", sw.ID, context.Cause(ctx))
	}
	if len(res.Failed) > 0 {
		return res, res.Failed[0]
	}
	if figErr != nil {
		return nil, figErr
	}
	return res, nil
}

// openCheckpoint opens the configured journal, restores already-journaled
// cells into the result arrays and returns how many were restored.
func (r *runner) openCheckpoint() (int, error) {
	if r.cfg.Checkpoint == nil {
		return 0, nil
	}
	var lease *LeaseMeta
	if r.cfg.Shard != nil {
		lease = r.cfg.Shard.Lease
	}
	j, recs, err := openJournal(r.cfg.Checkpoint, r.sw, lease)
	if err != nil {
		return 0, err
	}
	r.journal = j
	// Cells are laid out point-major/seed/algorithm; index arithmetic
	// must match the construction loop in Run.
	offset := make([]int, len(r.sw.Points))
	n := 0
	for pi := range r.sw.Points {
		offset[pi] = n
		n += r.sw.pointSeeds(pi) * len(r.sw.Algorithms)
	}
	resumed := 0
	for _, rec := range recs {
		if rec.Point < 0 || rec.Point >= len(r.sw.Points) ||
			rec.Seed < 0 || rec.Seed >= r.sw.pointSeeds(rec.Point) ||
			rec.Algo < 0 || rec.Algo >= len(r.sw.Algorithms) ||
			len(rec.ValueBits) != r.sw.wantValues(rec.Algo) {
			return 0, fmt.Errorf("%s: %w: cell record (point %d, seed %d, algorithm %d, %d values) outside the sweep grid",
				journalPath(r.cfg.Checkpoint.Dir, r.sw.ID), ErrCheckpointMismatch,
				rec.Point, rec.Seed, rec.Algo, len(rec.ValueBits))
		}
		idx := offset[rec.Point] + rec.Seed*len(r.sw.Algorithms) + rec.Algo
		if r.skip[idx] {
			continue
		}
		r.skip[idx] = true
		vals := make([]float64, len(rec.ValueBits))
		for i, b := range rec.ValueBits {
			vals[i] = math.Float64frombits(b)
		}
		r.raw[rec.Algo][rec.Point][rec.Seed] = vals
		r.durations[rec.Algo][rec.Point][rec.Seed] = time.Duration(rec.DurationNS)
		r.evals[rec.Algo][rec.Point][rec.Seed] = rec.Evaluations
		resumed++
	}
	return resumed, nil
}

// instance returns the lazily generated (point, seed) instance.
func (r *runner) instance(pi, si int) (*Instance, error) {
	slot := r.insts[pi][si]
	slot.once.Do(func() {
		seed := r.sw.BaseSeed + r.sw.SeedStride*int64(pi) + int64(si)
		rng := rand.New(rand.NewSource(seed))
		p, err := r.sw.Points[pi].Gen(rng)
		if err != nil {
			slot.err = err
			return
		}
		slot.inst = &Instance{
			Inst:         p,
			Point:        pi,
			Seed:         si,
			X:            r.sw.Points[pi].X,
			BaseSeed:     r.sw.BaseSeed,
			InstanceSeed: seed,
		}
	})
	return slot.inst, slot.err
}

// runCell executes one cell under the runner's Guard, recording its
// values, duration and error.
func (r *runner) runCell(ctx, workCtx context.Context, idx int) {
	c := r.cells[idx]
	algo := &r.sw.Algorithms[c.algo]

	finish := func(d time.Duration, evals int64, attempt int, err error) {
		r.errs[idx] = err
		r.emit(Event{
			Kind: CellFinished, Sweep: r.sw.ID,
			Point: c.point, Seed: c.seed, Algorithm: algo.Label,
			Done: int(r.done.Add(1)), Total: len(r.cells),
			Duration: d, Evaluations: evals, Attempt: attempt, Err: err,
		})
	}
	cancelled := func(d time.Duration, attempt int) {
		finish(d, 0, attempt, fmt.Errorf("engine: %s: %s at point %d (x=%v) seed %d not run: %w",
			r.sw.ID, algo.Label, c.point, r.sw.Points[c.point].X, c.seed, context.Cause(ctx)))
	}
	terminal := func(d time.Duration, attempt int, err error) {
		ce := &CellError{
			Sweep: r.sw.ID, Point: c.point, Seed: c.seed, X: r.sw.Points[c.point].X,
			Algorithm: algo.Label, Attempts: attempt, Err: err,
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			ce.Panicked, ce.Stack = true, pe.Stack
		}
		finish(d, 0, attempt, ce)
	}

	if ctx.Err() != nil {
		cancelled(0, 0)
		return
	}
	if r.cfg.Limiter != nil {
		// Wait for a shared slot, but give up as soon as the sweep is
		// cancelled: a cell queued behind a saturated shared Limiter must
		// not keep its worker goroutine pinned until some other sweep
		// releases a slot.
		if !r.cfg.Limiter.Acquire(ctx) {
			cancelled(0, 0)
			return
		}
		defer r.cfg.Limiter.Release()
	}
	inst, err := r.instance(c.point, c.seed)
	if err != nil {
		// Generators are deterministic: retrying cannot help.
		terminal(0, 1, err)
		return
	}

	var res CellResult
	var d time.Duration
	attempts, err := r.guard.Run(ctx, workCtx, ChaosKey{r.sw.ID, c.point, c.seed, c.algo}, inst.InstanceSeed,
		func(actx context.Context, attempt int) error {
			r.emit(Event{Kind: CellStarted, Sweep: r.sw.ID, Point: c.point, Seed: c.seed,
				Algorithm: algo.Label, Total: len(r.cells), Attempt: attempt})
			start := time.Now()
			var err error
			res, err = algo.Run(actx, inst)
			d = time.Since(start)
			if err != nil {
				return err
			}
			if want := r.sw.wantValues(c.algo); len(res.Values) != want {
				return fmt.Errorf("algorithm returned %d values, want %d", len(res.Values), want)
			}
			if r.journal != nil {
				return r.journalCell(c, res, d, attempt)
			}
			return nil
		})
	if attempts > 1 {
		r.retried.Add(int64(attempts - 1))
	}
	switch {
	case err == nil:
		r.raw[c.algo][c.point][c.seed] = res.Values
		r.durations[c.algo][c.point][c.seed] = d
		r.evals[c.algo][c.point][c.seed] = res.Evaluations
		finish(d, res.Evaluations, attempts, nil)
	case ctx.Err() != nil:
		// A failure observed while the sweep itself is shutting down is
		// an interrupt, not a cell fault: don't blame the cell.
		cancelled(d, attempts)
	default:
		terminal(d, attempts, err)
	}
}

// PanicError is a panic recovered by a Guard: the attempt fails with it
// while the process keeps running. It carries the panic value's message
// and the panicking goroutine's stack.
//
// It is declared here rather than next to Guard in retry.go because the
// first file of a package to import runtime/debug decides where the
// linker places that package, and with it the 64-byte alignment of
// internal/model's hot functions, which the benchmark's timings are
// sensitive to.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string { return "panic: " + e.Value }

// newPanicError records a recovered panic value. Called from the
// recovering deferred function, it captures the stack that panicked.
func newPanicError(v any) *PanicError {
	return &PanicError{Value: fmt.Sprint(v), Stack: string(debug.Stack())}
}

// journalCell appends one completed cell to the checkpoint journal.
func (r *runner) journalCell(c cell, res CellResult, d time.Duration, attempt int) error {
	bits := make([]uint64, len(res.Values))
	for i, v := range res.Values {
		bits[i] = math.Float64bits(v)
	}
	err := r.journal.append("c", CellRecord{
		Point: c.point, Seed: c.seed, Algo: c.algo,
		ValueBits: bits, Evaluations: res.Evaluations,
		DurationNS: int64(d), Attempts: attempt,
	})
	if err != nil {
		return fmt.Errorf("checkpoint journal: %w", err)
	}
	return nil
}

// emit serialises progress callbacks.
func (r *runner) emit(ev Event) {
	if r.cfg.Progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.Progress(ev)
}

// failedCells collects terminal cell failures in grid order, so the
// same failure is reported first at any worker count.
func (r *runner) failedCells() []*CellError {
	var failed []*CellError
	for _, err := range r.errs {
		var ce *CellError
		if errors.As(err, &ce) {
			failed = append(failed, ce)
		}
	}
	return failed
}

// figure assembles the sweep's Figure from the recorded cell values, in
// declaration order (algorithms, then outputs, then — for Vector
// outputs — points). Cells that failed or never ran have nil rows and
// simply don't contribute, like NaN opt-outs.
func (r *runner) figure() (*Figure, error) {
	sw := r.sw
	fig := &Figure{ID: sw.ID, Title: sw.Title, XLabel: sw.XLabel, YLabel: sw.YLabel}
	if len(sw.X) > 0 {
		fig.X = append(fig.X, sw.X...)
	} else {
		for _, pt := range sw.Points {
			fig.X = append(fig.X, pt.X)
		}
	}
	for ai := range sw.Algorithms {
		algo := &sw.Algorithms[ai]
		for k, spec := range algo.Outputs {
			if spec.Vector {
				for pi := range sw.Points {
					rows := make([][]float64, 0, len(r.raw[ai][pi]))
					for _, row := range r.raw[ai][pi] {
						if row != nil {
							rows = append(rows, row)
						}
					}
					if len(rows) == 0 {
						fig.Series = append(fig.Series, Series{Label: sw.Points[pi].Label, Unit: spec.Unit, Y: make([]float64, len(sw.X))})
						continue
					}
					mean, err := stats.MeanSeries(rows)
					if err != nil {
						return nil, fmt.Errorf("engine: %s: %s point %d: %w", sw.ID, algo.Label, pi, err)
					}
					fig.Series = append(fig.Series, Series{Label: sw.Points[pi].Label, Unit: spec.Unit, Y: mean})
				}
				continue
			}
			s := Series{Label: spec.Label, Unit: spec.Unit, Y: make([]float64, len(sw.Points))}
			if spec.CI {
				s.CI95 = make([]float64, len(sw.Points))
			}
			for pi := range sw.Points {
				vals := make([]float64, 0, len(r.raw[ai][pi]))
				for _, cellVals := range r.raw[ai][pi] {
					if len(cellVals) <= k {
						continue // failed or not-run cell
					}
					if v := cellVals[k]; !math.IsNaN(v) {
						vals = append(vals, v)
					}
				}
				if len(vals) == 0 {
					continue // every cell opted out: the series keeps 0 here
				}
				mean, err := stats.Mean(vals)
				if err != nil {
					return nil, fmt.Errorf("engine: %s: %s: %w", sw.ID, spec.Label, err)
				}
				s.Y[pi] = mean
				if spec.CI {
					ci, err := stats.CI95HalfWidth(vals)
					if err != nil {
						return nil, fmt.Errorf("engine: %s: %s: %w", sw.ID, spec.Label, err)
					}
					s.CI95[pi] = ci
				}
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}
