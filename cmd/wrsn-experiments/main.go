// Command wrsn-experiments regenerates the paper's evaluation: every
// figure of Section II (field experiments) and Section VI (simulations).
//
// Usage:
//
//	wrsn-experiments -fig all            # everything, paper-scale
//	wrsn-experiments -fig 8 -seeds 5     # one figure, fewer seeds
//	wrsn-experiments -fig 7a -quick      # scaled-down quick run
//	wrsn-experiments -fig 6 -csv         # emit CSV instead of tables
//	wrsn-experiments -fig all -workers 8 -progress
//	wrsn-experiments -fig all -bench BENCH_PR3.json
//	wrsn-experiments -fig 8 -cpuprofile cpu.pprof -memprofile mem.pprof
//	wrsn-experiments -fig all -checkpoint ckpt        # journal each cell
//	wrsn-experiments -fig all -checkpoint ckpt -resume # skip journaled cells
//	wrsn-experiments -fig 8 -shard-coordinator -shard-spool spool -shard-workers 4
//	wrsn-experiments -fig 8 -shard-merge -shard-spool spool   # merge a finished spool
//
// Figures: 1 (field experiment / Table II), 6 (iterative RFH
// convergence), 7a/7b (heuristics vs optimal), 8 (node-count sweep),
// 9 (post-count sweep), 10 (power-level sweep), plus the ext-* extension
// studies and the solver portfolio.
//
// Selected figures run concurrently on the experiment engine, sharing
// one cell-concurrency budget (-workers); output is buffered per figure
// and printed in a fixed order, so stdout is byte-identical at any
// worker count. Ctrl-C cancels in-flight sweeps; figures completed
// before the interrupt are still printed and written to -json, in-flight
// cells get -grace to finish and be journaled, and artifacts carry
// "partial": true. A second Ctrl-C kills the process immediately. With
// -checkpoint, a later run with -resume replays the journals and
// produces byte-identical output to an uninterrupted run.
//
// Exit codes: 0 on success, 3 for a drained interrupt (completed
// figures were printed and artifacts are valid), 1 for failure.
//
// With -shard-coordinator, each sweep's cell grid is partitioned into
// shards executed by -shard-workers subprocesses (each re-invoking this
// binary in -shard-worker mode) coordinated through -shard-spool:
// leases are revoked and re-granted when workers die or stop
// heartbeating, and the merged output is byte-identical to an
// in-process run. A coordinator killed mid-run can be restarted against
// the same spool; -shard-merge assembles figures from a spool whose
// segments are already complete (e.g. hand-launched workers on a shared
// filesystem).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wrsn/internal/engine"
	"wrsn/internal/experiments"
	"wrsn/internal/model"
	"wrsn/internal/render"
	"wrsn/internal/shard"
	"wrsn/internal/texttable"
)

// Exit codes. A drained interrupt (Ctrl-C mid-run) is not a failure:
// completed figures were printed, artifacts are valid and resumable, so
// callers get a distinct code for "stopped early, state is good".
const (
	exitFailed  = 1
	exitPartial = 3
)

// exitCode classifies a run error for the process exit status.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		return exitPartial
	default:
		return exitFailed
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal starts a graceful drain, unregister the
	// handler so a second Ctrl-C falls through to the default action and
	// kills the process immediately.
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-experiments:", err)
		os.Exit(exitCode(err))
	}
}

// run keeps the historical single-writer entry point (used by tests).
func run(args []string, stdout io.Writer) error {
	return runCtx(context.Background(), args, stdout, io.Discard)
}

// progressRenderer folds cell events from every concurrently running
// figure into one live stderr line.
type progressRenderer struct {
	mu    sync.Mutex
	done  map[string]int
	total map[string]int
	out   io.Writer
}

func newProgressRenderer(out io.Writer) *progressRenderer {
	return &progressRenderer{done: map[string]int{}, total: map[string]int{}, out: out}
}

func (pr *progressRenderer) observe(ev engine.Event) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.total[ev.Sweep] = ev.Total
	if ev.Kind == engine.CellFinished {
		pr.done[ev.Sweep] = ev.Done
	}
	var done, total int
	for id := range pr.total {
		done += pr.done[id]
		total += pr.total[id]
	}
	fmt.Fprintf(pr.out, "\r%-72s", fmt.Sprintf("%d/%d cells  (%s: %s)", done, total, ev.Sweep, ev.Algorithm))
}

func (pr *progressRenderer) finish() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.total) > 0 {
		fmt.Fprintln(pr.out)
	}
}

// benchArtifact is the machine-readable perf record written by -bench:
// the trajectory future optimisation PRs measure themselves against.
type benchArtifact struct {
	Command string `json:"command"`
	Workers int    `json:"workers"`
	// Self-description: the machine and build configuration the numbers
	// were measured under, so artifacts are comparable without consulting
	// the commit they shipped with.
	GOMAXPROCS         int             `json:"gomaxprocs"`
	Features           map[string]bool `json:"features"`
	TotalWallSeconds   float64         `json:"total_wall_seconds"`
	TotalActiveSeconds float64         `json:"total_active_seconds"`
	TotalCells         int             `json:"total_cells"`
	TotalEvaluations   int64           `json:"total_solver_evaluations"`
	// Partial marks an artifact from an interrupted run: its numbers
	// cover only the cells that completed and are not comparable to a
	// full run's (cmd/benchguard flags and skips such artifacts).
	Partial bool            `json:"partial,omitempty"`
	Figures []engine.Timing `json:"figures"`
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wrsn-experiments", flag.ContinueOnError)
	var (
		fig         = fs.String("fig", "all", "figure(s) to regenerate (comma-separated ids, all, or ext)")
		listSolvers = fs.Bool("list-solvers", false, "print the solver registry (name, accepted problem kinds) and exit")
		seeds       = fs.Int("seeds", 0, "random post distributions to average (0 = paper default)")
		seed        = fs.Int64("seed", 1, "base random seed")
		quick       = fs.Bool("quick", false, "scaled-down run (fewer seeds/points, same trends)")
		csv         = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		chart       = fs.Bool("chart", false, "additionally draw each figure as an ASCII chart")
		jsonP       = fs.String("json", "", "additionally write the structured figures as JSON to this file")
		workers     = fs.Int("workers", 0, "engine worker-pool size shared across figures (0 = GOMAXPROCS; results identical at any value)")
		timeout     = fs.Duration("timeout", 0, "per-cell timeout, e.g. 30s (0 = unbounded)")
		progress    = fs.Bool("progress", false, "render a live cell-progress line on stderr")
		bench       = fs.String("bench", "", "write a machine-readable perf artifact (per-figure wall time, cells/sec, evaluations) to this file")
		cpuProf     = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf     = fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")

		checkpoint = fs.String("checkpoint", "", "journal each completed cell to a crash-safe file per figure under this directory")
		resume     = fs.Bool("resume", false, "replay existing -checkpoint journals and skip already-completed cells (output stays byte-identical)")
		retries    = fs.Int("retries", 1, "attempts per cell before a failure is terminal (1 = no retry)")
		retryBase  = fs.Duration("retry-base", 100*time.Millisecond, "first retry backoff delay (doubles per retry, deterministically jittered)")
		retryMax   = fs.Duration("retry-max", 5*time.Second, "backoff delay cap")
		grace      = fs.Duration("grace", 10*time.Second, "how long in-flight cells may finish (and be journaled) after an interrupt before being hard-cancelled")

		chaosPanic   = fs.Float64("chaos-panic", 0, "TESTING: fraction of cell attempts that panic (deterministic, seeded)")
		chaosError   = fs.Float64("chaos-error", 0, "TESTING: fraction of cell attempts that fail with an injected error")
		chaosLatFrac = fs.Float64("chaos-latency-frac", 0, "TESTING: fraction of cell attempts delayed by -chaos-latency")
		chaosLatency = fs.Duration("chaos-latency", 10*time.Millisecond, "TESTING: injected latency per affected attempt")
		chaosSeed    = fs.Int64("chaos-seed", 0, "TESTING: chaos injection seed")

		chaosWorkerKill  = fs.Float64("chaos-worker-kill", 0, "TESTING: fraction of shard-worker lease attempts killed mid-shard")
		chaosWorkerWedge = fs.Float64("chaos-worker-wedge", 0, "TESTING: fraction of shard-worker lease attempts wedged mid-shard (heartbeats stop)")
		chaosHBDelayFrac = fs.Float64("chaos-heartbeat-delay-frac", 0, "TESTING: fraction of shard-worker leases whose heartbeats are delayed by -chaos-heartbeat-delay")
		chaosHBDelay     = fs.Duration("chaos-heartbeat-delay", 0, "TESTING: injected heartbeat delay per affected lease")

		shardCoord   = fs.Bool("shard-coordinator", false, "run each selected figure's sweeps sharded across worker processes (requires -shard-spool)")
		shardWorkers = fs.Int("shard-workers", 2, "worker processes the shard coordinator keeps running concurrently")
		shardSize    = fs.Int("shard-size", 0, "cells per shard lease (0 = about four shards per worker)")
		shardTTL     = fs.Duration("shard-lease-ttl", 15*time.Second, "revoke a shard lease after this long without a worker heartbeat")
		shardSpool   = fs.String("shard-spool", "", "shared spool directory for sharded sweeps (lease table, segments, heartbeats)")
		shardMerge   = fs.Bool("shard-merge", false, "merge a spool's committed segments into final figures without running any cells (requires -shard-spool)")
		shardWorker  = fs.Bool("shard-worker", false, "INTERNAL: execute one shard lease against -shard-spool and exit")
		shardRange   = fs.String("shard-range", "", "INTERNAL: leased cell range start:end (with -shard-worker)")
		shardEpoch   = fs.Int64("shard-epoch", 0, "INTERNAL: lease attempt epoch (with -shard-worker)")
		shardSweep   = fs.String("shard-sweep", "", "INTERNAL: sweep ID the lease belongs to (with -shard-worker)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *listSolvers {
		// Printed straight from the live registry, so this listing can
		// never drift from what -fig runs actually dispatch to (the
		// stale-figure-list class of bug, fixed once for figure ids).
		fmt.Fprintf(stdout, "%-18s %s\n", "SOLVER", "PROBLEM KINDS")
		for _, info := range engine.Infos() {
			fmt.Fprintf(stdout, "%-18s %s\n", info.Name, strings.Join(info.Kinds, ", "))
		}
		return nil
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	chaosRequested := false
	for name := range explicit {
		if strings.HasPrefix(name, "chaos-") && name != "chaos-seed" {
			chaosRequested = true
		}
	}
	if chaosRequested && !explicit["chaos-seed"] {
		return fmt.Errorf("-chaos-* flags require an explicit -chaos-seed: chaos schedules are deterministic and the seed is part of the experiment record")
	}
	shardModes := 0
	for _, on := range []bool{*shardCoord, *shardWorker, *shardMerge} {
		if on {
			shardModes++
		}
	}
	if shardModes > 1 {
		return fmt.Errorf("-shard-coordinator, -shard-worker and -shard-merge are mutually exclusive")
	}
	if shardModes == 0 {
		for _, name := range []string{"shard-spool", "shard-workers", "shard-size", "shard-lease-ttl", "shard-range", "shard-epoch", "shard-sweep"} {
			if explicit[name] {
				return fmt.Errorf("-%s needs one of -shard-coordinator, -shard-worker or -shard-merge", name)
			}
		}
	}
	if shardModes == 1 {
		if *shardSpool == "" {
			return fmt.Errorf("sharded modes require -shard-spool")
		}
		if *checkpoint != "" {
			return fmt.Errorf("-checkpoint cannot be combined with sharded modes: the spool owns journaling")
		}
	}
	if *shardWorker && (*shardSweep == "" || *shardRange == "" || *shardEpoch < 1) {
		return fmt.Errorf("-shard-worker requires -shard-sweep, -shard-range and -shard-epoch >= 1")
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Deferred so the profile covers the run's live heap, from the
		// same binary that writes the BENCH_*.json artifacts.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "wrsn-experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "wrsn-experiments: memprofile:", err)
			}
		}()
	}
	poolSize := *workers
	if poolSize <= 0 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	baseOpts := experiments.Options{
		Seeds:    *seeds,
		BaseSeed: *seed,
		Quick:    *quick,
		Context:  ctx,
		Workers:  poolSize,
		Timeout:  *timeout,
		// One budget for every concurrently running figure: combined
		// active cells never exceed the pool size.
		Limiter:    engine.NewLimiter(poolSize),
		Retry:      engine.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase, MaxDelay: *retryMax},
		DrainGrace: *grace,
	}
	if *checkpoint != "" {
		baseOpts.Checkpoint = &engine.Checkpoint{Dir: *checkpoint, Resume: *resume}
	}
	if *chaosPanic > 0 || *chaosError > 0 || *chaosLatFrac > 0 ||
		*chaosWorkerKill > 0 || *chaosWorkerWedge > 0 || *chaosHBDelayFrac > 0 {
		baseOpts.Chaos = &engine.ChaosConfig{
			Seed:        *chaosSeed,
			PanicFrac:   *chaosPanic,
			ErrorFrac:   *chaosError,
			LatencyFrac: *chaosLatFrac,
			Latency:     *chaosLatency,

			WorkerKillFrac:     *chaosWorkerKill,
			WorkerWedgeFrac:    *chaosWorkerWedge,
			HeartbeatDelayFrac: *chaosHBDelayFrac,
			HeartbeatDelay:     *chaosHBDelay,
		}
	}

	switch {
	case *shardWorker:
		start, end, err := shard.ParseRange(*shardRange)
		if err != nil {
			return err
		}
		lease := shard.Lease{
			Sweep: *shardSweep, Start: start, End: end, Epoch: *shardEpoch,
			Worker: fmt.Sprintf("pid%d", os.Getpid()),
		}
		spool := *shardSpool
		baseOpts.RunSweep = func(ctx context.Context, sw *engine.Sweep, cfg engine.RunConfig) (*engine.Result, error) {
			if sw.ID != lease.Sweep {
				// A figure selection can span several sweeps; those
				// outside the lease run zero cells so figure assembly
				// still proceeds (the worker's stdout is discarded).
				cfg.Shard = &engine.ShardSpec{}
				return engine.Run(ctx, sw, cfg)
			}
			return shard.RunWorker(ctx, sw, shard.WorkerConfig{Spool: spool, Lease: lease, Run: cfg})
		}
	case *shardMerge:
		spool := *shardSpool
		baseOpts.RunSweep = func(ctx context.Context, sw *engine.Sweep, cfg engine.RunConfig) (*engine.Result, error) {
			res, rejected, err := shard.MergeSpool(ctx, sw, cfg, spool)
			for _, rej := range rejected {
				fmt.Fprintf(stderr, "wrsn-experiments: shard merge: rejected %s: %s\n", rej.Path, rej.Reason)
			}
			return res, err
		}
	case *shardCoord:
		bin, err := os.Executable()
		if err != nil {
			return fmt.Errorf("shard coordinator: %w", err)
		}
		// Split the cell budget across worker processes; each worker runs
		// its shard with its own in-process pool.
		perWorker := poolSize / *shardWorkers
		if perWorker < 1 {
			perWorker = 1
		}
		workerArgs := []string{
			"-fig", *fig,
			"-seeds", strconv.Itoa(*seeds),
			"-seed", strconv.FormatInt(*seed, 10),
			"-workers", strconv.Itoa(perWorker),
			"-timeout", timeout.String(),
			"-retries", strconv.Itoa(*retries),
			"-retry-base", retryBase.String(),
			"-retry-max", retryMax.String(),
			"-grace", grace.String(),
		}
		if *quick {
			workerArgs = append(workerArgs, "-quick")
		}
		if c := baseOpts.Chaos; c != nil {
			workerArgs = append(workerArgs,
				"-chaos-seed", strconv.FormatInt(c.Seed, 10),
				"-chaos-panic", fmt.Sprint(c.PanicFrac),
				"-chaos-error", fmt.Sprint(c.ErrorFrac),
				"-chaos-latency-frac", fmt.Sprint(c.LatencyFrac),
				"-chaos-latency", c.Latency.String(),
				"-chaos-worker-kill", fmt.Sprint(c.WorkerKillFrac),
				"-chaos-worker-wedge", fmt.Sprint(c.WorkerWedgeFrac),
				"-chaos-heartbeat-delay-frac", fmt.Sprint(c.HeartbeatDelayFrac),
				"-chaos-heartbeat-delay", c.HeartbeatDelay.String(),
			)
		}
		launch := &execLauncher{bin: bin, args: workerArgs, spool: *shardSpool, stderr: stderr}
		coordCfg := shard.Config{
			Spool:     *shardSpool,
			Workers:   *shardWorkers,
			ShardSize: *shardSize,
			LeaseTTL:  *shardTTL,
			Launch:    launch,
			Log: func(format string, logArgs ...interface{}) {
				fmt.Fprintf(stderr, "wrsn-experiments: "+format+"\n", logArgs...)
			},
		}
		baseOpts.RunSweep = func(ctx context.Context, sw *engine.Sweep, cfg engine.RunConfig) (*engine.Result, error) {
			// Cell execution — pool size, chaos, retries — belongs to the
			// worker processes via their own flags; only progress and the
			// shared limiter stay with the coordinator's merge replay.
			res, _, err := shard.Coordinate(ctx, sw, engine.RunConfig{
				Progress: cfg.Progress,
				Limiter:  cfg.Limiter,
			}, coordCfg)
			return res, err
		}
	}

	type runner struct {
		id string
		fn func(opts experiments.Options) ([]*texttable.Table, []*experiments.Figure, error)
	}
	comparison := func(f func(experiments.Options) (*experiments.Figure, error)) func(experiments.Options) ([]*texttable.Table, []*experiments.Figure, error) {
		return func(opts experiments.Options) ([]*texttable.Table, []*experiments.Figure, error) {
			fig, err := f(opts)
			if err != nil {
				return nil, nil, err
			}
			return []*texttable.Table{experiments.ComparisonTable(fig)}, []*experiments.Figure{fig}, nil
		}
	}
	runners := []runner{
		{"1", func(opts experiments.Options) ([]*texttable.Table, []*experiments.Figure, error) {
			res, err := experiments.Fig1(opts)
			if err != nil {
				return nil, nil, err
			}
			figs := make([]*experiments.Figure, len(res.Figures))
			for i := range res.Figures {
				figs[i] = &res.Figures[i]
			}
			return res.Tables(), figs, nil
		}},
		{"6", func(opts experiments.Options) ([]*texttable.Table, []*experiments.Figure, error) {
			fig, err := experiments.Fig6(opts)
			if err != nil {
				return nil, nil, err
			}
			return []*texttable.Table{experiments.Fig6Table(fig)}, []*experiments.Figure{fig}, nil
		}},
		{"7a", comparison(experiments.Fig7a)},
		{"7b", comparison(experiments.Fig7b)},
		{"8", comparison(experiments.Fig8)},
		{"9", comparison(experiments.Fig9)},
		{"10", comparison(experiments.Fig10)},
		{"ext-gain", comparison(experiments.ExtGain)},
		{"ext-overhead", comparison(experiments.ExtOverhead)},
		{"ext-charger", comparison(experiments.ExtChargerPolicy)},
		{"ext-layout", comparison(experiments.ExtLayout)},
		{"ext-delta", comparison(experiments.ExtDelta)},
		{"ext-validation", comparison(experiments.ExtSimValidation)},
		{"ext-fault", comparison(experiments.ExtFaultTolerance)},
		{"ext-repair", comparison(experiments.ExtRepair)},
		{"ext-placement", comparison(experiments.ExtPlacement)},
		{"portfolio", func(opts experiments.Options) ([]*texttable.Table, []*experiments.Figure, error) {
			entries, err := experiments.ExtPortfolio(opts)
			if err != nil {
				return nil, nil, err
			}
			t := texttable.New("Solver portfolio (350x350m, 40 posts, 200 nodes)",
				"solver", "mean cost (µJ)", "gap to best (%)", "runtime (ms)")
			for _, e := range entries {
				t.AddRow(e.Solver, e.MeanCost, e.MeanGapPct, e.MeanRuntimeMS)
			}
			return []*texttable.Table{t}, nil, nil
		}},
	}

	// "all" and "ext" are derived from the runner table, as is the
	// valid-id list in the error below — new figures can't drift out.
	wanted := strings.Split(strings.ToLower(*fig), ",")
	selected := map[string]bool{}
	for _, w := range wanted {
		w = strings.TrimSpace(w)
		switch w {
		case "all":
			for _, r := range runners {
				if !strings.HasPrefix(r.id, "ext-") && r.id != "portfolio" {
					selected[r.id] = true
				}
			}
		case "ext":
			for _, r := range runners {
				if strings.HasPrefix(r.id, "ext-") || r.id == "portfolio" {
					selected[r.id] = true
				}
			}
		default:
			selected[strings.TrimPrefix(w, "fig")] = true
		}
	}
	var active []runner
	for _, r := range runners {
		if selected[r.id] {
			active = append(active, r)
		}
	}
	if len(active) == 0 {
		valid := make([]string, 0, len(runners))
		for _, r := range runners {
			valid = append(valid, r.id)
		}
		return fmt.Errorf("no figure matches %q (valid: %s, all, ext)", *fig, strings.Join(valid, ", "))
	}

	var renderer *progressRenderer
	if *progress {
		renderer = newProgressRenderer(stderr)
	}

	// Every selected figure runs concurrently under the shared cell
	// limiter; output is buffered per figure and printed in table order
	// below, keeping stdout deterministic.
	type figOutput struct {
		tables  []*texttable.Table
		figures []*experiments.Figure
		timing  engine.Timing
		err     error
	}
	outputs := make([]figOutput, len(active))
	totalStart := time.Now()
	var wg sync.WaitGroup
	for i, r := range active {
		wg.Add(1)
		go func(i int, r runner) {
			defer wg.Done()
			var cells, inflight, peak int
			var evaluations int64
			var active time.Duration
			var firstStart, lastFinish time.Time
			opts := baseOpts
			opts.Progress = func(ev engine.Event) {
				switch ev.Kind {
				case engine.CellStarted:
					if firstStart.IsZero() {
						firstStart = time.Now()
					}
					inflight++
					if inflight > peak {
						peak = inflight
					}
				case engine.CellFinished:
					if inflight > 0 {
						inflight--
					}
					lastFinish = time.Now()
					if ev.Err == nil {
						cells++
						evaluations += ev.Evaluations
						// Summed cell runtimes, not elapsed time: under the
						// shared limiter a figure's wall clock also counts time
						// spent waiting on other figures' cells.
						active += ev.Duration
					}
				}
				if renderer != nil {
					renderer.observe(ev)
				}
			}
			start := time.Now()
			tables, figures, err := r.fn(opts)
			wall := time.Since(start)
			timing := engine.NewTiming(r.id, wall, active, cells, evaluations, poolSize)
			// Attribute honestly under the shared limiter: the window this
			// figure actually had cells in flight, and the most cells it
			// ever ran at once (not the whole pool).
			if !firstStart.IsZero() && !lastFinish.IsZero() {
				timing.SpanSeconds = lastFinish.Sub(firstStart).Seconds()
			}
			timing.PeakWorkers = peak
			outputs[i] = figOutput{
				tables:  tables,
				figures: figures,
				timing:  timing,
				err:     err,
			}
		}(i, r)
	}
	wg.Wait()
	if renderer != nil {
		renderer.finish()
	}

	// Print completed figures in table order; stop at the first failure
	// like the historical sequential runner did.
	allFigures := []*experiments.Figure{} // non-nil: -json writes [] when no runner yields figures
	var timings []engine.Timing
	var firstErr error
	for i, r := range active {
		out := &outputs[i]
		if out.err != nil {
			firstErr = fmt.Errorf("figure %s: %w", r.id, out.err)
			break
		}
		allFigures = append(allFigures, out.figures...)
		timings = append(timings, out.timing)
		fmt.Fprintf(stdout, "=== Figure %s ===\n\n", r.id)
		for _, t := range out.tables {
			if *csv {
				fmt.Fprint(stdout, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.String())
			}
		}
		if *chart {
			for _, f := range out.figures {
				series := make([]render.ChartSeries, len(f.Series))
				for si, s := range f.Series {
					series[si] = render.ChartSeries{Label: s.Label, Y: s.Y}
				}
				drawn, err := render.Chart(f.Title+" ("+f.YLabel+")", f.X, series, 64, 14)
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("figure %s chart: %w", r.id, err)
					}
					break
				}
				fmt.Fprintln(stdout, drawn)
			}
			if firstErr != nil {
				break
			}
		}
	}
	totalWall := time.Since(totalStart)

	for _, tm := range timings {
		fmt.Fprintf(stderr, "figure %-14s %7.2fs wall  %7.2fs active  %4d cells  %8.1f cells/s  %d evaluations\n",
			tm.Figure, tm.WallSeconds, tm.ActiveSeconds, tm.Cells, tm.CellsPerSec, tm.Evaluations)
	}
	if len(timings) > 0 {
		fmt.Fprintf(stderr, "total %21.2fs  (workers=%d)\n", totalWall.Seconds(), poolSize)
	}

	// JSON and bench artifacts are written even after a failure or
	// interrupt: whatever completed is still a valid, parseable payload.
	if *jsonP != "" {
		if err := writeJSON(*jsonP, allFigures); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if *bench != "" {
		artifact := benchArtifact{
			Command:    "wrsn-experiments -fig " + *fig,
			Workers:    poolSize,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Features:   model.EvaluatorFeatures(),
			Partial:    ctx.Err() != nil,
			Figures:    timings,
		}
		artifact.TotalWallSeconds = totalWall.Seconds()
		for _, tm := range timings {
			artifact.TotalActiveSeconds += tm.ActiveSeconds
			artifact.TotalCells += tm.Cells
			artifact.TotalEvaluations += tm.Evaluations
		}
		if err := writeJSON(*bench, artifact); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// execLauncher starts shard workers as subprocesses of this binary in
// -shard-worker mode — the process-level half of -shard-coordinator.
// Worker stdout (figure tables assembled from a partial grid) is
// discarded; the committed spool segment is the real output. Worker
// stderr passes through for debugging.
type execLauncher struct {
	bin    string
	args   []string
	spool  string
	stderr io.Writer
}

func (e *execLauncher) Start(_ context.Context, lease shard.Lease) (shard.Handle, error) {
	args := append(append([]string{}, e.args...),
		"-shard-worker",
		"-shard-spool", e.spool,
		"-shard-sweep", lease.Sweep,
		"-shard-range", fmt.Sprintf("%d:%d", lease.Start, lease.End),
		"-shard-epoch", strconv.FormatInt(lease.Epoch, 10),
	)
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = e.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &execHandle{cmd: cmd}, nil
}

type execHandle struct{ cmd *exec.Cmd }

func (h *execHandle) Wait() error { return h.cmd.Wait() }

// Kill revokes the lease with a SIGKILL — the worker gets no chance to
// commit, which is exactly the guarantee revocation needs (anything it
// might still write carries a stale epoch and is fenced at merge).
func (h *execHandle) Kill() {
	if h.cmd.Process != nil {
		_ = h.cmd.Process.Kill()
	}
}

// writeJSON writes v as indented JSON to path through
// engine.WriteFileAtomic: a crash or encode failure at any point leaves
// an existing artifact at path untouched, so readers never see a
// truncated file. The directory must exist.
func writeJSON(path string, v interface{}) error {
	return engine.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
