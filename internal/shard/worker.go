package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"wrsn/internal/engine"
)

// Worker-side chaos outcomes, distinguishable with errors.Is.
var (
	// ErrKilled reports a worker that died mid-shard under chaos
	// injection without committing its segment — the in-process
	// equivalent of a SIGKILL.
	ErrKilled = errors.New("shard: worker killed mid-shard (chaos)")
)

// WorkerConfig configures one shard lease execution.
type WorkerConfig struct {
	// Spool is the shared spool directory (required).
	Spool string
	// Lease is the shard grant to execute (required; Lease.Sweep must
	// match the sweep's ID).
	Lease Lease
	// Run is the base engine configuration for the shard: worker-pool
	// size within the shard, per-cell timeout, retry policy, cell- and
	// worker-level chaos. Checkpoint and Shard are owned by the worker
	// and must be unset.
	Run engine.RunConfig
	// HeartbeatEvery is the heartbeat period (default 1s). The
	// coordinator's lease TTL should be several multiples of it.
	HeartbeatEvery time.Duration

	// wedgeRelease, when non-nil, lets a chaos-wedged worker resume and
	// commit its (by then stale) segment — the test hook behind the
	// zombie-fencing suite. Production wedges hang until killed.
	wedgeRelease <-chan struct{}
}

// RunWorker executes one shard lease: it runs the sweep's cells in
// [Lease.Start, Lease.End) through engine.Run, journaling to a private
// work dir under the spool, heartbeats while running, and commits the
// finished journal segment into the spool's seg/ directory with an
// atomic rename. On any failure — cell errors, cancellation, chaos
// kill or wedge — nothing is committed; the coordinator observes the
// missing segment and re-grants the shard.
func RunWorker(ctx context.Context, sw *engine.Sweep, cfg WorkerConfig) (*engine.Result, error) {
	if cfg.Spool == "" {
		return nil, errors.New("shard: worker needs a spool directory")
	}
	if cfg.Lease.Sweep != sw.ID {
		return nil, fmt.Errorf("shard: lease %s does not belong to sweep %s", cfg.Lease, sw.ID)
	}
	if cfg.Run.Checkpoint != nil || cfg.Run.Shard != nil {
		return nil, errors.New("shard: WorkerConfig.Run must not set Checkpoint or Shard")
	}
	hbEvery := cfg.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	l := newLayout(cfg.Spool)
	if err := l.ensure(); err != nil {
		return nil, err
	}
	workDir := l.workDir(cfg.Lease)
	if err := os.RemoveAll(workDir); err != nil {
		return nil, fmt.Errorf("shard: reset work dir: %w", err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}

	fate := cfg.Run.Chaos.WorkerFaults(sw.ID, cfg.Lease.Start, cfg.Lease.End, cfg.Lease.Epoch)
	// Fault point: halfway through the shard's cells, so a killed or
	// wedged worker provably leaves real work behind to re-grant.
	faultAfter := int64(cfg.Lease.End-cfg.Lease.Start) / 2

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var done atomic.Int64
	hbStop := make(chan struct{}) // run finished: stop heartbeating
	var hbWedged atomic.Bool      // chaos wedge: heartbeats go silent
	heartbeat := func() error {
		if fate.HeartbeatDelay > 0 {
			t := time.NewTimer(fate.HeartbeatDelay)
			select {
			case <-t.C:
			case <-runCtx.Done():
				t.Stop()
				return runCtx.Err()
			}
		}
		return writeHeartbeat(l, cfg.Lease, int(done.Load()))
	}
	if err := heartbeat(); err != nil {
		return nil, err
	}
	go func() {
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-runCtx.Done():
				return
			case <-t.C:
				if !hbWedged.Load() {
					_ = heartbeat()
				}
			}
		}
	}()

	runCfg := cfg.Run
	runCfg.Checkpoint = &engine.Checkpoint{Dir: workDir}
	lease := cfg.Lease
	runCfg.Shard = &engine.ShardSpec{Start: lease.Start, End: lease.End, Lease: &lease}
	inner := cfg.Run.Progress
	runCfg.Progress = func(ev engine.Event) {
		if inner != nil {
			inner(ev)
		}
		if ev.Kind != engine.CellFinished {
			return
		}
		n := done.Add(1)
		if n <= faultAfter {
			return
		}
		if fate.Kill {
			fate.Kill = false // fire once
			cancel(ErrKilled)
		} else if fate.Wedge {
			fate.Wedge = false
			hbWedged.Store(true)
			// Hang mid-shard, heartbeats silent, until revoked (ctx
			// cancel) or — in the fencing tests — released to finish as
			// a zombie.
			select {
			case <-runCtx.Done():
			case <-cfg.wedgeRelease:
			}
		}
	}

	res, err := engine.Run(runCtx, sw, runCfg)
	close(hbStop)
	if err != nil {
		if cause := context.Cause(runCtx); cause != nil && errors.Is(cause, ErrKilled) {
			return nil, fmt.Errorf("%w: lease %s", ErrKilled, cfg.Lease)
		}
		return nil, fmt.Errorf("shard: lease %s: %w", cfg.Lease, err)
	}

	// Commit: the journal engine.Run closed is complete; the atomic
	// rename into seg/ is the commit point. Everything short of the
	// rename leaves no trace a coordinator could mistake for a segment.
	if err := os.Rename(journalIn(workDir, sw.ID), l.segPath(cfg.Lease)); err != nil {
		return nil, fmt.Errorf("shard: commit segment: %w", err)
	}
	engine.SyncDir(l.segDir())
	_ = os.RemoveAll(workDir)
	return res, nil
}

// journalIn is where engine.Run's checkpoint journal for sw lives under
// dir (mirrors the engine's journal naming).
func journalIn(dir, sweepID string) string {
	return filepath.Join(dir, sweepID+".journal")
}
