package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"wrsn/internal/engine"
)

// Launcher starts workers for leases. The coordinator is agnostic to
// where a worker runs: cmd/wrsn-experiments launches subprocesses of
// itself, the test suite runs workers in-process.
type Launcher interface {
	// Start launches a worker executing lease. The worker is expected
	// to commit its segment into the spool and exit; Start returns as
	// soon as the worker is running.
	Start(ctx context.Context, lease Lease) (Handle, error)
}

// Handle controls one launched worker.
type Handle interface {
	// Wait blocks until the worker exits and reports its failure, if
	// any. The coordinator calls Wait exactly once per handle.
	Wait() error
	// Kill force-stops the worker (lease revocation). Killing an
	// already-exited worker is a no-op.
	Kill()
}

// Config tunes the coordinator.
type Config struct {
	// Spool is the shared coordination directory (required). A restarted
	// coordinator pointed at the same spool resumes from its persisted
	// lease table and committed segments.
	Spool string
	// Workers is how many leases run concurrently (>= 1).
	Workers int
	// ShardSize is the cells per shard (0 = automatic: about four
	// shards per worker, so a lost shard costs a fraction of a worker's
	// share of the sweep).
	ShardSize int
	// LeaseTTL is how long a lease may go without a heartbeat before it
	// is revoked and its shard re-granted (default 15s).
	LeaseTTL time.Duration
	// Poll is the coordinator's segment/heartbeat polling period
	// (default LeaseTTL/10, at most 200ms).
	Poll time.Duration
	// MaxEpochs bounds lease grants per shard, first grant included,
	// before the coordinator gives up (default 5).
	MaxEpochs int
	// Launch starts workers (required).
	Launch Launcher
	// Log, when non-nil, receives one line per protocol event (grants,
	// commits, revocations, rejected segments).
	Log func(format string, args ...interface{})
}

// Report summarises one coordinated run's protocol activity.
type Report struct {
	// Shards is the number of cell-range shards in the plan.
	Shards int
	// Granted counts lease grants, re-grants after failures included.
	Granted int
	// Revoked counts leases revoked for stale heartbeats (wedged or
	// silently dead workers).
	Revoked int
	// Exited counts workers that exited without committing a valid
	// segment (crashes, chaos kills, cell failures).
	Exited int
	// RestoredShards counts shards already covered by a committed
	// segment when the coordinator started — a restart resuming spool
	// state rather than re-running work.
	RestoredShards int
	// Rejected lists segments the merge fenced out or refused.
	Rejected []RejectedSegment
}

// shardState is one shard's persisted lease state.
type shardState struct {
	Start int   `json:"start"`
	End   int   `json:"end"`
	Epoch int64 `json:"epoch"` // latest granted epoch (0 = never granted)
	Done  bool  `json:"done"`  // a segment for Epoch is committed
}

// coordState is the coordinator's persisted lease table. It is written
// atomically before every lease grant and after every commit, so a
// coordinator crash at any point leaves a spool a restart can resume:
// epochs never regress, which is what makes the fencing sound across
// restarts.
type coordState struct {
	Signature string       `json:"signature"`
	Shards    []shardState `json:"shards"`
}

// Coordinate runs sw to completion across worker processes: it
// partitions the grid into shards, grants them as leases through
// cfg.Launch, re-grants shards whose workers die or wedge, and merges
// the committed segments into a Result whose values are byte-identical
// (Float64bits) to a clean in-process engine.Run. runCfg carries the
// caller's Progress/Limiter for the merge replay; its Checkpoint and
// Shard must be unset — the coordinator owns journaling.
func Coordinate(ctx context.Context, sw *engine.Sweep, runCfg engine.RunConfig, cfg Config) (*engine.Result, *Report, error) {
	if cfg.Spool == "" {
		return nil, nil, errors.New("shard: coordinator needs a spool directory")
	}
	if cfg.Launch == nil {
		return nil, nil, errors.New("shard: coordinator needs a Launcher")
	}
	if runCfg.Checkpoint != nil || runCfg.Shard != nil {
		return nil, nil, errors.New("shard: Coordinate owns journaling; RunConfig.Checkpoint and Shard must be unset")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.LeaseTTL / 10
		if cfg.Poll > 200*time.Millisecond {
			cfg.Poll = 200 * time.Millisecond
		}
	}
	if cfg.MaxEpochs < 1 {
		cfg.MaxEpochs = 5
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	l := newLayout(cfg.Spool)
	if err := l.ensure(); err != nil {
		return nil, nil, err
	}

	st, restored, err := loadOrPlanState(l, sw, cfg)
	if err != nil {
		return nil, nil, err
	}
	report := &Report{Shards: len(st.Shards)}
	persist := func() error {
		err := engine.WriteFileAtomic(l.statePath(sw.ID), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(st)
		})
		if err != nil {
			return fmt.Errorf("shard: persist lease table: %w", err)
		}
		return nil
	}

	// Restart recovery: shards the previous coordinator marked done, plus
	// shards whose latest-epoch segment was committed by a worker that
	// outlived the crash, need no re-running.
	if restored {
		for i := range st.Shards {
			s := &st.Shards[i]
			if !s.Done && s.Epoch > 0 {
				lease := Lease{Sweep: sw.ID, Start: s.Start, End: s.End, Epoch: s.Epoch}
				if _, err := engine.ReadSegment(l.segPath(lease), sw); err == nil {
					s.Done = true
				}
			}
			if s.Done {
				report.RestoredShards++
				logf("shard: restored committed segment for cells [%d,%d) epoch %d", s.Start, s.End, s.Epoch)
			}
		}
	}
	if err := persist(); err != nil {
		return nil, report, err
	}

	type exitEvent struct {
		shard int
		epoch int64
		err   error
	}
	exitCh := make(chan exitEvent, len(st.Shards)+cfg.Workers)
	type activeLease struct {
		lease   Lease
		handle  Handle
		granted time.Time
	}
	actives := map[int]*activeLease{}
	killAll := func() {
		for _, a := range actives {
			a.handle.Kill()
		}
	}

	allDone := func() bool {
		for i := range st.Shards {
			if !st.Shards[i].Done {
				return false
			}
		}
		return true
	}

	// accept checks whether shard i's current lease has committed a
	// valid segment, and marks the shard done if so.
	accept := func(i int) (bool, error) {
		a := actives[i]
		if a == nil {
			return false, nil
		}
		if _, err := engine.ReadSegment(l.segPath(a.lease), sw); err != nil {
			// Missing (not committed yet) or present but invalid: either
			// way not accepted; the worker's exit or lease expiry will
			// re-grant, and the merge would reject an invalid file anyway.
			return false, nil
		}
		st.Shards[i].Done = true
		delete(actives, i)
		logf("shard: committed %s", a.lease)
		return true, persist()
	}

	grant := func(i int) error {
		s := &st.Shards[i]
		if s.Epoch >= int64(cfg.MaxEpochs) {
			return fmt.Errorf("shard: shard [%d,%d) failed after %d lease attempts", s.Start, s.End, s.Epoch)
		}
		s.Epoch++
		// Persist the epoch before the worker exists: a crash between
		// the two re-grants with a higher epoch, and no segment the old
		// epoch could commit is ever current.
		if err := persist(); err != nil {
			return err
		}
		lease := Lease{Sweep: sw.ID, Start: s.Start, End: s.End, Epoch: s.Epoch,
			Worker: fmt.Sprintf("shard%d-e%d", i, s.Epoch)}
		h, err := cfg.Launch.Start(ctx, lease)
		if err != nil {
			return fmt.Errorf("shard: launch worker for %s: %w", lease, err)
		}
		actives[i] = &activeLease{lease: lease, handle: h, granted: time.Now()}
		report.Granted++
		logf("shard: granted %s", lease)
		go func(shard int, epoch int64, h Handle) {
			exitCh <- exitEvent{shard: shard, epoch: epoch, err: h.Wait()}
		}(i, s.Epoch, h)
		return nil
	}

	ticker := time.NewTicker(cfg.Poll)
	defer ticker.Stop()
	for !allDone() {
		// Fill free worker slots with pending shards, in plan order.
		for i := range st.Shards {
			if len(actives) >= cfg.Workers {
				break
			}
			if st.Shards[i].Done || actives[i] != nil {
				continue
			}
			if err := grant(i); err != nil {
				killAll()
				return nil, report, err
			}
		}
		if allDone() {
			break
		}

		select {
		case ev := <-exitCh:
			a := actives[ev.shard]
			if a == nil || a.lease.Epoch != ev.epoch {
				// A revoked (or already-accepted) lease's worker exiting
				// late: the epoch fence makes it irrelevant.
				continue
			}
			ok, err := accept(ev.shard)
			if err != nil {
				killAll()
				return nil, report, err
			}
			if !ok {
				delete(actives, ev.shard)
				report.Exited++
				logf("shard: worker for %s exited without a segment: %v", a.lease, ev.err)
			}
		case <-ticker.C:
			now := time.Now()
			for i, a := range actives {
				ok, err := accept(i)
				if err != nil {
					killAll()
					return nil, report, err
				}
				if ok {
					continue
				}
				beat := lastBeat(l, a.lease)
				if beat.Before(a.granted) {
					beat = a.granted
				}
				if now.Sub(beat) > cfg.LeaseTTL {
					a.handle.Kill()
					delete(actives, i)
					report.Revoked++
					logf("shard: revoked %s: heartbeat stale for %s", a.lease, now.Sub(beat).Round(time.Millisecond))
				}
			}
		case <-ctx.Done():
			killAll()
			return nil, report, fmt.Errorf("shard: coordinator interrupted: %w", context.Cause(ctx))
		}
	}

	expect := make(map[[2]int]int64, len(st.Shards))
	for i := range st.Shards {
		s := &st.Shards[i]
		expect[[2]int{s.Start, s.End}] = s.Epoch
	}
	res, rejected, err := mergeSegments(ctx, sw, runCfg, l, expect)
	report.Rejected = rejected
	for _, r := range rejected {
		logf("shard: merge rejected %s: %s", r.Path, r.Reason)
	}
	return res, report, err
}

// loadOrPlanState loads the persisted lease table for sw from the
// spool, or plans a fresh one. restored reports whether existing state
// was found.
func loadOrPlanState(l layout, sw *engine.Sweep, cfg Config) (*coordState, bool, error) {
	sig := engine.SweepSignature(sw)
	path := l.statePath(sw.ID)
	if data, err := os.ReadFile(path); err == nil {
		var st coordState
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, false, fmt.Errorf("shard: lease table %s: %w", path, err)
		}
		if st.Signature != sig {
			return nil, false, fmt.Errorf("shard: lease table %s belongs to a different sweep configuration", path)
		}
		return &st, true, nil
	} else if !os.IsNotExist(err) {
		return nil, false, err
	}

	cells := engine.CellCount(sw)
	size := cfg.ShardSize
	if size <= 0 {
		size = (cells + 4*cfg.Workers - 1) / (4 * cfg.Workers)
	}
	if size < 1 {
		size = 1
	}
	st := &coordState{Signature: sig}
	for at := 0; at < cells; at += size {
		end := at + size
		if end > cells {
			end = cells
		}
		st.Shards = append(st.Shards, shardState{Start: at, End: end})
	}
	if len(st.Shards) == 0 {
		return nil, false, fmt.Errorf("shard: sweep %s has no cells", sw.ID)
	}
	return st, false, nil
}
