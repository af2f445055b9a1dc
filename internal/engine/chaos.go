package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// ErrChaos marks an error injected by a ChaosConfig.
var ErrChaos = errors.New("chaos: injected error")

// ChaosConfig injects deterministic faults into the attempts a Guard
// runs (sweep cells and wrsnd solves) — a test and bench harness for the
// fault tolerance itself, never for production work. Each (ChaosKey,
// attempt) draws independent uniforms from a platform-stable hash of
// (Seed, key scope, the key's three coordinates, attempt), so a given
// configuration always injects the same faults into the same attempts,
// at any worker count: chaos runs are as reproducible as clean ones.
//
// Because the draw includes the attempt number, work that panics on its
// first attempt usually succeeds on a retry — which is exactly what the
// retry machinery is supposed to deliver, and what the chaos test suite
// asserts.
type ChaosConfig struct {
	// Seed decorrelates chaos schedules between configurations.
	Seed int64
	// PanicFrac is the fraction of attempts that panic.
	PanicFrac float64
	// ErrorFrac is the fraction of attempts that return ErrChaos.
	ErrorFrac float64
	// LatencyFrac is the fraction of attempts delayed by Latency before
	// the algorithm runs.
	LatencyFrac float64
	Latency     time.Duration

	// Worker-level faults for the sharded sweep engine (internal/shard),
	// drawn once per (shard range, epoch) so a re-granted lease draws a
	// fresh fate — reassignment absorbs faults exactly like retries
	// absorb cell faults.

	// WorkerKillFrac is the fraction of shard lease executions that die
	// mid-shard without committing a segment (a simulated SIGKILL).
	WorkerKillFrac float64
	// WorkerWedgeFrac is the fraction of shard lease executions that
	// wedge mid-shard: stop heartbeating and hang until revoked.
	WorkerWedgeFrac float64
	// HeartbeatDelayFrac is the fraction of shard lease executions whose
	// every heartbeat is delayed by HeartbeatDelay.
	HeartbeatDelayFrac float64
	HeartbeatDelay     time.Duration
}

// enabled reports whether any cell-attempt fault kind is configured.
func (c *ChaosConfig) enabled() bool {
	return c != nil && (c.PanicFrac > 0 || c.ErrorFrac > 0 || (c.LatencyFrac > 0 && c.Latency > 0))
}

// WorkerFault is the fate drawn for one shard lease execution.
type WorkerFault struct {
	// Kill aborts the worker mid-shard without committing its segment.
	Kill bool
	// Wedge stops the worker's heartbeats mid-shard and hangs it until
	// the lease is revoked. Kill and Wedge are mutually exclusive.
	Wedge bool
	// HeartbeatDelay delays every heartbeat write by this much.
	HeartbeatDelay time.Duration
}

// WorkerFaults draws the deterministic fate of one shard lease
// execution, keyed by (sweep, cell range, epoch): the same lease grant
// always draws the same fault, at any scheduling, and a re-grant
// (higher epoch) draws independently.
func (c *ChaosConfig) WorkerFaults(sweep string, start, end int, epoch int64) WorkerFault {
	if c == nil {
		return WorkerFault{}
	}
	var f WorkerFault
	if c.WorkerKillFrac > 0 && c.uniform(4, sweep, start, end, 0, int(epoch)) < c.WorkerKillFrac {
		f.Kill = true
	}
	if !f.Kill && c.WorkerWedgeFrac > 0 && c.uniform(5, sweep, start, end, 0, int(epoch)) < c.WorkerWedgeFrac {
		f.Wedge = true
	}
	if c.HeartbeatDelayFrac > 0 && c.HeartbeatDelay > 0 &&
		c.uniform(6, sweep, start, end, 0, int(epoch)) < c.HeartbeatDelayFrac {
		f.HeartbeatDelay = c.HeartbeatDelay
	}
	return f
}

// uniform draws the deterministic uniform in [0, 1) for one
// (salt, cell, attempt) coordinate.
func (c *ChaosConfig) uniform(salt uint64, sweep string, pi, si, ai, attempt int) float64 {
	h := fnv.New64a()
	h.Write([]byte(sweep))
	x := h.Sum64() ^ uint64(c.Seed)
	for _, v := range [...]uint64{salt, uint64(pi), uint64(si), uint64(ai), uint64(attempt)} {
		x = splitmix64(x ^ v)
	}
	return float64(x>>11) / float64(1<<53)
}

// inject runs the configured faults for one guarded attempt: an optional
// latency stall, then a panic or an injected error. It returns nil when
// this attempt is left alone.
func (c *ChaosConfig) inject(ctx context.Context, sweep string, pi, si, ai, attempt int) error {
	if c.LatencyFrac > 0 && c.Latency > 0 && c.uniform(1, sweep, pi, si, ai, attempt) < c.LatencyFrac {
		if !sleepCtx(ctx, c.Latency) {
			return context.Cause(ctx)
		}
	}
	if c.PanicFrac > 0 && c.uniform(2, sweep, pi, si, ai, attempt) < c.PanicFrac {
		panic(fmt.Sprintf("chaos: injected panic at %s point %d seed %d algorithm %d attempt %d",
			sweep, pi, si, ai, attempt))
	}
	if c.ErrorFrac > 0 && c.uniform(3, sweep, pi, si, ai, attempt) < c.ErrorFrac {
		return fmt.Errorf("%w at %s point %d seed %d algorithm %d attempt %d",
			ErrChaos, sweep, pi, si, ai, attempt)
	}
	return nil
}
