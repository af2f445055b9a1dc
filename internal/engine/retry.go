package engine

import (
	"context"
	"fmt"
	"time"
)

// RetryPolicy re-runs failed cells (solver errors, injected faults,
// recovered panics, per-cell timeouts) before declaring them terminally
// failed. The zero value disables retries: every cell gets exactly one
// attempt.
//
// Backoff is exponential and fully deterministic: the delay before retry
// k is BaseDelay*2^(k-1) capped at MaxDelay, scaled by a jitter factor
// in [0.5, 1.0) derived from the cell's instance seed — never from
// wall-clock randomness — so a rerun of the same sweep replays the same
// delays.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per cell (first run
	// included); values below 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the delay before the first retry (0 = retry
	// immediately).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = uncapped).
	MaxDelay time.Duration
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Attempts returns the effective attempt budget (always >= 1) — the
// exported form external retry loops (the wrsnd planning daemon) drive
// their attempt counters from.
func (p RetryPolicy) Attempts() int { return p.attempts() }

// Backoff returns the deterministic delay before retry number retry
// (1 = first retry) of the cell whose instance seed is seed.
func (p RetryPolicy) Backoff(retry int, seed int64) time.Duration {
	if p.BaseDelay <= 0 || retry < 1 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < retry; i++ {
		next := d * 2
		if next < d { // overflow
			d = p.MaxDelay
			break
		}
		d = next
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Jitter in [0.5, 1.0), derived from (seed, retry) so reruns are
	// reproducible and concurrent cells don't retry in lockstep.
	h := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(retry))
	frac := 0.5 + float64(float64(h>>11)/float64(1<<54))
	return time.Duration(float64(d) * frac)
}

// splitmix64 is the SplitMix64 finaliser: a cheap, platform-stable
// integer mixer behind deterministic jitter and chaos draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sleepCtx sleeps for d unless ctx is cancelled first; it reports
// whether the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// CellError is one cell's terminal failure: the cell's grid coordinates,
// how many attempts were spent, and — when the failure was a recovered
// solver panic — the panic value's message and stack trace. It unwraps
// to the last attempt's error, so errors.Is sees context.DeadlineExceeded
// for timed-out cells and ErrChaos for injected faults.
type CellError struct {
	Sweep       string
	Point, Seed int
	X           float64
	Algorithm   string
	// Attempts is how many attempts ran before the cell was declared
	// terminally failed.
	Attempts int
	// Panicked marks a recovered panic; Stack holds its stack trace.
	Panicked bool
	Stack    string
	// Err is the last attempt's error (for panics, "panic: <value>").
	Err error
}

func (e *CellError) Error() string {
	kind := "failed"
	if e.Panicked {
		kind = "panicked"
	}
	return fmt.Sprintf("engine: %s: %s at point %d (x=%v) seed %d %s after %d attempt(s): %v",
		e.Sweep, e.Algorithm, e.Point, e.X, e.Seed, kind, e.Attempts, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }
