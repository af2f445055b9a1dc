package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wrsn/internal/solver"
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

// ChaosKey places one unit of guarded work in a ChaosConfig's schedule:
// a scope naming the injection site and three coordinates. Sweep cells
// use (sweep ID, point, seed, algorithm); wrsnd requests use
// ("wrsnd:<solver>", the low and high halves of the request's canonical
// key, 0).
type ChaosKey struct {
	Scope   string
	A, B, C int
}

// Guard runs work under the protections every sweep cell and every wrsnd
// solve share:
//
//   - a panic in an attempt is recovered as a *PanicError;
//   - Chaos injects its faults into each attempt, drawn from the work's
//     ChaosKey and the attempt number;
//   - a failed attempt is retried under Retry, after its deterministic
//     backoff;
//   - a failure that unwraps context.DeadlineExceeded is reported as the
//     attempt context's cause ("cell deadline (30s) exceeded") when that
//     cause is a deadline too.
//
// The zero Guard makes one attempt with no chaos and no timeout.
type Guard struct {
	Retry RetryPolicy
	Chaos *ChaosConfig
	// Timeout bounds each attempt (0 = unbounded); its expiry cancels the
	// attempt with TimeoutCause, which should wrap
	// context.DeadlineExceeded.
	Timeout      time.Duration
	TimeoutCause error
	// Hook, when set, observes every attempt that started: its number
	// (1 = first) and its outcome, a recovered panic included.
	Hook func(attempt int, err error)
}

// Run calls work until an attempt succeeds or the stop rule ends it, and
// returns how many attempts started and the terminal error. No further
// attempt starts when
//
//   - ctx is done: Run returns context.Cause(ctx), also when ctx ends
//     during a backoff or the attempt that just failed;
//   - the error unwraps solver.ErrUnsupportedInstance, which no retry can
//     cure;
//   - Retry's attempt budget is spent.
//
// Attempts run under runCtx. The sweep runner passes its work context,
// which outlives ctx by the drain grace so that an attempt in flight can
// still finish; other callers pass ctx twice. The seed jitters the
// backoff, so a rerun of the same work replays the same delays.
func (g *Guard) Run(ctx, runCtx context.Context, key ChaosKey, seed int64,
	work func(ctx context.Context, attempt int) error) (int, error) {
	budget := g.Retry.attempts()
	for attempt := 1; ; attempt++ {
		// An attempt counts once it starts, after its backoff (0 before
		// the first): an interrupted backoff leaves no retry behind.
		if !sleepCtx(ctx, g.Retry.Backoff(attempt-1, seed)) {
			return attempt - 1, context.Cause(ctx)
		}
		err := g.attempt(runCtx, key, attempt, work)
		if g.Hook != nil {
			g.Hook(attempt, err)
		}
		switch {
		case err == nil:
			return attempt, nil
		case ctx.Err() != nil:
			return attempt, context.Cause(ctx)
		case attempt >= budget || errors.Is(err, solver.ErrUnsupportedInstance):
			return attempt, err
		}
	}
}

// attempt runs one panic-isolated, chaos-injected, time-bounded attempt.
func (g *Guard) attempt(ctx context.Context, key ChaosKey, n int,
	work func(ctx context.Context, attempt int) error) (err error) {
	if g.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, g.Timeout, g.TimeoutCause)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(v)
		}
	}()
	if g.Chaos.enabled() {
		err = g.Chaos.inject(ctx, key.Scope, key.A, key.B, key.C, n)
	}
	if err == nil {
		err = work(ctx, n)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); errors.Is(cause, context.DeadlineExceeded) {
			err = cause
		}
	}
	return err
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
