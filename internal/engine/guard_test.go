package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wrsn/internal/solver"
)

// oneCellSweep is valueSweep cut down to a single (point, seed) cell.
func oneCellSweep(run func(ctx context.Context, inst *Instance) (CellResult, error)) *Sweep {
	sw := valueSweep(run)
	sw.Points = sw.Points[:1]
	sw.Seeds = 1
	return sw
}

// TestGuardStopRule pins the stop rule for sweep cells: a structurally
// unsupported cell stops after one attempt instead of burning its
// budget, while a cell that exceeds CellTimeout is still retried.
func TestGuardStopRule(t *testing.T) {
	t.Run("unsupported-cell-runs-once", func(t *testing.T) {
		var calls atomic.Int64
		sw := oneCellSweep(func(context.Context, *Instance) (CellResult, error) {
			calls.Add(1)
			return CellResult{}, fmt.Errorf("cell: %w", solver.ErrUnsupportedInstance)
		})
		res, err := Run(context.Background(), sw, RunConfig{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3}})
		var ce *CellError
		if !errors.As(err, &ce) || !errors.Is(err, solver.ErrUnsupportedInstance) {
			t.Fatalf("want a CellError unwrapping ErrUnsupportedInstance, got %v", err)
		}
		if ce.Attempts != 1 || calls.Load() != 1 || res.Retries != 0 {
			t.Errorf("attempts %d, calls %d, retries %d; want 1, 1, 0", ce.Attempts, calls.Load(), res.Retries)
		}
	})
	t.Run("cell-timeout-is-retried", func(t *testing.T) {
		var calls atomic.Int64
		sw := oneCellSweep(func(ctx context.Context, inst *Instance) (CellResult, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done()
				return CellResult{}, ctx.Err()
			}
			return CellResult{Values: []float64{cellValue(inst)}}, nil
		})
		res, err := Run(context.Background(), sw, RunConfig{
			Workers: 1, CellTimeout: 20 * time.Millisecond, Retry: RetryPolicy{MaxAttempts: 2},
		})
		if err != nil {
			t.Fatalf("the retry should have recovered the timed-out cell: %v", err)
		}
		if calls.Load() != 2 || res.Retries != 1 {
			t.Errorf("calls %d, retries %d; want 2, 1", calls.Load(), res.Retries)
		}
	})
}

// TestRetryCountedWhenAttemptStarts: a retry is counted once its attempt
// starts, not before the backoff sleep, so an interrupt during the first
// backoff leaves Result.Retries (and the guard's hook) at no retry.
func TestRetryCountedWhenAttemptStarts(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second}
	t.Run("sweep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		sw := oneCellSweep(func(context.Context, *Instance) (CellResult, error) {
			calls.Add(1)
			time.AfterFunc(20*time.Millisecond, cancel)
			return CellResult{}, errors.New("transient fault")
		})
		start := time.Now()
		res, err := Run(ctx, sw, RunConfig{Workers: 1, Retry: policy})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if calls.Load() != 1 || res.Retries != 0 {
			t.Errorf("calls %d, Retries %d; want 1, 0", calls.Load(), res.Retries)
		}
		if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
			t.Errorf("cancelled backoff took %v", elapsed)
		}
	})
	t.Run("guard", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var hooked int
		g := Guard{Retry: policy, Hook: func(int, error) { hooked++ }}
		n, err := g.Run(ctx, ctx, ChaosKey{}, 1, func(context.Context, int) error {
			time.AfterFunc(20*time.Millisecond, cancel)
			return errors.New("transient fault")
		})
		if n != 1 || hooked != 1 || !errors.Is(err, context.Canceled) {
			t.Errorf("attempts %d, hook calls %d, err %v; want 1, 1, context.Canceled", n, hooked, err)
		}
	})
}

// TestGuardPanicError: a recovered panic prints as "panic: <value>",
// the string both callers reported before they shared the guard, and
// keeps the stack of the panicking code.
func TestGuardPanicError(t *testing.T) {
	var g Guard
	ctx := context.Background()
	n, err := g.Run(ctx, ctx, ChaosKey{}, 1, func(context.Context, int) error { panic("boom") })
	var pe *PanicError
	if n != 1 || !errors.As(err, &pe) || err.Error() != "panic: boom" {
		t.Fatalf("attempts %d, err %v; want 1 and a PanicError printing \"panic: boom\"", n, err)
	}
	if !strings.Contains(pe.Stack, "guard_test.go") {
		t.Errorf("stack does not reach the panic site:\n%s", pe.Stack)
	}
}

// TestGuardAllocs: the path with no retry, no chaos and no timeout adds
// no allocation per cell or per request.
func TestGuardAllocs(t *testing.T) {
	ctx := context.Background()
	var attempts int
	g := Guard{Hook: func(n int, _ error) { attempts = n }}
	key := ChaosKey{Scope: "test-sweep", A: 1, B: 2, C: 3}
	work := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.Run(ctx, ctx, key, 7, func(context.Context, int) error {
			work++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || attempts != 1 || work == 0 {
		t.Fatalf("allocs/op %v, last attempt %d; want 0 allocations and one attempt", allocs, attempts)
	}
}

// BenchmarkGuard prices one guarded call on the path every exact-small
// cell and every wrsnd miss takes: one attempt, no chaos, no timeout.
func BenchmarkGuard(b *testing.B) {
	ctx := context.Background()
	g := Guard{Hook: func(int, error) {}}
	key := ChaosKey{Scope: "bench", A: 1, B: 2, C: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Run(ctx, ctx, key, int64(i), func(context.Context, int) error { return nil })
	}
}
