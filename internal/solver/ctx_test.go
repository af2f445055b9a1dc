package solver

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"wrsn/internal/model"
)

// cancelMidRun starts solve on a background goroutine, cancels its
// context shortly after, and asserts the solver unwinds with
// context.Canceled well within the given deadline.
func cancelMidRun(t *testing.T, name string, deadline time.Duration, solve func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- solve(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	case <-time.After(deadline):
		t.Fatalf("%s: did not stop within %v of cancellation", name, deadline)
	}
}

// TestOptimalCtxCancelsMidSearch aborts the branch-and-bound mid-run:
// the instances are big enough that the full search takes far longer
// than the cancellation window.
func TestOptimalCtxCancelsMidSearch(t *testing.T) {
	p := randomProblem(t, 501, 200, 12, 44)
	cancelMidRun(t, "Optimal", 10*time.Second, func(ctx context.Context) error {
		_, err := Optimal(ctx, p, OptimalOptions{})
		return err
	})

	// Seeded with the optimum itself (recorded from a full run), the
	// search only has to prove it: six in seven bound probes are pruned,
	// half of all probes by the parent's floor before any move is
	// applied. Those rejections pass through the same probe counter as
	// evaluated probes, so cancellation still lands on the
	// ctxCheckStride cadence.
	t.Run("optimal incumbent", func(t *testing.T) {
		p := randomProblem(t, 56, 200, 12, 36)
		best := model.Deployment{2, 2, 4, 2, 5, 3, 7, 2, 1, 2, 2, 4}
		tree, cost, err := model.BestTreeFor(p, best)
		if err != nil {
			t.Fatal(err)
		}
		incumbent := &Result{Solution: model.Solution{Deploy: best, Tree: tree, Cost: cost}}
		cancelMidRun(t, "Optimal", 10*time.Second, func(ctx context.Context) error {
			_, err := Optimal(ctx, p, OptimalOptions{Incumbent: incumbent})
			return err
		})
	})
}

// TestIDBCtxCancelsMidRun aborts IDB's incremental rounds mid-run. The
// instance must run far longer than the cancellation sleep even on a
// loaded machine, so it is sized well past the paper scale.
func TestIDBCtxCancelsMidRun(t *testing.T) {
	p := randomProblem(t, 502, 400, 120, 3000)
	cancelMidRun(t, "IDB", 10*time.Second, func(ctx context.Context) error {
		_, err := IDB(ctx, p, IDBOptions{Delta: 1})
		return err
	})
}

// TestRFHCtxCancelsBetweenRounds: RFH checks its context at every round
// boundary (a whole round is fast, so mid-run interception is flaky to
// stage; a pre-cancelled context exercises the same check).
func TestRFHCtxCancelsBetweenRounds(t *testing.T) {
	p := randomProblem(t, 504, 200, 8, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RFH(ctx, p, RFHOptions{Iterations: 50}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RFH: want context.Canceled, got %v", err)
	}
}

// TestDeadlineExceededPropagates: an exceeded per-call timeout surfaces
// as context.DeadlineExceeded. The deadline is allowed to expire before
// the call so the test does not depend on how fast the solver clears a
// particular instance.
func TestDeadlineExceededPropagates(t *testing.T) {
	p := randomProblem(t, 506, 400, 60, 420)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, err := IDB(ctx, p, IDBOptions{Delta: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestOptimalRelayPrunedStreakHonoursLimits seeds the search with the
// optimum itself, so most nodes below the root are rejected by the
// relay bound before any move is applied. Those rejections pass through
// the probe counter like every other probe: a cancelled context stops
// the search on the ctxCheckStride cadence, inside the relay-pruned
// streak, and an evaluation budget that the search exhausts before its
// tail of relay-pruned nodes stops it there.
func TestOptimalRelayPrunedStreakHonoursLimits(t *testing.T) {
	p := randomProblem(t, 57, 200, 10, 30)
	seed, err := Optimal(context.Background(), p, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := OptimalOptions{Incumbent: seed}

	// answered counts the probes the evaluator answered: the root's full
	// evaluation, relay and floor rejections, and bounded probes.
	answered := func(tr optimalTrace) int64 {
		st := tr.stats
		return st.FullEvals + st.RelayPrunes + st.FloorPrunes + st.Probes
	}
	// traced returns ctx carrying tr for the search to fill.
	traced := func(ctx context.Context, tr *optimalTrace) context.Context {
		return context.WithValue(ctx, optimalTraceKey{}, tr)
	}
	var full optimalTrace
	res, err := Optimal(traced(context.Background(), &full), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if answered(full) != full.probes {
		t.Fatalf("evaluator answered %d probes of %d", answered(full), full.probes)
	}
	if !slices.Equal(res.Deploy, seed.Deploy) {
		t.Fatalf("search from the optimum returned %v, want %v", res.Deploy, seed.Deploy)
	}
	if 2*full.stats.RelayPrunes < full.probes {
		t.Fatalf("relay bound rejected %d of %d probes, want most", full.stats.RelayPrunes, full.probes)
	}
	t.Logf("full search: %d probes, %d relay prunes, %d floor prunes, %d evaluations",
		full.probes, full.stats.RelayPrunes, full.stats.FloorPrunes, res.Evaluations)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cut optimalTrace
	if _, err := Optimal(traced(ctx, &cut), p, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: want context.Canceled, got %v", err)
	}
	// The probe that saw the cancellation is the only one unanswered.
	if cut.probes != ctxCheckStride || answered(cut) != cut.probes-1 {
		t.Errorf("cancelled search stopped after %d probes (%d answered), want %d (%d)",
			cut.probes, answered(cut), ctxCheckStride, ctxCheckStride-1)
	}
	if 2*cut.stats.RelayPrunes < cut.probes {
		t.Errorf("cancelled search: %d of %d probes relay-pruned, want most", cut.stats.RelayPrunes, cut.probes)
	}

	opts.MaxEvaluations = res.Evaluations
	var budget optimalTrace
	if _, err := Optimal(traced(context.Background(), &budget), p, opts); !errors.Is(err, ErrSearchBudget) {
		t.Fatalf("budgeted search: want ErrSearchBudget, got %v", err)
	}
	if budget.stats.RelayPrunes >= full.stats.RelayPrunes {
		t.Errorf("budgeted search ran all %d relay prunes; the budget should stop the relay-pruned tail", budget.stats.RelayPrunes)
	}
}
