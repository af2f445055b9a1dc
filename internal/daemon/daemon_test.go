package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
	"wrsn/internal/solver"
)

// The test-hook solver delegates to a per-test function, so tests can
// script solver behaviour (blocking, failing, counting invocations)
// through the daemon's real registry path.
var (
	hookMu sync.Mutex
	hookFn engine.SolveFunc
)

func init() {
	engine.Register("test-hook", []string{model.KindDeployment}, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		hookMu.Lock()
		fn := hookFn
		hookMu.Unlock()
		if fn == nil {
			return nil, errors.New("test-hook: no hook installed")
		}
		return fn(ctx, inst)
	})
}

func setHook(t *testing.T, fn engine.SolveFunc) {
	t.Helper()
	hookMu.Lock()
	hookFn = fn
	hookMu.Unlock()
	t.Cleanup(func() {
		hookMu.Lock()
		hookFn = nil
		hookMu.Unlock()
	})
}

// fakeResult fabricates a deployment result the hook can return.
func fakeResult(cost float64) *solver.Result {
	res := &solver.Result{Evaluations: 7}
	res.Deploy = model.Deployment{1, 0, 2}
	res.Tree = model.Tree{Parent: []int{-1, 0, 0}, Level: []int{0, 1, 1}}
	res.Cost = cost
	return res
}

func deployProblem(t *testing.T, seed int64) *model.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := model.GenerateProblem(rng, model.GenSpec{
		Field: geom.Field{Width: 200, Height: 200},
		Posts: 6,
		Nodes: 10,
	})
	if err != nil {
		t.Fatalf("generate problem: %v", err)
	}
	return p
}

func placeInstance(t *testing.T, seed int64) *placement.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst, err := placement.Generate(rng, placement.GenSpec{
		Field:      geom.Field{Width: 100, Height: 100},
		Posts:      5,
		Sites:      placement.DefaultSiteSpec(),
		DemandMean: 1.5,
	})
	if err != nil {
		t.Fatalf("generate placement: %v", err)
	}
	return inst
}

// startDaemon serves cfg on a loopback listener and returns the server
// and its base URL. Cleanup drains (unless the test already did) and
// requires Serve to return nil.
func startDaemon(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	t.Cleanup(func() {
		if !s.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	})
	return s, "http://" + l.Addr().String()
}

func planBody(t *testing.T, solverName string, p *model.Problem, pl *placement.Instance, deadlineMS int64) []byte {
	t.Helper()
	b, err := json.Marshal(PlanRequest{Solver: solverName, Problem: p, Placement: pl, DeadlineMS: deadlineMS})
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return b
}

func postPlan(t *testing.T, client *http.Client, base string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, data
}

func decodePlanResponse(t *testing.T, data []byte) PlanResponse {
	t.Helper()
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decode response %q: %v", data, err)
	}
	return pr
}

func errorClass(t *testing.T, data []byte) string {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("decode error body %q: %v", data, err)
	}
	return eb.Error.Class
}

func getStats(t *testing.T, client *http.Client, base string) Stats {
	t.Helper()
	resp, err := client.Get(base + "/statz")
	if err != nil {
		t.Fatalf("GET /statz: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statz: %v", err)
	}
	return st
}

func TestPlanCacheHitByteIdentical(t *testing.T) {
	_, base := startDaemon(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	body := planBody(t, "rfh", deployProblem(t, 1), nil, 0)
	code, data := postPlan(t, client, base, body)
	if code != http.StatusOK {
		t.Fatalf("first solve: status %d, body %s", code, data)
	}
	first := decodePlanResponse(t, data)
	if first.Cache != "miss" {
		t.Fatalf("first solve: cache %q, want miss", first.Cache)
	}
	if first.Kind != model.KindDeployment || first.Solver != "rfh" {
		t.Fatalf("response labels: kind %q solver %q", first.Kind, first.Solver)
	}
	var plan Plan
	if err := json.Unmarshal(first.Plan, &plan); err != nil {
		t.Fatalf("decode plan: %v", err)
	}
	if len(plan.Vector) == 0 || plan.Tree == nil || plan.Evaluations <= 0 {
		t.Fatalf("implausible plan: %+v", plan)
	}

	code, data = postPlan(t, client, base, body)
	if code != http.StatusOK {
		t.Fatalf("repeat solve: status %d, body %s", code, data)
	}
	second := decodePlanResponse(t, data)
	if second.Cache != "hit" {
		t.Fatalf("repeat solve: cache %q, want hit", second.Cache)
	}
	if !bytes.Equal(first.Plan, second.Plan) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", first.Plan, second.Plan)
	}
	if second.Key != first.Key {
		t.Fatalf("key changed between identical requests: %s vs %s", first.Key, second.Key)
	}

	// A different solver on the same problem is a different cache line.
	code, data = postPlan(t, client, base, planBody(t, "idb", deployProblem(t, 1), nil, 0))
	if code != http.StatusOK {
		t.Fatalf("idb solve: status %d, body %s", code, data)
	}
	if third := decodePlanResponse(t, data); third.Cache != "miss" || third.Key == first.Key {
		t.Fatalf("solver name not part of the cache key: cache %q key %s", third.Cache, third.Key)
	}
}

func TestPlanPlacementKind(t *testing.T) {
	_, base := startDaemon(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, data := postPlan(t, client, base, planBody(t, "greedy", nil, placeInstance(t, 3), 0))
	if code != http.StatusOK {
		t.Fatalf("greedy placement: status %d, body %s", code, data)
	}
	pr := decodePlanResponse(t, data)
	if pr.Kind != model.KindPlacement {
		t.Fatalf("kind %q, want placement", pr.Kind)
	}
	var plan Plan
	if err := json.Unmarshal(pr.Plan, &plan); err != nil {
		t.Fatalf("decode plan: %v", err)
	}
	if plan.Tree != nil {
		t.Fatalf("placement plan carries a routing tree")
	}
	if len(plan.Vector) == 0 {
		t.Fatalf("placement plan has no vector")
	}
}

func TestPlanRequestRejections(t *testing.T) {
	_, base := startDaemon(t, Config{MaxBodyBytes: 4 << 10})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	p := deployProblem(t, 1)
	pl := placeInstance(t, 1)
	cases := []struct {
		name   string
		body   []byte
		status int
		class  string
	}{
		{"truncated-json", []byte(`{"solver":"rfh","problem":`), http.StatusBadRequest, ClassMalformed},
		{"no-problem", planBody(t, "rfh", nil, nil, 0), http.StatusBadRequest, ClassMalformed},
		{"both-problems", planBody(t, "rfh", p, pl, 0), http.StatusBadRequest, ClassMalformed},
		{"unknown-solver", planBody(t, "nope", p, nil, 0), http.StatusBadRequest, ClassUnsupported},
		{"kind-mismatch", planBody(t, "optimal", nil, pl, 0), http.StatusBadRequest, ClassUnsupported},
		{"oversized", append([]byte(`{"pad":"`), append(bytes.Repeat([]byte("x"), 8<<10), []byte(`"}`)...)...), http.StatusRequestEntityTooLarge, ClassTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, data := postPlan(t, client, base, c.body)
			if code != c.status {
				t.Fatalf("status %d, want %d (body %s)", code, c.status, data)
			}
			if got := errorClass(t, data); got != c.class {
				t.Fatalf("class %q, want %q", got, c.class)
			}
		})
	}
	// Oversized bodies land in their own counter, not malformed, so
	// /statz can tell the two fault classes apart.
	if st := getStats(t, client, base); st.TooLarge != 1 || st.Malformed != 3 {
		t.Fatalf("statz too_large=%d malformed=%d, want 1 and 3", st.TooLarge, st.Malformed)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	setHook(t, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return fakeResult(1), nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	})
	s, base := startDaemon(t, Config{MaxInFlight: 1, MaxQueue: 1})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Distinct problems so neither coalesces onto the other's cache line.
	bodyA := planBody(t, "test-hook", deployProblem(t, 10), nil, 0)
	bodyB := planBody(t, "test-hook", deployProblem(t, 11), nil, 0)
	bodyC := planBody(t, "test-hook", deployProblem(t, 12), nil, 0)

	type result struct {
		code int
		data []byte
	}
	results := make(chan result, 2)
	do := func(body []byte) {
		code, data := postPlan(t, client, base, body)
		results <- result{code, data}
	}

	go do(bodyA)
	<-started // A holds the only solve slot

	go do(bodyB) // B waits in the queue
	waitFor(t, "request queued", func() bool { return s.stats.queued.Load() == 1 })

	// C finds the queue full and is shed immediately.
	resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(bodyC))
	if err != nil {
		t.Fatalf("POST C: %v", err)
	}
	dataC, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, body %s", resp.StatusCode, dataC)
	}
	if got := errorClass(t, dataC); got != ClassOverloaded {
		t.Fatalf("shed class %q, want %q", got, ClassOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response has no Retry-After")
	}

	// Readiness reflects saturation while the queue is full...
	ready, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	io.Copy(io.Discard, ready.Body)
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while saturated: %d, want 503", ready.StatusCode)
	}

	// ...then A and B complete once the gate opens.
	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("gated request: status %d, body %s", r.code, r.data)
		}
	}
	if st := getStats(t, client, base); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	var failing atomic.Bool
	var calls atomic.Int64
	setHook(t, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		calls.Add(1)
		if failing.Load() {
			return nil, errors.New("wedged")
		}
		return fakeResult(2), nil
	})

	clock := struct {
		sync.Mutex
		t time.Time
	}{t: time.Unix(5000, 0)}
	now := func() time.Time { clock.Lock(); defer clock.Unlock(); return clock.t }
	advance := func(d time.Duration) { clock.Lock(); clock.t = clock.t.Add(d); clock.Unlock() }

	_, base := startDaemon(t, Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		now:     now,
	})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Two consecutive failures trip the breaker. Distinct problems, so
	// the second isn't a cache hit (failures are never cached anyway).
	failing.Store(true)
	for i := int64(0); i < 2; i++ {
		code, data := postPlan(t, client, base, planBody(t, "test-hook", deployProblem(t, 20+i), nil, 0))
		if code != http.StatusInternalServerError || errorClass(t, data) != ClassSolverError {
			t.Fatalf("failure %d: status %d class %s", i, code, data)
		}
	}

	// Open: requests shed in O(1) without reaching the solver.
	before := calls.Load()
	code, data := postPlan(t, client, base, planBody(t, "test-hook", deployProblem(t, 22), nil, 0))
	if code != http.StatusServiceUnavailable || errorClass(t, data) != ClassBreakerOpen {
		t.Fatalf("open breaker: status %d body %s", code, data)
	}
	if calls.Load() != before {
		t.Fatalf("open breaker still invoked the solver")
	}

	// After the cooldown the solver has recovered; the half-open probe
	// succeeds and the circuit closes.
	failing.Store(false)
	advance(61 * time.Second)
	code, data = postPlan(t, client, base, planBody(t, "test-hook", deployProblem(t, 23), nil, 0))
	if code != http.StatusOK {
		t.Fatalf("half-open probe: status %d body %s", code, data)
	}
	code, data = postPlan(t, client, base, planBody(t, "test-hook", deployProblem(t, 24), nil, 0))
	if code != http.StatusOK {
		t.Fatalf("post-recovery request: status %d body %s", code, data)
	}
	if st := getStats(t, client, base); st.BreakerTrips != 1 || st.BreakerRejects != 1 {
		t.Fatalf("breaker stats: trips %d rejects %d, want 1 and 1", st.BreakerTrips, st.BreakerRejects)
	}
}

// TestBreakerProbeCanceled pins the verdict-free probe exit: when the
// half-open probe's client disconnects mid-solve (context.Canceled is
// not a solver fault, so neither success nor failure is recorded), the
// breaker must revert to open and admit a fresh probe after the next
// cooldown instead of wedging half-open and rejecting forever.
func TestBreakerProbeCanceled(t *testing.T) {
	const (
		modeFail = iota
		modeBlock
		modeOK
	)
	var mode atomic.Int64
	started := make(chan struct{}, 1)
	setHook(t, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		switch mode.Load() {
		case modeFail:
			return nil, errors.New("wedged")
		case modeBlock:
			started <- struct{}{}
			<-ctx.Done()
			return nil, context.Cause(ctx)
		default:
			return fakeResult(3), nil
		}
	})

	clock := struct {
		sync.Mutex
		t time.Time
	}{t: time.Unix(6000, 0)}
	now := func() time.Time { clock.Lock(); defer clock.Unlock(); return clock.t }
	advance := func(d time.Duration) { clock.Lock(); clock.t = clock.t.Add(d); clock.Unlock() }

	s, base := startDaemon(t, Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		now:     now,
	})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Trip the breaker.
	mode.Store(modeFail)
	for i := int64(0); i < 2; i++ {
		code, data := postPlan(t, client, base, planBody(t, "test-hook", deployProblem(t, 40+i), nil, 0))
		if code != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d body %s", i, code, data)
		}
	}

	// Cooldown elapses; the probe is admitted but its client disconnects
	// mid-solve, so the solve ends with context.Canceled and no verdict.
	mode.Store(modeBlock)
	advance(61 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/plan",
		bytes.NewReader(planBody(t, "test-hook", deployProblem(t, 42), nil, 0)))
	if err != nil {
		t.Fatalf("building probe request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	probeDone := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		probeDone <- err
	}()
	<-started // the probe solve is in flight
	cancel()
	if err := <-probeDone; err == nil {
		t.Fatalf("canceled probe request unexpectedly completed")
	}
	waitFor(t, "probe reverted to open", func() bool {
		state, _ := s.breaker("test-hook").snapshot()
		return state == breakerOpen
	})

	// Reverted to open: still shedding inside the fresh cooldown...
	code, data := postPlan(t, client, base, planBody(t, "test-hook", deployProblem(t, 43), nil, 0))
	if code != http.StatusServiceUnavailable || errorClass(t, data) != ClassBreakerOpen {
		t.Fatalf("post-revert request: status %d body %s, want 503 breaker_open", code, data)
	}
	// ...and after it elapses a new probe is admitted and can close the
	// circuit. Under the stuck-half-open bug this rejected forever.
	mode.Store(modeOK)
	advance(61 * time.Second)
	code, data = postPlan(t, client, base, planBody(t, "test-hook", deployProblem(t, 44), nil, 0))
	if code != http.StatusOK {
		t.Fatalf("replacement probe: status %d body %s", code, data)
	}
	if state, _ := s.breaker("test-hook").snapshot(); state != breakerClosed {
		t.Fatalf("breaker state after recovered probe: %s", state)
	}
}

// TestRunSolveExpiredContext drives the daemon's guard as a cache miss
// does: a retrying solve handed an already-expired (or expiring) context
// fails fast with the context.WithTimeoutCause cause instead of burning
// its attempt budget on a dead clock, and the guard's hook counts every
// retry that started and every panic a later attempt absorbed.
func TestRunSolveExpiredContext(t *testing.T) {
	s, err := NewServer(Config{Retry: engine.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	inst := deployProblem(t, 1)
	transient := errors.New("transient fault")

	cases := []struct {
		name string
		ctx  func(t *testing.T) context.Context
		fn   func(calls *atomic.Int64) engine.SolveFunc
		// wantCalls is the number of solver invocations; wantRetries and
		// wantPanics the retries and recovered panics the hook counted.
		wantCalls   int64
		wantRetries int64
		wantPanics  int64
		check       func(t *testing.T, err error)
	}{
		{
			name: "expired-before-first-attempt",
			ctx: func(t *testing.T) context.Context {
				cause := fmt.Errorf("wrsnd: request deadline (1ns) exceeded: %w", context.DeadlineExceeded)
				ctx, cancel := context.WithTimeoutCause(context.Background(), time.Nanosecond, cause)
				t.Cleanup(cancel)
				<-ctx.Done()
				return ctx
			},
			fn: func(calls *atomic.Int64) engine.SolveFunc {
				return func(context.Context, model.Instance) (*solver.Result, error) {
					calls.Add(1)
					return fakeResult(1), nil
				}
			},
			wantCalls:   0,
			wantRetries: 0,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("error %v does not unwrap DeadlineExceeded", err)
				}
				if !strings.Contains(err.Error(), "request deadline") {
					t.Fatalf("error %q lost the WithTimeoutCause cause", err)
				}
			},
		},
		{
			name: "canceled-before-first-attempt",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithCancelCause(context.Background())
				cancel(fmt.Errorf("client went away: %w", context.Canceled))
				return ctx
			},
			fn: func(calls *atomic.Int64) engine.SolveFunc {
				return func(context.Context, model.Instance) (*solver.Result, error) {
					calls.Add(1)
					return fakeResult(1), nil
				}
			},
			wantCalls:   0,
			wantRetries: 0,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "client went away") {
					t.Fatalf("error %v lost the cancellation cause", err)
				}
			},
		},
		{
			name: "expires-during-attempt",
			ctx: func(t *testing.T) context.Context {
				cause := fmt.Errorf("wrsnd: request deadline (20ms) exceeded: %w", context.DeadlineExceeded)
				ctx, cancel := context.WithTimeoutCause(context.Background(), 20*time.Millisecond, cause)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(calls *atomic.Int64) engine.SolveFunc {
				return func(ctx context.Context, _ model.Instance) (*solver.Result, error) {
					calls.Add(1)
					<-ctx.Done()
					return nil, ctx.Err()
				}
			},
			wantCalls:   1,
			wantRetries: 0,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "request deadline") {
					t.Fatalf("mid-attempt expiry surfaced %v, want the deadline cause", err)
				}
			},
		},
		{
			name: "transient-then-success",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(calls *atomic.Int64) engine.SolveFunc {
				return func(context.Context, model.Instance) (*solver.Result, error) {
					if calls.Add(1) == 1 {
						return nil, transient
					}
					return fakeResult(1), nil
				}
			},
			wantCalls:   2,
			wantRetries: 1,
			check: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("unexpected error %v", err)
				}
			},
		},
		{
			name: "budget-exhausted",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(calls *atomic.Int64) engine.SolveFunc {
				return func(context.Context, model.Instance) (*solver.Result, error) {
					calls.Add(1)
					return nil, transient
				}
			},
			wantCalls:   3, // == MaxAttempts
			wantRetries: 2,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, transient) {
					t.Fatalf("exhausted budget surfaced %v, want the last attempt error", err)
				}
			},
		},
		{
			name: "panic-absorbed-by-retry",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(calls *atomic.Int64) engine.SolveFunc {
				return func(context.Context, model.Instance) (*solver.Result, error) {
					if calls.Add(1) == 1 {
						panic("solver bug on the first attempt")
					}
					return fakeResult(1), nil
				}
			},
			wantCalls:   2,
			wantRetries: 1,
			wantPanics:  1,
			check: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("the retry should have absorbed the panic: %v", err)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			fn := c.fn(&calls)
			retries0, panics0 := s.stats.retries.Load(), s.stats.panicsRecovered.Load()
			ctx := c.ctx(t)
			_, err := s.guard.Run(ctx, ctx, engine.ChaosKey{}, 0xfeed, func(ctx context.Context, _ int) error {
				_, err := fn(ctx, inst)
				return err
			})
			if calls.Load() != c.wantCalls {
				t.Errorf("solver invoked %d times, want %d", calls.Load(), c.wantCalls)
			}
			if retries := s.stats.retries.Load() - retries0; retries != c.wantRetries {
				t.Errorf("retries = %d, want %d", retries, c.wantRetries)
			}
			if panics := s.stats.panicsRecovered.Load() - panics0; panics != c.wantPanics {
				t.Errorf("recovered panics = %d, want %d", panics, c.wantPanics)
			}
			c.check(t, err)
		})
	}
}

func TestJournalWarmRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "plans.wal")
	var calls atomic.Int64
	setHook(t, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		calls.Add(1)
		return fakeResult(42.5), nil
	})
	body := planBody(t, "test-hook", deployProblem(t, 7), nil, 0)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// First life: solve, cache, drain (flushing the journal).
	s1, base1 := startDaemon(t, Config{JournalPath: journal})
	code, data := postPlan(t, client, base1, body)
	if code != http.StatusOK {
		t.Fatalf("first life solve: status %d body %s", code, data)
	}
	first := decodePlanResponse(t, data)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Second life: the journal warm-starts the cache, so the repeated
	// request is a hit with byte-identical plan and no solver invocation.
	s2, base2 := startDaemon(t, Config{JournalPath: journal})
	if s2.Restored != 1 {
		t.Fatalf("restored %d plans from journal, want 1", s2.Restored)
	}
	before := calls.Load()
	code, data = postPlan(t, client, base2, body)
	if code != http.StatusOK {
		t.Fatalf("second life solve: status %d body %s", code, data)
	}
	second := decodePlanResponse(t, data)
	if second.Cache != "hit" {
		t.Fatalf("restarted daemon missed: cache %q", second.Cache)
	}
	if !bytes.Equal(first.Plan, second.Plan) {
		t.Fatalf("warm restart not byte-identical:\n%s\n%s", first.Plan, second.Plan)
	}
	if calls.Load() != before {
		t.Fatalf("warm restart re-ran the solver")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkGoroutines fails the test if the goroutine count does not settle
// back to (roughly) the baseline — the zero-leak gate for the chaos run.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak: %d before, %d after drain\n%s", baseline, n, buf)
}

// TestChaosSurvival is the deterministic chaos gate: a request storm —
// valid plans (with repeats, exercising the cache), malformed bodies,
// unknown solvers, tiny deadlines — against a daemon whose solver
// attempts panic and fail via seeded chaos injection. The daemon must
// answer every request with a structured response, stay healthy
// mid-burst, drain cleanly, and leak zero goroutines.
func TestChaosSurvival(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, base := startDaemon(t, Config{
		MaxInFlight: 4,
		Retry:       engine.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Chaos:       &engine.ChaosConfig{Seed: 42, PanicFrac: 0.3, ErrorFrac: 0.2},
		DrainGrace:  5 * time.Second,
	})
	client := &http.Client{}

	problems := make([][]byte, 4)
	for i := range problems {
		problems[i] = planBody(t, "rfh", deployProblem(t, int64(100+i)), nil, 2000)
	}
	const total = 60
	bodies := make([][]byte, total)
	for i := range bodies {
		switch {
		case i%9 == 4:
			bodies[i] = []byte(`{"solver": "rfh", "problem": {`) // malformed
		case i%11 == 5:
			bodies[i] = planBody(t, "no-such-solver", deployProblem(t, 100), nil, 0)
		case i%13 == 6:
			bodies[i] = planBody(t, "rfh", deployProblem(t, int64(200+i)), nil, 1) // 1 ms deadline
		default:
			bodies[i] = problems[i%len(problems)]
		}
	}

	var ok2xx, err4xx, err5xx atomic.Int64
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Errorf("request %d: transport error %v", i, err)
					continue
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					// Every success must decode as a plan response.
					decodePlanResponse(t, data)
					ok2xx.Add(1)
				case resp.StatusCode >= 500 || resp.StatusCode == statusCanceled:
					// Every failure must carry the structured envelope.
					if errorClass(t, data) == "" {
						t.Errorf("request %d: unstructured 5xx body %s", i, data)
					}
					err5xx.Add(1)
				default:
					if errorClass(t, data) == "" {
						t.Errorf("request %d: unstructured 4xx body %s", i, data)
					}
					err4xx.Add(1)
				}
			}
		}()
	}
	for i := range bodies {
		idx <- i
		if i == total/2 {
			// Mid-burst the daemon must still report healthy.
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				t.Fatalf("mid-burst healthz: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mid-burst healthz: %d", resp.StatusCode)
			}
		}
	}
	close(idx)
	wg.Wait()

	st := getStats(t, client, base)
	if st.Requests != total+0 {
		t.Errorf("statz requests = %d, want %d", st.Requests, total)
	}
	if got := ok2xx.Load() + err4xx.Load() + err5xx.Load(); got != total {
		t.Errorf("accounted responses = %d, want %d", got, total)
	}
	if ok2xx.Load() == 0 {
		t.Errorf("chaos run produced zero successful plans")
	}
	if st.Malformed == 0 || st.Unsupported == 0 {
		t.Errorf("fault injection never hit the parse path: malformed=%d unsupported=%d", st.Malformed, st.Unsupported)
	}
	if st.PanicsRecovered == 0 {
		t.Errorf("chaos panic injection never fired: %+v", st)
	}
	if st.Retries == 0 {
		t.Errorf("no chaos-injected failure was retried: %+v", st)
	}
	t.Logf("chaos run: 2xx=%d 4xx=%d 5xx=%d panics=%d/%d recovered, retries=%d timeouts=%d hits=%d",
		ok2xx.Load(), err4xx.Load(), err5xx.Load(), st.Panics, st.PanicsRecovered, st.Retries, st.Timeouts, st.CacheHits)

	// Clean drain, then the goroutine count must settle to baseline.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
	resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(problems[0]))
	if err == nil {
		// The listener may still accept briefly; a response must be the
		// draining rejection.
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-drain request: status %d body %s", resp.StatusCode, data)
		}
	}
	client.CloseIdleConnections()
	checkGoroutines(t, baseline)
}

func TestDrainAbandonsWedgedSolve(t *testing.T) {
	release := make(chan struct{})
	setHook(t, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-release:
			return fakeResult(1), nil
		}
	})
	s, base := startDaemon(t, Config{DrainGrace: 100 * time.Millisecond})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	done := make(chan struct{})
	go func() {
		defer close(done)
		// The wedged request is abandoned at the grace boundary; whatever
		// the transport reports (a 499/504 response or a reset connection)
		// must not block drain.
		resp, err := client.Post(base+"/v1/plan", "application/json",
			bytes.NewReader(planBody(t, "test-hook", deployProblem(t, 30), nil, 60_000)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "solve in flight", func() bool { return s.stats.inflight.Load() == 1 })

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with wedged solve: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %s despite a 100ms grace", elapsed)
	}
	<-done
	close(release)
}
