// Package daemon implements wrsnd, the long-running HTTP/JSON planning
// service over the solver registry: "planning as a service" for both
// problem families (deployment and charger placement) through the
// model.Instance seam.
//
// The daemon's headline feature is robustness under hostile load rather
// than the HTTP wiring. A request travels the pipeline
//
//	admission → plan cache → limiter → breaker-guarded solve → response
//
// with a failure-handling layer at every stage:
//
//   - Admission control: a bounded wait queue in front of the solve
//     pool. When queue depth exceeds MaxQueue the request is shed
//     immediately with 429 and Retry-After instead of letting latency
//     collapse for everyone; while draining, new work is refused with
//     503.
//   - Plan cache: problems are canonicalized and hashed
//     (model.CanonicalSignature/CanonicalKey) into a bounded LRU. A
//     hit returns the exact bytes of the original solve — byte-identical
//     answers, across restarts when the cache journal is enabled.
//   - Scheduling: cache misses take a slot on an engine.Limiter worker
//     pool (shareable, in principle, with in-process sweeps), waiting
//     under the request's deadline.
//   - Solve protections: every miss is solved under engine.Guard, the
//     same guard as sweep cells: per-attempt panic isolation (a panicking
//     solver becomes a structured 500 while the daemon keeps serving),
//     engine.RetryPolicy with deterministic backoff for transient
//     failures, and context.WithTimeoutCause deadlines whose causes
//     surface in error responses.
//   - Circuit breaker: per-solver, tripping after Threshold consecutive
//     failures and half-opening after a cooldown, so a wedged or
//     persistently panicking solver sheds in O(1) instead of burning
//     pool slots and deadlines.
//   - Graceful drain: Drain stops admission, lets in-flight solves
//     finish within DrainGrace (then abandons them via cancellation
//     cause), and flushes the plan cache to a CRC-framed JSONL journal
//     (the PR 5 format) so a restart warm-starts byte-identically.
//
// /healthz (liveness), /readyz (admission state) and /statz (queue
// depth, shed/retry/panic/breaker counters, cache hit rate) expose the
// whole pipeline for load tests and orchestration.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wrsn/internal/engine"
	"wrsn/internal/model"
	"wrsn/internal/placement"
	"wrsn/internal/solver"
)

// Config tunes the daemon. The zero value serves with sensible defaults:
// GOMAXPROCS concurrent solves, a 64-deep admission queue, 1 MiB bodies,
// 30s default deadlines, no retries, no breaker, no cache journal.
type Config struct {
	// MaxInFlight bounds concurrent solves (the limiter pool size);
	// 0 means runtime.GOMAXPROCS(0).
	MaxInFlight int
	// MaxQueue bounds how many admitted requests may wait for a solve
	// slot; beyond it requests are shed with 429 (default 64).
	MaxQueue int
	// MaxBodyBytes caps request bodies; oversized requests get 413
	// (default 1 MiB).
	MaxBodyBytes int64
	// DefaultDeadline applies when a request names no deadline_ms
	// (default 30s); MaxDeadline clamps what a request may ask for
	// (default 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Retry re-runs failed solves with deterministic backoff, exactly
	// like sweep cells. Zero value: one attempt.
	Retry engine.RetryPolicy
	// Breaker configures the per-solver circuit breakers.
	Breaker BreakerConfig
	// DrainGrace is how long Drain lets in-flight solves finish before
	// abandoning them (default 5s).
	DrainGrace time.Duration
	// CacheEntries bounds the plan cache (default 1024).
	CacheEntries int
	// JournalPath, when non-empty, is where Drain flushes the plan cache
	// (CRC-framed JSONL) and where NewServer warm-starts it from.
	JournalPath string
	// Chaos deterministically injects panics, errors and latency into
	// solve attempts — the test and load-test harness for everything
	// above. Never for production serving.
	Chaos *engine.ChaosConfig
	// ReadHeaderTimeout and ReadTimeout harden the HTTP server against
	// slow-loris clients (defaults 5s and 30s). WriteTimeout is derived
	// from MaxDeadline so a slow solve is never cut off mid-response.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration

	// now overrides the clock in tests (breaker cooldowns).
	now func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Error classes returned in error responses' "class" field.
const (
	ClassMalformed   = "malformed"    // unparseable or invalid request (400)
	ClassTooLarge    = "too_large"    // body over MaxBodyBytes (413)
	ClassUnsupported = "unsupported"  // unknown solver or rejected kind (400)
	ClassOverloaded  = "overloaded"   // admission queue full, shed (429)
	ClassDraining    = "draining"     // daemon is draining (503)
	ClassBreakerOpen = "breaker_open" // solver's circuit breaker open (503)
	ClassTimeout     = "timeout"      // request deadline exceeded (504)
	ClassCanceled    = "canceled"     // client gone or drain abandoned (499)
	ClassPanic       = "panic"        // solver panicked, recovered (500)
	ClassSolverError = "solver_error" // solver returned an error (500)
	ClassInternal    = "internal"     // daemon-side failure (500)
)

// statusCanceled is the nonstandard nginx 499 "client closed request";
// the response usually reaches nobody, but the class still lands in logs
// and stats.
const statusCanceled = 499

// PlanRequest is the body of POST /v1/plan: exactly one problem (a
// deployment problem or a placement instance), the registry name of the
// solver to run, and an optional deadline.
type PlanRequest struct {
	// Solver is the engine registry name ("rfh", "idb", "greedy", ...).
	Solver string `json:"solver"`
	// Problem is a deployment problem (mutually exclusive with
	// Placement).
	Problem *model.Problem `json:"problem,omitempty"`
	// Placement is a charger-placement instance.
	Placement *placement.Instance `json:"placement,omitempty"`
	// DeadlineMS bounds the whole request (queue wait + solve) in
	// milliseconds; 0 means the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// instance returns the request's single problem instance.
func (r *PlanRequest) instance() (model.Instance, error) {
	switch {
	case r.Problem != nil && r.Placement != nil:
		return nil, errors.New("request carries both a deployment problem and a placement instance")
	case r.Problem != nil:
		if err := r.Problem.Validate(); err != nil {
			return nil, err
		}
		return r.Problem, nil
	case r.Placement != nil:
		if err := r.Placement.Validate(); err != nil {
			return nil, err
		}
		return r.Placement, nil
	default:
		return nil, errors.New("request carries no problem (set \"problem\" or \"placement\")")
	}
}

// Plan is the cached, byte-stable part of a plan response: the solution
// vector, its cost (with the exact IEEE-754 bits alongside, PR 5 style),
// the routing tree for deployment plans, and the solver's evaluation
// count.
type Plan struct {
	Vector      []int       `json:"vector"`
	Cost        float64     `json:"cost"`
	CostBits    uint64      `json:"cost_bits,string"`
	Tree        *model.Tree `json:"tree,omitempty"`
	Evaluations int64       `json:"evaluations"`
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	Solver string `json:"solver"`
	Kind   string `json:"kind"`
	// Key is the canonical cache key, hex-encoded.
	Key string `json:"key"`
	// Cache is "hit" or "miss".
	Cache string `json:"cache"`
	// Retries counts solve attempts beyond the first (0 on cache hits).
	Retries int `json:"retries,omitempty"`
	// ElapsedMS is server-side wall time for this request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Plan is the byte-stable plan payload, verbatim from the cache on
	// hits.
	Plan json.RawMessage `json:"plan"`
}

// ErrorBody is the structured error envelope of every non-2xx response.
type ErrorBody struct {
	Error struct {
		Class   string `json:"class"`
		Message string `json:"message"`
	} `json:"error"`
}

// serverStats is the daemon's atomic counter block.
type serverStats struct {
	requests, completed    atomic.Int64
	hits, misses           atomic.Int64
	shed, drainRejects     atomic.Int64
	malformed, unsupported atomic.Int64
	tooLarge               atomic.Int64
	timeouts, canceled     atomic.Int64
	panics, solverErrors   atomic.Int64
	panicsRecovered        atomic.Int64
	retries                atomic.Int64
	breakerRejects         atomic.Int64
	queued, inflight       atomic.Int64
}

// Stats is the JSON body of GET /statz.
type Stats struct {
	UptimeSeconds   float64           `json:"uptime_seconds"`
	Draining        bool              `json:"draining"`
	Requests        int64             `json:"requests"`
	Completed       int64             `json:"completed"`
	CacheHits       int64             `json:"cache_hits"`
	CacheMisses     int64             `json:"cache_misses"`
	CacheEntries    int               `json:"cache_entries"`
	CacheHitRate    float64           `json:"cache_hit_rate"`
	Shed            int64             `json:"shed"`
	DrainRejects    int64             `json:"drain_rejects"`
	Malformed       int64             `json:"malformed"`
	TooLarge        int64             `json:"too_large"`
	Unsupported     int64             `json:"unsupported"`
	Timeouts        int64             `json:"timeouts"`
	Canceled        int64             `json:"canceled"`
	Panics          int64             `json:"panics"`
	PanicsRecovered int64             `json:"panics_recovered"`
	SolverErrors    int64             `json:"solver_errors"`
	Retries         int64             `json:"retries"`
	BreakerRejects  int64             `json:"breaker_rejects"`
	BreakerTrips    int64             `json:"breaker_trips"`
	QueueDepth      int64             `json:"queue_depth"`
	InFlight        int64             `json:"in_flight"`
	Breakers        map[string]string `json:"breakers,omitempty"`
}

// Server is one wrsnd instance.
type Server struct {
	cfg     Config
	limiter engine.Limiter
	cache   *planCache
	httpSrv *http.Server

	// workCtx is cancelled (with a cause) when a drain abandons
	// in-flight solves after the grace window.
	workCtx    context.Context
	workCancel context.CancelCauseFunc

	// guard runs every solve; its hook feeds /statz.
	guard engine.Guard

	draining atomic.Bool
	stats    serverStats
	start    time.Time

	// kinds maps each registered solver to its accepted instance kinds.
	kinds map[string]map[string]bool

	breakersMu sync.Mutex
	breakers   map[string]*breaker

	// Restored counts plans warm-started from the cache journal.
	Restored int
}

// NewServer builds a Server, warm-starting the plan cache from
// cfg.JournalPath when a journal exists there.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		limiter:  engine.NewLimiter(cfg.MaxInFlight),
		cache:    newPlanCache(cfg.CacheEntries),
		start:    cfg.now(),
		kinds:    make(map[string]map[string]bool),
		breakers: make(map[string]*breaker),
	}
	s.guard = engine.Guard{Retry: cfg.Retry, Chaos: cfg.Chaos, Hook: s.countAttempt}
	s.workCtx, s.workCancel = context.WithCancelCause(context.Background())
	for _, info := range engine.Infos() {
		ks := make(map[string]bool, len(info.Kinds))
		for _, k := range info.Kinds {
			ks[k] = true
		}
		s.kinds[info.Name] = ks
	}
	if cfg.JournalPath != "" {
		n, err := s.cache.load(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.Restored = n
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		// A solve may legitimately run to MaxDeadline; never cut the
		// response off under it.
		WriteTimeout: cfg.MaxDeadline + 10*time.Second,
	}
	return s, nil
}

// Serve accepts connections on l until Drain (or Close) shuts the server
// down; a drain-initiated stop returns nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the daemon down — the SIGTERM path:
//
//  1. Admission stops: /readyz flips to 503 and new plan requests are
//     refused with class "draining".
//  2. In-flight solves get cfg.DrainGrace to finish (the HTTP server's
//     Shutdown waits for their handlers).
//  3. Solves still running after the grace window are abandoned: the
//     shared work context is cancelled with a cause naming the drain,
//     and remaining connections are force-closed.
//  4. The plan cache is flushed to cfg.JournalPath (when configured) so
//     a restarted daemon answers repeated requests byte-identically.
//
// A drain that had to abandon work is still a successful drain: the
// grace window is the contract. The returned error is non-nil only when
// ctx is cancelled before the drain completes or the journal flush
// fails.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	grace := s.cfg.DrainGrace
	shutCtx, cancel := context.WithTimeout(ctx, grace)
	defer cancel()
	err := s.httpSrv.Shutdown(shutCtx)
	if err != nil {
		// Grace exceeded (or ctx cancelled): abandon in-flight solves at
		// their next cancellation point and force-close connections.
		s.workCancel(fmt.Errorf("wrsnd: drain grace (%s) exceeded: %w", grace, context.Canceled))
		s.httpSrv.Close()
	}
	// Unblock any straggling waiters permanently.
	s.workCancel(fmt.Errorf("wrsnd: drained: %w", context.Canceled))
	if s.cfg.JournalPath != "" {
		if jerr := s.cache.save(s.cfg.JournalPath); jerr != nil {
			return jerr
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("wrsnd: drain interrupted: %w", context.Cause(ctx))
	}
	return nil
}

// breaker returns (creating on first use) the named solver's breaker.
func (s *Server) breaker(name string) *breaker {
	s.breakersMu.Lock()
	defer s.breakersMu.Unlock()
	b, ok := s.breakers[name]
	if !ok {
		b = newBreaker(s.cfg.Breaker)
		s.breakers[name] = b
	}
	return b
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes the structured error envelope, with a Retry-After
// header when retryAfter > 0.
func writeError(w http.ResponseWriter, status int, class, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	var body ErrorBody
	body.Error.Class = class
	body.Error.Message = msg
	writeJSON(w, status, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: as long as the process can answer, it is alive — even
	// mid-drain, so orchestrators don't SIGKILL a draining daemon.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, ClassDraining, "draining", 0)
	case s.stats.queued.Load() >= int64(s.cfg.MaxQueue):
		writeError(w, http.StatusServiceUnavailable, ClassOverloaded, "admission queue full", time.Second)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, engine.Infos())
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.stats.hits.Load(), s.stats.misses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	st := Stats{
		UptimeSeconds:   s.cfg.now().Sub(s.start).Seconds(),
		Draining:        s.draining.Load(),
		Requests:        s.stats.requests.Load(),
		Completed:       s.stats.completed.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEntries:    s.cache.len(),
		CacheHitRate:    rate,
		Shed:            s.stats.shed.Load(),
		DrainRejects:    s.stats.drainRejects.Load(),
		Malformed:       s.stats.malformed.Load(),
		TooLarge:        s.stats.tooLarge.Load(),
		Unsupported:     s.stats.unsupported.Load(),
		Timeouts:        s.stats.timeouts.Load(),
		Canceled:        s.stats.canceled.Load(),
		Panics:          s.stats.panics.Load(),
		PanicsRecovered: s.stats.panicsRecovered.Load(),
		SolverErrors:    s.stats.solverErrors.Load(),
		Retries:         s.stats.retries.Load(),
		BreakerRejects:  s.stats.breakerRejects.Load(),
		QueueDepth:      s.stats.queued.Load(),
		InFlight:        s.stats.inflight.Load(),
		Breakers:        map[string]string{},
	}
	s.breakersMu.Lock()
	for name, b := range s.breakers {
		state, trips := b.snapshot()
		st.BreakerTrips += trips
		if state != breakerClosed || trips > 0 {
			st.Breakers[name] = state
		}
	}
	s.breakersMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handlePlan is the request pipeline: parse → canonicalize → cache →
// breaker → admission → solve → respond.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	startT := time.Now()

	if s.draining.Load() {
		s.stats.drainRejects.Add(1)
		writeError(w, http.StatusServiceUnavailable, ClassDraining, "wrsnd is draining; not admitting new work", 0)
		return
	}

	// Parse under the body cap; a MaxBytesError is an oversized problem,
	// anything else unreadable or unparseable is malformed.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.stats.tooLarge.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, ClassTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), 0)
			return
		}
		s.stats.malformed.Add(1)
		writeError(w, http.StatusBadRequest, ClassMalformed, "reading request body: "+err.Error(), 0)
		return
	}
	var req PlanRequest
	if err := json.Unmarshal(data, &req); err != nil {
		s.stats.malformed.Add(1)
		writeError(w, http.StatusBadRequest, ClassMalformed, "decoding request: "+err.Error(), 0)
		return
	}
	inst, err := req.instance()
	if err != nil {
		s.stats.malformed.Add(1)
		writeError(w, http.StatusBadRequest, ClassMalformed, err.Error(), 0)
		return
	}
	fn, ok := engine.Solver(req.Solver)
	if !ok {
		s.stats.unsupported.Add(1)
		writeError(w, http.StatusBadRequest, ClassUnsupported,
			fmt.Sprintf("no solver registered as %q (GET /v1/solvers lists them)", req.Solver), 0)
		return
	}
	if !s.kinds[req.Solver][inst.Kind()] {
		s.stats.unsupported.Add(1)
		writeError(w, http.StatusBadRequest, ClassUnsupported,
			fmt.Sprintf("solver %q does not accept %q instances", req.Solver, inst.Kind()), 0)
		return
	}

	instSig, err := model.CanonicalSignature(inst)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ClassInternal, err.Error(), 0)
		return
	}
	sig := req.Solver + "|" + instSig
	key := model.CanonicalKey(sig)

	respond := func(plan json.RawMessage, cache string, retries int) {
		s.stats.completed.Add(1)
		writeJSON(w, http.StatusOK, PlanResponse{
			Solver:    req.Solver,
			Kind:      inst.Kind(),
			Key:       fmt.Sprintf("%016x", key),
			Cache:     cache,
			Retries:   retries,
			ElapsedMS: float64(time.Since(startT)) / float64(time.Millisecond),
			Plan:      plan,
		})
	}

	if plan, ok := s.cache.get(key, sig); ok {
		s.stats.hits.Add(1)
		respond(plan, "hit", 0)
		return
	}
	s.stats.misses.Add(1)

	br := s.breaker(req.Solver)
	allowed, probe, retryAfter := br.allow(s.cfg.now())
	if !allowed {
		s.stats.breakerRejects.Add(1)
		writeError(w, http.StatusServiceUnavailable, ClassBreakerOpen,
			fmt.Sprintf("solver %q circuit breaker is open", req.Solver), retryAfter)
		return
	}
	// If this request is the half-open probe, every exit below must
	// resolve it: success/failure record a verdict, and any verdict-free
	// exit (shed at admission, client disconnect, drain abandonment)
	// reverts to open so the breaker can't wedge half-open forever.
	probeResolved := false
	if probe {
		defer func() {
			if !probeResolved {
				br.revertProbe(s.cfg.now())
			}
		}()
	}

	// Request context: client disconnect + drain abandonment + deadline,
	// with causes that name what fired.
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.workCtx, func() { cancel(context.Cause(s.workCtx)) })
	defer stop()
	cause := fmt.Errorf("wrsnd: request deadline (%s) exceeded: %w", deadline, context.DeadlineExceeded)
	ctx, cancelT := context.WithTimeoutCause(ctx, deadline, cause)
	defer cancelT()

	// Admission: try for a free solve slot; otherwise wait in the
	// bounded queue under the request's deadline, shedding immediately
	// when the queue is full.
	if !s.limiter.TryAcquire() {
		if q := s.stats.queued.Add(1); q > int64(s.cfg.MaxQueue) {
			s.stats.queued.Add(-1)
			s.stats.shed.Add(1)
			writeError(w, http.StatusTooManyRequests, ClassOverloaded,
				fmt.Sprintf("admission queue full (%d waiting, %d solving)", q-1, s.limiter.InFlight()),
				time.Second)
			return
		}
		ok := s.limiter.Acquire(ctx)
		s.stats.queued.Add(-1)
		if !ok {
			s.writeSolveError(w, context.Cause(ctx))
			return
		}
	}
	defer s.limiter.Release()
	s.stats.inflight.Add(1)
	defer s.stats.inflight.Add(-1)

	// The chaos key and the backoff seed both derive from the canonical
	// key, so the same request always draws the same faults and delays.
	chaosKey := engine.ChaosKey{A: int(uint32(key)), B: int(uint32(key >> 32))}
	if s.cfg.Chaos != nil {
		chaosKey.Scope = "wrsnd:" + req.Solver
	}
	var res *solver.Result
	attempts, err := s.guard.Run(ctx, ctx, chaosKey, int64(key), func(ctx context.Context, _ int) (err error) {
		res, err = fn(ctx, inst)
		return err
	})
	if err != nil {
		if solveFault(err) {
			br.failure(s.cfg.now())
			probeResolved = true
		}
		s.writeSolveError(w, err)
		return
	}
	br.success()
	probeResolved = true

	plan, err := encodePlan(inst.Kind(), res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ClassInternal, err.Error(), 0)
		return
	}
	s.cache.put(key, sig, plan)
	respond(plan, "miss", attempts-1)
}

// countAttempt is the guard's hook: it counts every retry that started
// and every recovered panic, including those a later attempt absorbed.
func (s *Server) countAttempt(attempt int, err error) {
	if attempt > 1 {
		s.stats.retries.Add(1)
	}
	if _, ok := err.(*engine.PanicError); ok {
		s.stats.panicsRecovered.Add(1)
	}
}

// solveFault reports whether a solve failure counts against the solver's
// breaker: solver-side faults do (panics, errors, deadline exhaustion —
// a wedged solver manifests as timeouts); client cancellation and
// structural rejection don't.
func solveFault(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, solver.ErrUnsupportedInstance) {
		return false
	}
	return true
}

// writeSolveError classifies a terminal solve failure into a status,
// class and counter.
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		s.stats.panics.Add(1)
		writeError(w, http.StatusInternalServerError, ClassPanic, pe.Error(), 0)
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, ClassTimeout, err.Error(), 0)
	case errors.Is(err, context.Canceled):
		s.stats.canceled.Add(1)
		writeError(w, statusCanceled, ClassCanceled, err.Error(), 0)
	case errors.Is(err, solver.ErrUnsupportedInstance):
		s.stats.unsupported.Add(1)
		writeError(w, http.StatusBadRequest, ClassUnsupported, err.Error(), 0)
	default:
		s.stats.solverErrors.Add(1)
		writeError(w, http.StatusInternalServerError, ClassSolverError, err.Error(), 0)
	}
}

// encodePlan renders a solver result as the byte-stable plan payload.
// Marshalling is deterministic (fixed field order, no maps), so equal
// results always encode to equal bytes — the property the cache and its
// journal rely on for byte-identical replays.
func encodePlan(kind string, res *solver.Result) (json.RawMessage, error) {
	p := Plan{
		Vector:      res.Vector,
		Cost:        res.Cost,
		CostBits:    math.Float64bits(res.Cost),
		Evaluations: res.Evaluations,
	}
	if kind == model.KindDeployment {
		p.Vector = []int(res.Deploy)
		tree := res.Tree
		p.Tree = &tree
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("daemon: encoding plan: %w", err)
	}
	return b, nil
}
