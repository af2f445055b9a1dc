package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wrsn/internal/daemon"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
)

// serviceSpec describes the plan-service workload: wrsnd's request
// pipeline under a seeded open-loop stream of cache reads and writes.
type serviceSpec struct {
	// rate is the open-loop mean send rate in requests per second; the
	// arrivals are a seeded Poisson process, so misses sometimes arrive
	// close enough together to queue for the solve slot.
	rate float64
	// hot problems are warmed into the plan cache during set-up and
	// repeated by hotFrac of the stream; every other request carries a
	// never-seen problem.
	hot     int
	hotFrac float64
	// Deployment requests: posts and nodes on a side x side field.
	posts, nodes int
	side         float64
	// Placement requests: placePosts posts on a placeSide field with a
	// placeGrid x placeGrid candidate-site lattice.
	placePosts int
	placeSide  float64
	placeGrid  int
	// slots is the daemon's solve pool size; cacheEntries its plan cache.
	slots, cacheEntries int
	// conns bounds the generator's connections (and so requests in
	// flight); it is capped at the CPU count.
	conns int
	// sloMS is the latency limit, measured from each request's due time.
	sloMS float64
}

func serviceSpecFor(sz size) serviceSpec {
	s := serviceSpec{
		rate: 300, hot: 32, hotFrac: 0.65,
		posts: 40, nodes: 120, side: 300,
		placePosts: 40, placeSide: 300, placeGrid: 6,
		slots: 1, cacheEntries: 1024, conns: 2,
		sloMS: 10,
	}
	if sz == tiny {
		s.rate = 2000
		s.hot = 8
		s.posts, s.nodes, s.side = 8, 16, 150
		s.placePosts, s.placeGrid = 6, 3
	}
	return s
}

// requestKinds are the four kinds of plan request in the stream, with
// each kind's share of the never-seen problems. Deployment idb, the
// slowest, takes half of them, so the stream's p90 falls inside its
// latencies rather than on the edge between two kinds, where it would jump
// between them from run to run.
var requestKinds = []struct {
	solver    string
	placement bool
	share     float64
}{
	{"rfh-iterative", false, 0.15},
	{"idb", false, 0.5},
	{"greedy", true, 0.15},
	{"idb", true, 0.2},
}

// freshKind draws a request kind by the kinds' shares.
func freshKind(rng *rand.Rand) int {
	u := rng.Float64()
	for k, rk := range requestKinds {
		if u < rk.share {
			return k
		}
		u -= rk.share
	}
	return len(requestKinds) - 1
}

// request is one prepared plan request.
type request struct {
	kind int
	inst model.Instance
	body []byte
}

// service is a set-up plan-service workload: a daemon serving on a
// loopback listener in this process, a warmed hot pool, and the stream.
type service struct {
	spec   serviceSpec
	srv    *daemon.Server
	served chan error
	base   string
	client *http.Client
	closed bool

	hot    []request
	fresh  []request
	stream []*request      // request i of the stream
	due    []time.Duration // when request i is due, from the stream's start
	input  uint64

	// plans maps each cache key to the plan bytes of its first miss.
	plans map[string][]byte
	// hotPlans holds the warmed deployment plans for the layer probes.
	hotPlans []planned
}

// newService generates the hot pool and a stream covering d at
// spec.rate, starts the daemon and warms the hot pool into its cache.
func newService(spec serviceSpec, seed int64, d time.Duration) (*service, error) {
	s := &service{spec: spec, plans: map[string][]byte{}}
	rng := rand.New(rand.NewSource(seed*7_919 + 3))
	gen := func(kind int) (request, error) {
		k := requestKinds[kind]
		req := daemon.PlanRequest{Solver: k.solver, DeadlineMS: 10_000}
		var inst model.Instance
		if k.placement {
			pi, err := placement.Generate(rng, placement.GenSpec{
				Field:        geom.Square(spec.placeSide),
				Posts:        spec.placePosts,
				Sites:        placementSites(spec.placeGrid),
				DemandMean:   1.5,
				DemandJitter: 0.3,
			})
			if err != nil {
				return request{}, err
			}
			req.Placement, inst = pi, pi
		} else {
			p, err := model.GenerateProblem(rng, model.GenSpec{Field: geom.Square(spec.side), Posts: spec.posts, Nodes: spec.nodes})
			if err != nil {
				return request{}, err
			}
			req.Problem, inst = p, p
		}
		body, err := json.Marshal(req)
		if err != nil {
			return request{}, err
		}
		return request{kind: kind, inst: inst, body: body}, nil
	}
	dg := newDigest()
	for i := 0; i < spec.hot; i++ {
		r, err := gen(i % len(requestKinds))
		if err != nil {
			return nil, fmt.Errorf("hot request %d: %w", i, err)
		}
		dg.bytes(r.body)
		s.hot = append(s.hot, r)
	}
	n := streamLen(spec, d)
	s.stream = make([]*request, n)
	var freshIdx []int
	for i := range s.stream {
		if rng.Float64() < spec.hotFrac {
			s.stream[i] = &s.hot[rng.Intn(len(s.hot))]
		} else {
			freshIdx = append(freshIdx, i)
		}
	}
	s.fresh = make([]request, len(freshIdx))
	for j, i := range freshIdx {
		r, err := gen(freshKind(rng))
		if err != nil {
			return nil, fmt.Errorf("stream request %d: %w", i, err)
		}
		s.fresh[j] = r
		s.stream[i] = &s.fresh[j]
	}
	s.due = poissonSchedule(rng, n, spec.rate)
	for i, r := range s.stream {
		dg.bytes(r.body)
		dg.u64(uint64(s.due[i]))
	}
	s.input = dg.sum()

	if err := s.start(); err != nil {
		return nil, err
	}
	if err := s.warm(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// streamLen is how many requests a run of d sends.
func streamLen(spec serviceSpec, d time.Duration) int {
	return int(math.Ceil(spec.rate * d.Seconds()))
}

// poissonSchedule returns n due times, from the stream's start, of a
// Poisson process with the given rate per second.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		due[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return due
}

// uniformSchedule returns n due times interval apart.
func uniformSchedule(n int, interval time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	return due
}

// placementSites is the default charger site template on a grid x grid
// lattice.
func placementSites(grid int) placement.SiteSpec {
	ss := placement.DefaultSiteSpec()
	ss.Grid = grid
	return ss
}

// clientConns is the generator's connection bound: spec.conns, and at
// most one per CPU.
func (s *service) clientConns() int { return min(s.spec.conns, runtime.NumCPU()) }

func (s *service) start() error {
	srv, err := daemon.NewServer(daemon.Config{
		MaxInFlight:  s.spec.slots,
		CacheEntries: s.spec.cacheEntries,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = srv
	s.served = make(chan error, 1)
	go func() { s.served <- srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	conns := s.clientConns()
	s.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return nil
}

// warm sends every hot request once, so the stream's repeats are cache
// hits, and keeps each first answer as the bytes later hits must repeat.
func (s *service) warm() error {
	for i := range s.hot {
		r := &s.hot[i]
		status, body, err := s.post(r.body)
		if err != nil {
			return fmt.Errorf("warming hot request %d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming hot request %d: status %d: %s", i, status, body)
		}
		var resp daemon.PlanResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("warming hot request %d: %w", i, err)
		}
		if msg := repriceCheck(r.inst, resp.Plan); msg != "" {
			return fmt.Errorf("warming hot request %d: %s", i, msg)
		}
		s.plans[resp.Key] = append([]byte(nil), resp.Plan...)
		if p, ok := r.inst.(*model.Problem); ok {
			var plan daemon.Plan
			if err := json.Unmarshal(resp.Plan, &plan); err != nil || plan.Tree == nil {
				return fmt.Errorf("warming hot request %d: undecodable deployment plan", i)
			}
			s.hotPlans = append(s.hotPlans, planned{p, model.Solution{Deploy: plan.Vector, Tree: *plan.Tree, Cost: plan.Cost}})
		}
	}
	return nil
}

func (s *service) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *service) inputDigest() uint64 { return s.input }

// close drains the daemon and waits for its serve loop to return.
func (s *service) close() error {
	if s.closed || s.srv == nil {
		return nil
	}
	s.closed = true
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// sent is what the generator observed for one request.
type sent struct {
	due, start, done time.Time
	status           int
	body             []byte
	err              error
}

// openLoop sends requests 0..len(schedule)-1 on a fixed schedule —
// request i is due at t0 + schedule[i] whether or not earlier ones have
// been answered — from `workers` senders, each holding at most one request
// (and so one connection) at a time. A sender that is busy when a request
// falls due sends it late; the lateness shows both in the request's
// latency, which is measured from its due time, and in the returned lag
// (start - due).
func openLoop(ctx context.Context, schedule []time.Duration, workers int, do func(i int) (int, []byte, error)) []sent {
	n := len(schedule)
	out := make([]sent, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(schedule[i])
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				r := &out[i]
				r.due, r.start = due, time.Now()
				r.status, r.body, r.err = do(i)
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// run sends the first d*rate requests of the stream open-loop and checks
// every response.
func (s *service) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	n := streamLen(s.spec, d)
	if n > len(s.stream) {
		return nil, fmt.Errorf("plan-service set up for %d requests, run needs %d", len(s.stream), n)
	}

	var stopStatz func() (float64, error)
	if tr != nil {
		stopStatz = s.sampleStatz()
	}
	t0 := time.Now()
	res := openLoop(ctx, s.due[:n], s.clientConns(), func(i int) (int, []byte, error) {
		root := tr.begin("loadgen.request", int64(i), -1)
		h := tr.begin("http.POST /v1/plan", int64(i), root)
		status, body, err := s.post(s.stream[i].body)
		tr.end(h, 1)
		tr.end(root, 1)
		return status, body, err
	})
	ph := &phase{elapsed: time.Since(t0), layer: map[string]float64{}}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if stopStatz != nil {
		depth, err := stopStatz()
		if err != nil {
			return nil, err
		}
		ph.layer["daemon.queue_depth"] = depth
		st, err := s.statz()
		if err != nil {
			return nil, err
		}
		ph.layer["daemon.shed"] = float64(st.Shed)
	}

	dg := newDigest()
	var hitLat, missLat, lag, serverHit, serverMiss, transport []float64
	var costSum float64
	var costN int
	for i, r := range res {
		ph.attempted++
		lat := ms(r.done.Sub(r.due))
		lag = append(lag, ms(r.start.Sub(r.due)))
		dg.u64(uint64(r.status))
		if r.err != nil {
			ph.failed++
			dg.bytes([]byte("transport error"))
			continue
		}
		if r.status != http.StatusOK {
			ph.failed++
			var eb daemon.ErrorBody
			if err := json.Unmarshal(r.body, &eb); err != nil || eb.Error.Class == "" {
				ph.checkf("request %d: status %d without a structured error body: %q", i, r.status, r.body)
			}
			dg.bytes([]byte(eb.Error.Class))
			continue
		}
		var resp daemon.PlanResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			ph.checkf("request %d: undecodable plan response: %v", i, err)
			continue
		}
		if msg := repriceCheck(s.stream[i].inst, resp.Plan); msg != "" {
			ph.checkf("request %d: %s", i, msg)
		}
		if first, ok := s.plans[resp.Key]; ok {
			if !bytes.Equal(first, resp.Plan) {
				ph.checkf("request %d: plan bytes for key %s differ from its first answer", i, resp.Key)
			}
		} else if resp.Cache == "miss" {
			s.plans[resp.Key] = append([]byte(nil), resp.Plan...)
		} else {
			ph.checkf("request %d: cache hit for key %s that was never answered", i, resp.Key)
		}
		dg.bytes([]byte(resp.Key))
		dg.bytes(resp.Plan)
		ph.work++
		ph.lat = append(ph.lat, lat)
		if lat <= s.spec.sloMS {
			ph.sloOK++
		}
		if p, ok := s.stream[i].inst.(*model.Problem); ok && p != nil {
			var plan daemon.Plan
			if json.Unmarshal(resp.Plan, &plan) == nil {
				costSum += plan.Cost / 1000
				costN++
			}
		}
		switch resp.Cache {
		case "hit":
			hitLat = append(hitLat, lat)
			serverHit = append(serverHit, resp.ElapsedMS)
			transport = append(transport, ms(r.done.Sub(r.start))-resp.ElapsedMS)
		case "miss":
			missLat = append(missLat, lat)
			serverMiss = append(serverMiss, resp.ElapsedMS)
		}
	}
	ph.jobs = ph.attempted
	if costN > 0 {
		ph.costUJ = costSum / float64(costN)
	}
	ph.digest = dg.sum()
	tail := func(name string, xs []float64) {
		sm, err := summarize(xs, 0.99)
		if err != nil {
			fmt.Fprintf(stderrLog, "%s: %v\n", name, err)
			return
		}
		ph.layer[name+"_p50_ms"] = sm.P50
		ph.layer[name+"_p99_ms"] = sm.Tail
	}
	// Too few samples for a p99 is normal in a short run: the split is left
	// out rather than failing the run.
	tail("service.hit", hitLat)
	tail("service.miss", missLat)
	if sm, err := summarize(lag, 0.99); err == nil {
		ph.layer["loadgen.lag_p99_ms"] = sm.Tail
	} else {
		fmt.Fprintf(stderrLog, "loadgen lag: %v\n", err)
	}
	ph.layer["daemon.server_hit_ms"] = median(serverHit)
	ph.layer["daemon.server_miss_ms"] = median(serverMiss)
	ph.layer["daemon.transport_ms"] = median(transport)
	if len(hitLat)+len(missLat) > 0 {
		ph.layer["daemon.hit_ratio"] = float64(len(hitLat)) / float64(len(hitLat)+len(missLat))
	}
	return ph, nil
}

// repriceCheck re-prices a plan payload with the oracle and reports any
// disagreement with its cost bits ("" when it holds).
func repriceCheck(inst model.Instance, raw json.RawMessage) string {
	var plan daemon.Plan
	if err := json.Unmarshal(raw, &plan); err != nil {
		return fmt.Sprintf("undecodable plan: %v", err)
	}
	if math.Float64bits(plan.Cost) != plan.CostBits {
		return fmt.Sprintf("cost %v disagrees with cost_bits %d", plan.Cost, plan.CostBits)
	}
	if err := inst.ValidateSolution(plan.Vector); err != nil {
		return fmt.Sprintf("invalid plan vector: %v", err)
	}
	var cost float64
	switch v := inst.(type) {
	case *model.Problem:
		if plan.Tree == nil {
			return "deployment plan without a tree"
		}
		c, err := model.Evaluate(v, plan.Vector, *plan.Tree)
		if err != nil {
			return fmt.Sprintf("invalid plan: %v", err)
		}
		cost = c
	default:
		ref, err := inst.NewReferenceEvaluator()
		if err != nil {
			return err.Error()
		}
		if cost, err = ref.Cost(plan.Vector); err != nil {
			return err.Error()
		}
	}
	if math.Float64bits(cost) != plan.CostBits {
		return fmt.Sprintf("cost_bits %d re-price to %v", plan.CostBits, cost)
	}
	return ""
}

func (s *service) statz() (*daemon.Stats, error) {
	resp, err := s.client.Get(s.base + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st daemon.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statz: %w", err)
	}
	return &st, nil
}

// sampleStatz polls /statz's queue depth every 5 ms until the returned
// stop function is called, which returns the mean depth seen.
func (s *service) sampleStatz() func() (float64, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var sum, n float64
	var firstErr error
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				st, err := s.statz()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				sum += float64(st.QueueDepth)
				n++
			}
		}
	}()
	return func() (float64, error) {
		close(stop)
		<-done
		if n == 0 {
			return 0, firstErr
		}
		return sum / n, nil
	}
}

// probe times the daemon's decode and canonicalization steps on the
// stream's bodies, re-solves the stream's misses with the registry solver
// directly, and probes the model and placement layers on the hot pool.
func (s *service) probe(tr *tracer) (map[string]float64, error) {
	const sample = 200
	bodies := make([][]byte, 0, sample)
	for _, r := range s.hot {
		bodies = append(bodies, r.body)
	}
	for i := 0; len(bodies) < sample && i < len(s.fresh); i++ {
		bodies = append(bodies, s.fresh[i].body)
	}
	reqs := make([]daemon.PlanRequest, len(bodies))
	for i, b := range bodies {
		h := tr.begin("daemon.decode", int64(i), -1)
		err := json.Unmarshal(b, &reqs[i])
		tr.end(h, 1)
		if err != nil {
			return nil, fmt.Errorf("decoding body %d: %w", i, err)
		}
	}
	for i, req := range reqs {
		var inst model.Instance = req.Problem
		if req.Placement != nil {
			inst = req.Placement
		}
		h := tr.begin("daemon.canonical", int64(i), -1)
		sig, err := model.CanonicalSignature(inst)
		_ = model.CanonicalKey(req.Solver + "|" + sig)
		tr.end(h, 1)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < len(s.fresh) && i < sample; i++ {
		r := s.fresh[i]
		name := requestKinds[r.kind].solver
		fn, ok := engine.Solver(name)
		if !ok {
			return nil, fmt.Errorf("no registry solver %q", name)
		}
		h := tr.begin(solverSpan(name), int64(i), -1)
		res, err := fn(context.Background(), r.inst)
		if err != nil {
			tr.end(h, 0)
			return nil, fmt.Errorf("re-solving miss %d: %w", i, err)
		}
		tr.end(h, res.Evaluations)
	}
	tot := tr.totals()
	vals := map[string]float64{
		"daemon.decode_us":    perCall(tot, "daemon.decode"),
		"daemon.canonical_us": perCall(tot, "daemon.canonical"),
	}
	var solveMS []float64
	for _, name := range []string{"rfh-iterative", "idb", "greedy"} {
		for _, d := range tr.durations(solverSpan(name)) {
			solveMS = append(solveMS, ms(d))
		}
	}
	vals["daemon.solve_ms"] = median(solveMS)

	plans := s.hotPlans
	if len(plans) > probeInstances {
		plans = plans[:probeInstances]
	}
	dep, err := probeDeployment(tr, plans)
	if err != nil {
		return nil, err
	}
	var places []*placement.Instance
	for _, r := range s.hot {
		if pi, ok := r.inst.(*placement.Instance); ok && len(places) < probeInstances {
			places = append(places, pi)
		}
	}
	pl, err := probePlacement(tr, places)
	if err != nil {
		return nil, err
	}
	for k, v := range dep {
		vals[k] = v
	}
	for k, v := range pl {
		vals[k] = v
	}
	return vals, nil
}
