package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/solver"
)

// batchPoint is one problem shape of a batch workload.
type batchPoint struct {
	posts, nodes int
	layout       model.Layout
}

// batchSpec describes a batch workload: a pool of generated deployment
// problems, every one solved by every named registry solver through an
// engine.Run of its own with one worker.
type batchSpec struct {
	name   string
	side   float64
	points []batchPoint
	// perPoint is how many instances of each point the pool holds.
	perPoint int
	solvers  []string
	// sloMS is the latency limit for one instance solved by every solver.
	sloMS float64
	// pass is the share of --seconds one pass over the pool stands for
	// (see passes).
	pass time.Duration
	// exact marks the workload whose first solver is the exact optimum,
	// which every other solver must not beat.
	exact bool
}

// exactSmall is the Fig. 7 regime (200x200 m, optimal vs the heuristics)
// at the sizes where one run solves hundreds of instances: Fig. 7a's
// 10-post/20-node point and an 8-post/24-node point. Fig. 7b's 36 nodes at
// 10-12 posts take 0.5-6 s per branch-and-bound solve, so a 10 s run would
// see a handful of instances and its rate would follow the seed, not the
// code. A pass over the 700 instances takes about 2.3 s.
func exactSmall(sz size) batchSpec {
	s := batchSpec{
		name:     "exact-small",
		side:     200,
		points:   []batchPoint{{8, 24, model.LayoutUniform}, {10, 20, model.LayoutUniform}},
		perPoint: 350,
		solvers:  []string{"optimal", "idb", "rfh-iterative"},
		sloMS:    50,
		pass:     2500 * time.Millisecond,
		exact:    true,
	}
	if sz == tiny {
		s.points = []batchPoint{{6, 12, model.LayoutUniform}}
		s.perPoint = 100
	}
	return s
}

// largeHeuristic is the Fig. 8/9 regime: 500x500 m, 100-300 posts and
// 200-1000 nodes, half of the shapes with clustered posts. A pass over the
// 105 instances takes about 11.5 s.
func largeHeuristic(sz size) batchSpec {
	s := batchSpec{
		name: "large-heuristic",
		side: 500,
		points: []batchPoint{
			{100, 200, model.LayoutUniform},
			{100, 600, model.LayoutClustered},
			{100, 1000, model.LayoutUniform},
			{150, 600, model.LayoutClustered},
			{200, 600, model.LayoutUniform},
			{250, 600, model.LayoutClustered},
			{300, 600, model.LayoutUniform},
		},
		perPoint: 15,
		solvers:  []string{"idb", "rfh-iterative"},
		sloMS:    500,
		pass:     10 * time.Second,
	}
	if sz == tiny {
		s.side = 200
		s.points = []batchPoint{{20, 40, model.LayoutUniform}, {20, 60, model.LayoutClustered}}
		s.perPoint = 50
	}
	return s
}

// batch is a set-up batch workload.
type batch struct {
	spec   batchSpec
	insts  []*model.Problem
	fns    []engine.SolveFunc
	sweeps []*engine.Sweep // sweeps[i] solves instance i with every solver
	input  uint64

	// Filled by the sweeps' algorithms, indexed [solver][instance]; the
	// sweeps run one at a time with one worker, so cells never write
	// concurrently.
	results [][]*solver.Result
	// Set by run for the algorithms' spans.
	tr   *tracer
	root int
}

// newBatch generates the instance pool and one sweep per instance. Each
// sweep's single point returns its instance prepared, so generation is
// set-up work and never part of a timed cell.
func newBatch(spec batchSpec, seed int64) (*batch, error) {
	b := &batch{spec: spec}
	dg := newDigest()
	field := geom.Square(spec.side)
	for pi, pt := range spec.points {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pi)))
		for k := 0; k < spec.perPoint; k++ {
			p, err := model.GenerateProblem(rng, model.GenSpec{Field: field, Posts: pt.posts, Nodes: pt.nodes, Layout: pt.layout})
			if err != nil {
				return nil, fmt.Errorf("%s point %d instance %d: %w", spec.name, pi, k, err)
			}
			enc, err := json.Marshal(p)
			if err != nil {
				return nil, err
			}
			dg.bytes(enc)
			b.insts = append(b.insts, p)
		}
	}
	b.input = dg.sum()
	b.results = make([][]*solver.Result, len(spec.solvers))
	for ai, name := range spec.solvers {
		fn, ok := engine.Solver(name)
		if !ok {
			return nil, fmt.Errorf("no registry solver %q", name)
		}
		b.fns = append(b.fns, fn)
		b.results[ai] = make([]*solver.Result, len(b.insts))
	}
	for i, p := range b.insts {
		sw := &engine.Sweep{ID: spec.name, Seeds: 1, Points: []engine.Point{{
			X:   float64(i),
			Gen: func(*rand.Rand) (model.Instance, error) { return p, nil },
		}}}
		for ai := range b.fns {
			sw.Algorithms = append(sw.Algorithms, b.algorithm(ai, i))
		}
		b.sweeps = append(b.sweeps, sw)
	}
	return b, nil
}

// solverSpan names the span of one solve by a registry solver.
func solverSpan(name string) string { return "solver." + name }

// algorithm runs solver ai on pool instance i.
func (b *batch) algorithm(ai, i int) engine.Algorithm {
	name, fn := b.spec.solvers[ai], b.fns[ai]
	spanName := solverSpan(name)
	return engine.Algorithm{
		Label:   name,
		Outputs: []engine.SeriesSpec{{Label: name}},
		Run: func(ctx context.Context, in *engine.Instance) (engine.CellResult, error) {
			h := b.tr.begin(spanName, int64(i*len(b.fns)+ai), b.root)
			res, err := fn(ctx, in.Inst)
			if err != nil {
				b.tr.end(h, 0)
				return engine.CellResult{}, err
			}
			b.tr.end(h, res.Evaluations)
			b.results[ai][i] = res
			return engine.CellResult{Values: []float64{res.Cost / 1000}, Evaluations: res.Evaluations}, nil
		},
	}
}

func (b *batch) inputDigest() uint64 { return b.input }

func (b *batch) close() error { return nil }

// run makes passes(d) full passes over the pool, timing each instance's
// engine.Run. Every pass is checked; the cost and digest come from the
// first, and every later pass must reproduce its digest. A job's time is
// its fastest repeat, and the rate is the pool's cells over the sum of
// those times.
func (b *batch) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	b.tr = tr
	defer func() { b.tr = nil }()
	fastest := make([]time.Duration, len(b.insts))
	failed := make([]bool, len(b.insts))
	var retries int
	for pass := 0; pass < passes(d, b.spec.pass); pass++ {
		for ai := range b.results {
			clear(b.results[ai])
		}
		for i, sw := range b.sweeps {
			b.root = tr.begin("engine.Run", int64(i), -1)
			t0 := time.Now()
			res, err := engine.Run(ctx, sw, engine.RunConfig{Workers: 1})
			took := time.Since(t0)
			tr.end(b.root, int64(len(b.fns)))
			if res == nil {
				return nil, fmt.Errorf("%s pass %d: %w", b.spec.name, pass, err)
			}
			ph.attempted += len(b.fns)
			ph.failed += len(res.Failed)
			retries += res.Retries
			failed[i] = failed[i] || len(res.Failed) > 0
			if pass == 0 || took < fastest[i] {
				fastest[i] = took
			}
		}
		cost, dig := b.check(ph)
		if pass == 0 {
			ph.costUJ, ph.digest = cost, dig
		} else if dig != ph.digest {
			ph.checkf("pass %d result digest %016x differs from pass 0's %016x", pass, dig, ph.digest)
		}
	}
	ph.jobs = len(b.insts)
	for i, t := range fastest {
		if failed[i] {
			continue // a failed cell fails the job: no latency, counts against the limit
		}
		ph.elapsed += t
		ph.work += float64(len(b.fns))
		ph.lat = append(ph.lat, ms(t))
		if ms(t) <= b.spec.sloMS {
			ph.sloOK++
		}
	}
	ph.layer["engine.retries"] = float64(retries)
	return ph, nil
}

// check validates the pool's plans and returns their mean cost (µJ) and
// result digest.
func (b *batch) check(ph *phase) (float64, uint64) {
	dg := newDigest()
	var sum float64
	var plans int
	for ai, name := range b.spec.solvers {
		for i, p := range b.insts {
			res := b.results[ai][i]
			if res == nil {
				ph.checkf("%s: %s returned no plan for instance %d", b.spec.name, name, i)
				continue
			}
			if err := p.ValidateSolution(res.Deploy); err != nil {
				ph.checkf("%s instance %d: invalid deployment: %v", name, i, err)
				continue
			}
			oracle, err := model.Evaluate(p, res.Deploy, res.Tree)
			if err != nil {
				ph.checkf("%s instance %d: invalid plan: %v", name, i, err)
				continue
			}
			if oracle != res.Cost {
				ph.checkf("%s instance %d: reported cost %v re-prices to %v", name, i, res.Cost, oracle)
			}
			if b.spec.exact && ai > 0 {
				if opt := b.results[0][i]; opt != nil && opt.Cost > res.Cost*(1+1e-12) {
					ph.checkf("instance %d: optimal %v above %s %v", i, opt.Cost, name, res.Cost)
				}
			}
			dg.u64(uint64(ai))
			dg.f64(res.Cost)
			dg.ints(res.Deploy)
			dg.ints(res.Tree.Parent)
			sum += res.Cost / 1000
			plans++
		}
	}
	if plans == 0 {
		return 0, dg.sum()
	}
	return sum / float64(plans), dg.sum()
}

// probe times the layers below the solvers on the pool's first instances
// and their idb plans.
func (b *batch) probe(tr *tracer) (map[string]float64, error) {
	idb := -1
	for ai, name := range b.spec.solvers {
		if name == "idb" {
			idb = ai
		}
	}
	var plans []planned
	for i, p := range b.insts {
		if len(plans) == probeInstances {
			break
		}
		if idb < 0 || b.results[idb][i] == nil {
			return nil, fmt.Errorf("no idb plan for instance %d to probe", i)
		}
		plans = append(plans, planned{p, b.results[idb][i].Solution})
	}
	return probeDeployment(tr, plans)
}
