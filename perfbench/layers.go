package main

import (
	"fmt"
	"math/rand"
	"time"

	"wrsn/internal/graph"
	"wrsn/internal/heal"
	"wrsn/internal/model"
	"wrsn/internal/placement"
	"wrsn/internal/routing"
)

// layerMetrics is every per-layer metric, in the order BENCHMARK.json
// lists them. A traced run prints all of them; a layer the workload does
// not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"engine.cells", "count"},
	{"engine.cell_busy_s", "s"},
	{"engine.self_s", "s"},
	{"engine.retries", "count"},
	{"solver.optimal.calls", "count"},
	{"solver.optimal.busy_s", "s"},
	{"solver.optimal.evals", "count"},
	{"solver.optimal.evals_per_s", "1/s"},
	{"solver.idb.calls", "count"},
	{"solver.idb.busy_s", "s"},
	{"solver.idb.evals", "count"},
	{"solver.idb.evals_per_s", "1/s"},
	{"solver.rfh-iterative.calls", "count"},
	{"solver.rfh-iterative.busy_s", "s"},
	{"solver.rfh-iterative.evals", "count"},
	{"solver.rfh-iterative.evals_per_s", "1/s"},
	{"solver.greedy.calls", "count"},
	{"solver.greedy.busy_s", "s"},
	{"solver.greedy.evals", "count"},
	{"solver.greedy.evals_per_s", "1/s"},
	{"model.cost_us", "us"},
	{"model.probe_us", "us"},
	{"model.repairs_per_probe", "ratio"},
	{"model.fallback_ratio", "ratio"},
	{"model.cached_cost_us", "us"},
	{"model.commit_cached_us", "us"},
	{"model.cache_valid_ratio", "ratio"},
	{"model.bounded_probe_us", "us"},
	{"model.prune_ratio", "ratio"},
	{"model.oracle_cost_us", "us"},
	{"graph.dijkstra_us", "us"},
	{"graph.settled", "count"},
	{"routing.fattree_us", "us"},
	{"routing.trim_us", "us"},
	{"placement.probe_us", "us"},
	{"placement.cache_hits", "count"},
	{"daemon.decode_us", "us"},
	{"daemon.canonical_us", "us"},
	{"daemon.server_hit_ms", "ms"},
	{"daemon.transport_ms", "ms"},
	{"daemon.server_miss_ms", "ms"},
	{"daemon.solve_ms", "ms"},
	{"daemon.queue_depth", "count"},
	{"daemon.shed", "count"},
	{"daemon.hit_ratio", "ratio"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.miss_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"sim.new_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.failures", "count"},
	{"sim.repairs", "count"},
	{"heal.repair_us", "us"},
	{"trace.spans", "count"},
	{"trace.rate_overhead_frac", "fraction"},
	{"trace.p50_overhead_frac", "fraction"},
}

// probedSolvers are the registry solvers whose spans the report breaks out.
var probedSolvers = []string{"optimal", "idb", "rfh-iterative", "greedy"}

// layerValues assembles the per-layer numbers of a traced run: engine and
// solver figures from the traced phase's spans, the numbers each phase
// measured itself (the untraced phase's where both have one), and the
// layer probes.
func layerValues(tr *tracer, untraced, traced *phase, probed map[string]float64) map[string]float64 {
	vals := map[string]float64{}
	tot := tr.totals()
	if run := tot["engine.Run"]; run.spans > 0 {
		vals["engine.cells"] = float64(run.count)
		cellBusy := tr.childTime("engine.Run")
		vals["engine.cell_busy_s"] = cellBusy.Seconds()
		vals["engine.self_s"] = (run.busy - cellBusy).Seconds()
	}
	for _, name := range probedSolvers {
		lt := tot[solverSpan(name)]
		prefix := "solver." + name
		vals[prefix+".calls"] = float64(lt.spans)
		vals[prefix+".busy_s"] = lt.busy.Seconds()
		vals[prefix+".evals"] = float64(lt.count)
		if lt.busy > 0 {
			vals[prefix+".evals_per_s"] = float64(lt.count) / lt.busy.Seconds()
		}
	}
	for k, v := range traced.layer {
		vals[k] = v
	}
	for k, v := range untraced.layer {
		vals[k] = v
	}
	for k, v := range probed {
		vals[k] = v
	}
	return vals
}

// probeInstances bounds how many of a workload's instances the layer
// probes visit.
const probeInstances = 4

// probeBudget is how long one probe loop repeats its call.
const probeBudget = 20 * time.Millisecond

// planned pairs a deployment problem with a plan for it.
type planned struct {
	p   *model.Problem
	sol model.Solution
}

// perCall turns the spans of one name into mean µs per covered call.
func perCall(tot map[string]layerTotals, name string) float64 {
	lt := tot[name]
	if lt.count == 0 {
		return 0
	}
	return float64(lt.busy) / float64(time.Microsecond) / float64(lt.count)
}

// repeat calls fn in batches until probeBudget has passed, recording one
// span per batch covering its calls.
func repeat(tr *tracer, name string, id int64, fn func() error) error {
	const batch = 16
	start := time.Now()
	for time.Since(start) < probeBudget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		tr.add(name, id, -1, t0, time.Now(), batch)
	}
	return nil
}

// probeDeployment times the model, graph, routing and heal layers on
// plans, calling each layer's public functions on the workload's own
// instances. Timings come from the tracer's spans; ratios from the
// evaluators' own counters.
func probeDeployment(tr *tracer, plans []planned) (map[string]float64, error) {
	vals := map[string]float64{}
	var stats model.EvalStats
	var cacheCalls, cacheHits, bounded, pruned, settled, dijkstras int64
	for k, pl := range plans {
		id := int64(k)
		p, deploy := pl.p, []int(pl.sol.Deploy)
		n := p.N()

		ev, err := model.NewIncrementalEvaluator(p)
		if err != nil {
			return nil, err
		}
		if err := repeat(tr, "model.Cost", id, func() error { _, err := ev.Cost(deploy); return err }); err != nil {
			return nil, err
		}
		before := ev.Stats()
		moves := transferMoves(deploy, k)
		mi := 0
		if err := repeat(tr, "model.CostDelta+Revert", id, func() error {
			mv := moves[mi%len(moves)]
			mi++
			if _, err := ev.CostDelta(mv); err != nil {
				return err
			}
			return ev.Revert()
		}); err != nil {
			return nil, err
		}
		after := ev.Stats()
		stats.Probes += after.Probes - before.Probes
		stats.Repairs += after.Repairs - before.Repairs
		stats.Fallbacks += after.Fallbacks - before.Fallbacks

		// Bounded probes at limit = the committed cost, as branch and bound
		// issues them once its incumbent is the committed plan.
		limit, err := ev.Cost(deploy)
		if err != nil {
			return nil, err
		}
		mi = 0
		if err := repeat(tr, "model.CostDeltaBounded", id, func() error {
			mv := moves[mi%len(moves)]
			mi++
			_, pr, err := ev.CostDeltaBounded(mv, limit)
			if err != nil {
				return err
			}
			bounded++
			if pr {
				pruned++
				return nil
			}
			return ev.Revert()
		}); err != nil {
			return nil, err
		}

		ref, err := model.NewReferenceEvaluator(p)
		if err != nil {
			return nil, err
		}
		if err := repeat(tr, "model.ReferenceEvaluator.Cost", id, func() error { _, err := ref.Cost(deploy); return err }); err != nil {
			return nil, err
		}

		calls, hits, err := replayIDBRounds(tr, id, p)
		if err != nil {
			return nil, err
		}
		cacheCalls += calls
		cacheHits += hits

		g, err := p.BuildGraph(p.EnergyWeights())
		if err != nil {
			return nil, err
		}
		r := graph.NewRouter(g)
		if err := repeat(tr, "graph.Router.DistancesTo", id, func() error {
			dijkstras++
			_, err := r.DistancesTo(p.BSIndex())
			return err
		}); err != nil {
			return nil, err
		}
		settled += r.Settled()

		var dag *graph.DAG
		if err := repeat(tr, "model.Problem.FatTree", id, func() error {
			dag, err = p.FatTree(p.EnergyWeights())
			return err
		}); err != nil {
			return nil, err
		}
		if err := repeat(tr, "routing.Trim", id, func() error { _, err := routing.Trim(dag, n); return err }); err != nil {
			return nil, err
		}

		alive := deadNodes(deploy, int64(k))
		if err := repeat(tr, "heal.RepairTree", id, func() error {
			_, _, err := heal.RepairTree(p, pl.sol.Tree, alive, heal.Options{})
			return err
		}); err != nil {
			return nil, err
		}
	}
	tot := tr.totals()
	vals["model.cost_us"] = perCall(tot, "model.Cost")
	vals["model.probe_us"] = perCall(tot, "model.CostDelta+Revert")
	if stats.Probes > 0 {
		vals["model.repairs_per_probe"] = float64(stats.Repairs) / float64(stats.Probes)
		vals["model.fallback_ratio"] = float64(stats.Fallbacks) / float64(stats.Probes)
	}
	vals["model.cached_cost_us"] = perCall(tot, "model.CachedCost")
	vals["model.commit_cached_us"] = perCall(tot, "model.CommitCached")
	if cacheCalls > 0 {
		vals["model.cache_valid_ratio"] = float64(cacheHits) / float64(cacheCalls)
	}
	vals["model.bounded_probe_us"] = perCall(tot, "model.CostDeltaBounded")
	if bounded > 0 {
		vals["model.prune_ratio"] = float64(pruned) / float64(bounded)
	}
	vals["model.oracle_cost_us"] = perCall(tot, "model.ReferenceEvaluator.Cost")
	vals["graph.dijkstra_us"] = perCall(tot, "graph.Router.DistancesTo")
	if dijkstras > 0 {
		vals["graph.settled"] = float64(settled) / float64(dijkstras)
	}
	vals["routing.fattree_us"] = perCall(tot, "model.Problem.FatTree")
	vals["routing.trim_us"] = perCall(tot, "routing.Trim")
	vals["heal.repair_us"] = perCall(tot, "heal.RepairTree")
	return vals, nil
}

// transferMoves lists single-node transfers between posts of deploy (from
// a post holding more than one node), the probes local search and branch
// and bound issue. The choice of posts is seeded by salt.
func transferMoves(deploy []int, salt int) [][]model.Move {
	rng := rand.New(rand.NewSource(int64(salt) + 1))
	n := len(deploy)
	var out [][]model.Move
	for len(out) < 64 {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to || deploy[from] < 2 {
			if len(out) == 0 && allOnes(deploy) {
				// No post can give a node away: probe pure additions.
				return [][]model.Move{{{Post: to, Delta: 1}}}
			}
			continue
		}
		out = append(out, []model.Move{{Post: from, Delta: -1}, {Post: to, Delta: 1}})
	}
	return out
}

func allOnes(deploy []int) bool {
	for _, m := range deploy {
		if m > 1 {
			return false
		}
	}
	return true
}

// deadNodes returns alive counts for deploy with a seeded tenth of the
// posts dead and a further tenth down one node: the input a repair sees
// after failures.
func deadNodes(deploy []int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed + 7))
	alive := append([]int(nil), deploy...)
	n := len(alive)
	for k := 0; k < max(1, n/10); k++ {
		alive[rng.Intn(n)] = 0
	}
	for k := 0; k < n/10; k++ {
		if i := rng.Intn(n); alive[i] > 1 {
			alive[i]--
		}
	}
	return alive
}

// replayIDBRounds replays IDB's rounds on p through the probe-cache
// protocol — CachedCost for still-valid candidates, CostDelta+CacheProbe
// +Revert for the rest, CommitCached for the winner — with a span around
// every CachedCost and CommitCached call. It returns how many CachedCost
// lookups it made and how many hit.
func replayIDBRounds(tr *tracer, id int64, p *model.Problem) (calls, hits int64, err error) {
	const maxRounds = 40
	ev, err := model.NewIncrementalEvaluator(p)
	if err != nil {
		return 0, 0, err
	}
	n := p.N()
	ev.EnableProbeCache(n)
	cur := model.LowerBoundVector(p)
	if _, err := ev.Cost(cur); err != nil {
		return 0, 0, err
	}
	remaining := p.Nodes - n
	mv := make([]model.Move, 1)
	for round := 0; round < maxRounds && remaining > 0; round++ {
		best, bestCost := -1, 0.0
		for i := n - 1; i >= 0; i-- {
			t0 := time.Now()
			cost, ok := ev.CachedCost(i)
			calls++
			if ok {
				tr.add("model.CachedCost", id, -1, t0, time.Now(), 1)
				hits++
			} else {
				mv[0] = model.Move{Post: i, Delta: 1}
				if cost, err = ev.CostDelta(mv); err != nil {
					return 0, 0, err
				}
				ev.CacheProbe(i)
				if err := ev.Revert(); err != nil {
					return 0, 0, err
				}
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		t0 := time.Now()
		_, ok := ev.CommitCached(best)
		if ok {
			tr.add("model.CommitCached", id, -1, t0, time.Now(), 1)
		} else {
			mv[0] = model.Move{Post: best, Delta: 1}
			if _, err := ev.CostDelta(mv); err != nil {
				return 0, 0, err
			}
			if err := ev.Commit(); err != nil {
				return 0, 0, err
			}
		}
		cur[best]++
		remaining--
	}
	return calls, hits, nil
}

// probePlacement times the placement evaluator on insts: single-unit
// probes, and a greedy-growth replay through its probe cache whose hits
// it counts.
func probePlacement(tr *tracer, insts []*placement.Instance) (map[string]float64, error) {
	vals := map[string]float64{}
	var hits int64
	for k, inst := range insts {
		id := int64(k)
		ev, err := placement.NewIncrementalEvaluator(inst)
		if err != nil {
			return nil, err
		}
		cur := model.LowerBoundVector(inst)
		if _, err := ev.Cost(cur); err != nil {
			return nil, err
		}
		sites := inst.Dims()
		mv := make([]model.Move, 1)
		j := 0
		if err := repeat(tr, "placement.CostDelta+Revert", id, func() error {
			mv[0] = model.Move{Post: j % sites, Delta: 1}
			j++
			if _, err := ev.CostDelta(mv); err != nil {
				return err
			}
			return ev.Revert()
		}); err != nil {
			return nil, err
		}

		// Greedy growth as IDB runs it on a free-total instance: add the
		// best single charger while that lowers the cost.
		ev.EnableProbeCache(sites)
		curCost, err := ev.Cost(cur)
		if err != nil {
			return nil, err
		}
		for {
			best, bestCost := -1, curCost
			for s := 0; s < sites; s++ {
				if cur[s] >= inst.UpperBound(s) {
					continue
				}
				cost, ok := ev.CachedCost(s)
				if !ok {
					mv[0] = model.Move{Post: s, Delta: 1}
					if cost, err = ev.CostDelta(mv); err != nil {
						return nil, err
					}
					ev.CacheProbe(s)
					if err := ev.Revert(); err != nil {
						return nil, err
					}
				}
				if cost < bestCost {
					best, bestCost = s, cost
				}
			}
			if best < 0 {
				break
			}
			if _, ok := ev.CommitCached(best); !ok {
				mv[0] = model.Move{Post: best, Delta: 1}
				if _, err := ev.CostDelta(mv); err != nil {
					return nil, err
				}
				if err := ev.Commit(); err != nil {
					return nil, err
				}
			}
			cur[best]++
			curCost = bestCost
		}
		hits += ev.CacheHits()
	}
	vals["placement.probe_us"] = perCall(tr.totals(), "placement.CostDelta+Revert")
	vals["placement.cache_hits"] = float64(hits)
	return vals, nil
}
