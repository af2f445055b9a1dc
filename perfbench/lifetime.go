package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/sim"
)

// lifetimeSpec describes the lifetime-sim workload: Fig. 8-scale plans,
// solved during set-up, simulated over several battery lifetimes with a
// mobile charger, failures and online repair.
type lifetimeSpec struct {
	side         float64
	posts, nodes int
	// plans are solved by these registry solvers in turn.
	plans   int
	solvers []string
	rounds  int
	// jobsPerPlan is how many failure seeds each plan is simulated under.
	jobsPerPlan int
	charger     sim.ChargerConfig
	faults      sim.FaultConfig
	repair      sim.RepairConfig
	// sloMS is the per-run latency limit.
	sloMS float64
	// pass is the share of --seconds one pass over the jobs stands for
	// (see passes).
	pass time.Duration
}

func lifetimeSpecFor(sz size) lifetimeSpec {
	s := lifetimeSpec{
		side: 500, posts: 100, nodes: 600,
		plans: 20, solvers: []string{"idb", "rfh-iterative"},
		rounds:      3 * sim.DefaultBatteryRounds,
		jobsPerPlan: 5,
		// A slow charger that has to choose where to go, unlike the
		// teleporting one the repair study uses.
		charger: sim.ChargerConfig{PowerPerRound: 1e9, SpeedPerRound: 25},
		faults: sim.FaultConfig{
			NodeFailurePerRound: 1e-4,
			TransientPerRound:   1e-4,
			TransientMeanRounds: 50,
		},
		repair: sim.RepairConfig{LatencyRounds: 10},
		sloMS:  150,
		// A pass over the 100 jobs takes about 5.5 s; a 20 s run makes five.
		pass: 4 * time.Second,
	}
	if sz == tiny {
		s.side, s.posts, s.nodes = 250, 20, 80
		s.plans, s.rounds, s.jobsPerPlan = 2, 1500, 50
	}
	return s
}

// packetBits is the report size the simulations run with.
const packetBits = 1000

// lifetime is a set-up lifetime-sim workload.
type lifetime struct {
	spec  lifetimeSpec
	seed  int64
	plans []planned
	input uint64
}

// newLifetime generates the problems and solves their plans.
func newLifetime(spec lifetimeSpec, seed int64) (*lifetime, error) {
	l := &lifetime{spec: spec, seed: seed}
	rng := rand.New(rand.NewSource(seed*104_729 + 11))
	dg := newDigest()
	for i := 0; i < spec.plans; i++ {
		p, err := model.GenerateProblem(rng, model.GenSpec{Field: geom.Square(spec.side), Posts: spec.posts, Nodes: spec.nodes})
		if err != nil {
			return nil, fmt.Errorf("lifetime problem %d: %w", i, err)
		}
		name := spec.solvers[i%len(spec.solvers)]
		fn, ok := engine.Solver(name)
		if !ok {
			return nil, fmt.Errorf("no registry solver %q", name)
		}
		res, err := fn(context.Background(), p)
		if err != nil {
			return nil, fmt.Errorf("planning lifetime problem %d: %w", i, err)
		}
		dg.ints(res.Deploy)
		dg.ints(res.Tree.Parent)
		dg.f64(res.Cost)
		l.plans = append(l.plans, planned{p, res.Solution})
	}
	l.input = dg.sum()
	return l, nil
}

func (l *lifetime) inputDigest() uint64 { return l.input }

func (l *lifetime) close() error { return nil }

// run simulates the fixed job set — every plan under jobsPerPlan failure
// seeds — in passes(d) full passes. A job's time is its fastest repeat and
// the rate is the simulated rounds over the sum of those times; the cost
// and digest come from the first pass, which every later pass must
// reproduce.
func (l *lifetime) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	jobs := len(l.plans) * l.spec.jobsPerPlan
	fastest := make([]time.Duration, jobs)
	rounds := make([]int, jobs)
	failed := make([]bool, jobs)
	var failures, repairs int64
	for pass := 0; pass < passes(d, l.spec.pass); pass++ {
		dg := newDigest()
		var costSum float64
		for j := 0; j < jobs; j++ {
			ph.attempted++
			m, audit, took, err := l.simulate(ctx, tr, j)
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				failed[j] = true
				ph.checkf("job %d: %v", j, err)
				continue
			}
			if pass == 0 || took < fastest[j] {
				fastest[j] = took
			}
			scale := audit.InitialStored + audit.Received
			if imb := audit.Imbalance(); math.Abs(imb) > 1e-9*scale {
				ph.checkf("job %d: energy imbalance %g nJ of %g", j, imb, scale)
			}
			if pass == 0 {
				rounds[j] = m.Rounds
				failures += m.NodeFailures
				repairs += m.Repairs
			}
			costSum += m.EmpiricalCostPerBitRound(packetBits) / 1000
			dg.u64(uint64(m.ReportsDelivered))
			dg.u64(uint64(m.ReportsLost))
			dg.u64(uint64(m.NodeFailures))
			dg.u64(uint64(m.Repairs))
			dg.f64(m.ChargerEnergy)
			dg.f64(m.NetworkEnergy)
			dg.f64(audit.Residual)
		}
		if pass == 0 {
			ph.costUJ, ph.digest = costSum/float64(jobs), dg.sum()
		} else if dg.sum() != ph.digest {
			ph.checkf("pass %d result digest %016x differs from pass 0's %016x", pass, dg.sum(), ph.digest)
		}
	}
	ph.jobs = jobs
	for j, t := range fastest {
		if failed[j] {
			continue // a failed run has no latency and counts against the limit
		}
		ph.elapsed += t
		ph.work += float64(rounds[j])
		ph.lat = append(ph.lat, ms(t))
		if ms(t) <= l.spec.sloMS {
			ph.sloOK++
		}
	}
	ph.layer["sim.failures"] = float64(failures) / float64(jobs)
	ph.layer["sim.repairs"] = float64(repairs) / float64(jobs)
	return ph, nil
}

// simulate runs job j: plan j mod plans under failure seed j.
func (l *lifetime) simulate(ctx context.Context, tr *tracer, j int) (*sim.Metrics, sim.EnergyAudit, time.Duration, error) {
	pl := l.plans[j%len(l.plans)]
	charger, faults, repair := l.spec.charger, l.spec.faults, l.spec.repair
	cfg := sim.Config{
		Problem:    pl.p,
		Solution:   pl.sol,
		Charger:    &charger,
		Faults:     &faults,
		Repair:     &repair,
		Seed:       l.seed*1_000_003 + int64(j),
		PacketBits: packetBits,
	}
	root := tr.begin("sim.job", int64(j), -1)
	t0 := time.Now()
	h := tr.begin("sim.New", int64(j), root)
	s, err := sim.New(cfg)
	tr.end(h, 1)
	var m *sim.Metrics
	if err == nil {
		h = tr.begin("sim.RunCtx", int64(j), root)
		m, err = s.RunCtx(ctx, l.spec.rounds)
		tr.end(h, int64(l.spec.rounds))
	}
	took := time.Since(t0)
	tr.end(root, 1)
	if err != nil {
		return nil, sim.EnergyAudit{}, took, err
	}
	return m, s.AuditEnergy(), took, nil
}

// probe reports the simulator's span timings and probes the layers below
// on the workload's plans.
func (l *lifetime) probe(tr *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	for name, key := range map[string]string{"sim.New": "sim.new_ms", "sim.RunCtx": "sim.run_ms"} {
		var xs []float64
		for _, d := range tr.durations(name) {
			xs = append(xs, ms(d))
		}
		vals[key] = median(xs)
	}
	plans := l.plans
	if len(plans) > probeInstances {
		plans = plans[:probeInstances]
	}
	dep, err := probeDeployment(tr, plans)
	if err != nil {
		return nil, err
	}
	for k, v := range dep {
		vals[k] = v
	}
	return vals, nil
}
