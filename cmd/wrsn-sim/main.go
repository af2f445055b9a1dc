// Command wrsn-sim runs the round-based network + mobile-charger
// simulator on a solved instance and reports delivery, energy and charger
// metrics, optionally streaming a per-round CSV trace.
//
// Typical pipeline:
//
//	wrsn-plan gen -posts 25 -nodes 100 -side 300 > problem.json
//	wrsn-plan solve -algo rfh-iterative < problem.json > solution.json
//	wrsn-sim -problem problem.json -rounds 20000 -policy tour \
//	         -trace trace.csv < solution.json
//
// Omitting -solution/-stdin solving is deliberate: the simulator checks a
// *given* plan, it never plans itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wrsn/internal/model"
	"wrsn/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("wrsn-sim", flag.ContinueOnError)
	var (
		problemPath = fs.String("problem", "", "path to the problem JSON (required)")
		rounds      = fs.Int("rounds", 10000, "reporting rounds to simulate")
		packetBits  = fs.Int("packet-bits", 1000, "bits per report")
		battery     = fs.Float64("battery", 0, "battery capacity per node in nJ (0 = auto)")
		noCharger   = fs.Bool("no-charger", false, "disable the charger (lifetime study)")
		power       = fs.Float64("charger-power", 5e7, "charger dissemination per round while parked (nJ)")
		speed       = fs.Float64("charger-speed", 25, "charger travel speed (m per round)")
		policy      = fs.String("policy", "urgency", "charger policy: urgency, round-robin or tour")
		chargers    = fs.Int("chargers", 1, "number of chargers in the fleet")
		failure     = fs.Float64("failure-rate", 0, "per-node per-round probability of a permanent failure")
		transRate   = fs.Float64("transient-rate", 0, "per-node per-round probability of a transient outage")
		transMean   = fs.Float64("transient-mean", 50, "mean transient outage length in rounds (exponential)")
		outageRate  = fs.Float64("outage-rate", 0, "per-round probability of a spatially correlated post outage")
		outageRad   = fs.Float64("outage-radius", 0, "correlated-outage blast radius in meters")
		chFailure   = fs.Float64("charger-failure", 0, "per-charger per-round breakdown probability")
		chRepair    = fs.Int("charger-repair", 200, "rounds a broken charger stays out of service")
		killPosts   = fs.String("kill-post", "", "deterministic post kills as round:post pairs, e.g. 1000:3,2500:7")
		repair      = fs.Bool("repair", false, "enable online routing-tree repair after post deaths")
		repairLat   = fs.Int("repair-latency", 0, "rounds between detecting a dead post and the patched tree taking effect")
		linkLoss    = fs.Float64("link-loss", 0, "per-attempt transmission loss probability")
		retries     = fs.Int("max-retries", 8, "retransmission attempts per report per hop")
		seed        = fs.Int64("seed", 1, "simulation random seed")
		tracePath   = fs.String("trace", "", "write a per-round CSV trace to this file")
		traceEvery  = fs.Int("trace-every", 100, "trace sampling interval in rounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *problemPath == "" {
		return fmt.Errorf("-problem is required")
	}
	pf, err := os.Open(*problemPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	p, err := model.ReadProblem(pf)
	if err != nil {
		return err
	}
	sol, err := model.ReadSolution(stdin)
	if err != nil {
		return err
	}

	cfg := sim.Config{
		Problem:         p,
		Solution:        *sol,
		PacketBits:      *packetBits,
		BatteryCapacity: *battery,
		LinkLossProb:    *linkLoss,
		MaxRetries:      *retries,
		Seed:            *seed,
	}
	schedule, err := parseKillSchedule(*killPosts)
	if err != nil {
		return err
	}
	if *failure > 0 || *transRate > 0 || *outageRate > 0 || *chFailure > 0 || len(schedule) > 0 {
		cfg.Faults = &sim.FaultConfig{
			NodeFailurePerRound:    *failure,
			TransientPerRound:      *transRate,
			TransientMeanRounds:    *transMean,
			PostOutagePerRound:     *outageRate,
			OutageRadius:           *outageRad,
			ChargerFailurePerRound: *chFailure,
			ChargerRepairRounds:    *chRepair,
			Schedule:               schedule,
		}
	}
	if *repair {
		cfg.Repair = &sim.RepairConfig{LatencyRounds: *repairLat}
	}
	if !*noCharger {
		cfg.Charger = &sim.ChargerConfig{
			PowerPerRound: *power,
			SpeedPerRound: *speed,
			Policy:        sim.ChargerPolicy(*policy),
		}
		cfg.Chargers = *chargers
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}

	var tracer *sim.CSVTracer
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		tracer = sim.NewCSVTracer(tf, *traceEvery)
		s.SetTracer(tracer)
	}

	metrics, err := s.Run(*rounds)
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}

	analytic, err := s.AnalyticCostPerBitRound()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simulated %d rounds (%d posts, %d nodes)\n", metrics.Rounds, p.N(), p.Nodes)
	fmt.Fprintf(stdout, "  delivery:             %.2f%% (%d delivered, %d lost)\n",
		metrics.DeliveryRatio()*100, metrics.ReportsDelivered, metrics.ReportsLost)
	if metrics.FirstLossRound >= 0 {
		fmt.Fprintf(stdout, "  first loss:           round %d\n", metrics.FirstLossRound)
	}
	fmt.Fprintf(stdout, "  network consumed:     %.3f mJ\n", metrics.NetworkEnergy/1e6)
	if !*noCharger {
		fmt.Fprintf(stdout, "  charger disseminated: %.3f mJ over %d visits, %.0f m travelled\n",
			metrics.ChargerEnergy/1e6, metrics.ChargerVisits, metrics.ChargerDistance)
		empirical := metrics.EmpiricalCostPerBitRound(*packetBits)
		fmt.Fprintf(stdout, "  empirical cost:       %.4f nJ per bit-round (analytic %.4f, deviation %+.2f%%)\n",
			empirical, analytic, (empirical/analytic-1)*100)
	}
	if metrics.NodeFailures > 0 || metrics.TransientFaults > 0 || metrics.ChargerBreakdowns > 0 {
		fmt.Fprintf(stdout, "  injected faults:      %d permanent, %d transient, %d outages, %d charger breakdowns\n",
			metrics.NodeFailures, metrics.TransientFaults, metrics.CorrelatedOutages, metrics.ChargerBreakdowns)
	}
	if metrics.PostsDead > 0 {
		fmt.Fprintf(stdout, "  degradation:          %d posts dead, %d stranded\n", metrics.PostsDead, metrics.StrandedPosts)
		if metrics.FirstPartitionRound >= 0 {
			fmt.Fprintf(stdout, "  first partition:      round %d\n", metrics.FirstPartitionRound)
		}
	}
	st := s.CoreStats()
	fmt.Fprintf(stdout, "  simulator core:       %d spans, %d reduced rounds, %d event rounds\n",
		st.Spans, st.ReducedRounds, st.EventRounds)
	if *repair {
		fmt.Fprintf(stdout, "  repairs:              %d applied, mean latency %.1f rounds\n",
			metrics.Repairs, metrics.MeanRepairLatency())
		if metrics.Repairs > 0 {
			fmt.Fprintf(stdout, "  post-repair cost:     %.4f nJ per bit-round (%+.2f%% vs plan)\n",
				metrics.DegradedCost, metrics.RepairCostInflation*100)
		}
	}
	return nil
}

// parseKillSchedule turns "round:post,round:post,..." into deterministic
// kill-post fault events. An empty spec yields an empty schedule.
func parseKillSchedule(spec string) (sim.FaultSchedule, error) {
	if spec == "" {
		return nil, nil
	}
	var schedule sim.FaultSchedule
	for _, part := range strings.Split(spec, ",") {
		var round, post int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &round, &post); err != nil {
			return nil, fmt.Errorf("bad -kill-post entry %q (want round:post): %w", part, err)
		}
		schedule = append(schedule, sim.FaultEvent{Round: round, Kind: sim.FaultKillPost, Post: post})
	}
	return schedule, nil
}
