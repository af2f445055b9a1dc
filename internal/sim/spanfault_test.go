package sim

import (
	"fmt"
	"testing"

	"wrsn/internal/geom"
)

// The event core fires sampled node faults inside its spans (spanFault).
// These tests drive every way such a fault can end or shorten a span by
// placing chosen onsets on both cores' sampled heaps, check that the
// onset round really runs inside a span and where that span ends, and
// then hold the event core to the exact stepper bit for bit, with and
// without a tracer.

// spanFaults configures every sampled hazard at a rate that never fires
// on its own, so the only onsets are the ones withOnsets places; fired
// ones re-arm far beyond the run. Transient outages last a few rounds.
func spanFaults(charger bool) *FaultConfig {
	fc := &FaultConfig{
		NodeFailurePerRound: 1e-12,
		TransientPerRound:   1e-12,
		TransientMeanRounds: 3,
		PostOutagePerRound:  1e-12,
		OutageRadius:        40,
	}
	if charger {
		fc.ChargerFailurePerRound = 1e-12
		fc.ChargerRepairRounds = 30
	}
	return fc
}

// withOnsets replaces the fault engine's sampled heap with the given
// onsets. Both cores get the same heap and the same RNG state, so they
// share one realisation.
func withOnsets(onsets ...pendingFault) func(*Simulator) {
	return func(s *Simulator) {
		s.faults.pending = s.faults.pending[:0]
		for _, f := range onsets {
			s.faults.push(f)
		}
	}
}

// probe runs the exact stepper's step() for `rounds` rounds on an
// event-mode simulator and snapshots the span ahead, so a test can read
// which posts operate and what the chargers do before an onset.
func probe(t *testing.T, cfg Config, prep func(*Simulator), rounds int) *Simulator {
	t.Helper()
	s := newCore(t, cfg, StepperEvent, prep)
	for r := 0; r < rounds; r++ {
		s.step()
	}
	s.computeSpan()
	return s
}

// spanAt runs the event core through round f-1, then one span, which
// must start at round f, and returns the simulator and the span's length.
func spanAt(t *testing.T, cfg Config, prep func(*Simulator), f, maxL int) (*Simulator, int) {
	t.Helper()
	s := newCore(t, cfg, StepperEvent, prep)
	if _, err := s.Run(f - 1); err != nil {
		t.Fatal(err)
	}
	l := s.eventHorizon(maxL)
	if l > 0 {
		s.computeSpan()
		l = s.spanLength(l)
	}
	if l == 0 {
		t.Fatalf("round %d runs through step(), not inside a span", f)
	}
	return s, s.fastForward(l)
}

// kills returns permanent onsets at round f for the post's nodes 0..n-1.
func kills(f, post, n int) []pendingFault {
	out := make([]pendingFault, n)
	for j := range out {
		out[j] = pendingFault{f, rankPermanent, post, j}
	}
	return out
}

// postWith returns the first operational post from index `from` on that
// holds at least `nodes` nodes, or exactly one node when nodes is 1.
func postWith(t *testing.T, s *Simulator, nodes, from int) int {
	t.Helper()
	for i := from; i < len(s.posts); i++ {
		if n := len(s.posts[i].Nodes); (n == nodes || (nodes > 1 && n >= nodes)) && s.span.op[i] {
			return i
		}
	}
	t.Fatalf("no operational post with %d nodes from post %d", nodes, from)
	return -1
}

func TestEventCoreSpanFaultExits(t *testing.T) {
	p, sol := testNetwork(t, 16, 250, 15, 60) // has one-node posts
	idle := Config{
		Problem:  p,
		Solution: sol,
		Charger:  &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: 15, Policy: PolicyUrgency},
		Faults:   spanFaults(true),
		Seed:     7,
	}
	const f, rounds = 40, 1500
	base := probe(t, idle, withOnsets(), f-1)
	if c := base.chargers[0]; c.target >= 0 {
		t.Fatalf("charger targets post %d before round %d; want it idle", c.target, f)
	}
	single := postWith(t, base, 1, 0)
	multi := postWith(t, base, 4, 0)
	multi2 := postWith(t, base, 2, multi+1)

	t.Run("claimed-target", func(t *testing.T) {
		// Every post starts starved and needy, and the charger's speed
		// takes it 2f rounds to reach its first target, so at round f it
		// is still travelling there. Killing the target's every node
		// flips no flow (the post was starved) but makes it done, so the
		// stepper's round-f charger phase releases it.
		cfg := idle
		cfg.InitialChargeFrac = 1e-6
		first := probe(t, cfg, withOnsets(), 1).chargers[0].target
		cfg.Charger = &ChargerConfig{PowerPerRound: 5e5, SpeedPerRound: geom.Dist(p.BS, p.Posts[first]) / (2 * f), Policy: PolicyUrgency}
		s := probe(t, cfg, withOnsets(), f-1)
		c := s.chargers[0]
		if c.target < 0 || c.pos == s.p.Posts[c.target] || s.span.op[c.target] {
			t.Fatalf("charger not travelling to a starved post before round %d (target %d)", f, c.target)
		}
		prep := withOnsets(kills(f, c.target, sol.Deploy[c.target])...)
		if _, k := spanAt(t, cfg, prep, f, 500); k != 1 {
			t.Errorf("a fault on the claimed target ran %d span rounds, want the span to end at its round", k)
		}
		diffRunPrep(t, "claimed-target", cfg, prep, rounds)
	})

	t.Run("flow-flip", func(t *testing.T) {
		// Killing, or taking down, a one-node post's only node starves it:
		// its report stops and its parent's need changes.
		for _, rank := range []int8{rankPermanent, rankTransient} {
			prep := withOnsets(pendingFault{f, rank, single, 0})
			if _, k := spanAt(t, idle, prep, f, 500); k != 1 {
				t.Errorf("rank %d: starving post %d ran %d span rounds, want the span to end at its round", rank, single, k)
			}
			diffRunPrep(t, fmt.Sprintf("flow-flip-%d", rank), idle, prep, rounds)
		}
	})

	t.Run("repair-cap", func(t *testing.T) {
		// Without a charger the network depletes. Kill every node of a
		// post that already starves: the post's flow does not flip, and
		// the span runs on to the round before the repair lands.
		const latency = 10
		cfg := Config{Problem: p, Solution: sol, Faults: spanFaults(false), Repair: &RepairConfig{LatencyRounds: latency}, Seed: 7}
		fd, victim := 0, -1
		for fd = 2000; fd < 4000 && victim < 0; fd += 25 {
			s := probe(t, cfg, withOnsets(), fd-1)
			if s.spanLength(3*latency) < 3*latency {
				continue // a starvation onset is due: not a clean span
			}
			for i := range s.posts {
				if !s.span.op[i] && s.posts[i].AliveCount() > 0 {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			t.Fatal("no starved live post in a clean span")
		}
		fd -= 25
		prep := withOnsets(kills(fd, victim, sol.Deploy[victim])...)
		s, k := spanAt(t, cfg, prep, fd, 500)
		if !s.repairPending || k != latency+1 {
			t.Errorf("post %d's death at round %d: span of %d rounds (repair pending %v), want %d", victim, fd, k, s.repairPending, latency+1)
		}
		diffRunPrep(t, "repair-cap", cfg, prep, 3*DefaultBatteryRounds)
	})

	t.Run("starve-after-kill", func(t *testing.T) {
		// Without a charger, kill all but one node of a post: the survivor
		// alone pays the post's whole need, and the span must end before
		// it starves, well short of the span the intact network gets.
		cfg := idle
		cfg.Charger = nil
		cfg.Faults = spanFaults(false)
		prep := withOnsets(kills(f, multi, sol.Deploy[multi]-1)...)
		_, intact := spanAt(t, cfg, withOnsets(), f, 5000)
		if s, k := spanAt(t, cfg, prep, f, 5000); k <= 1 || k >= intact || !s.span.op[multi] {
			t.Errorf("post %d's survivor: span of %d rounds (operational %v), want 1 < k < %d", multi, k, s.span.op[multi], intact)
		}
		diffRunPrep(t, "starve-after-kill", cfg, prep, 2*DefaultBatteryRounds)
	})

	t.Run("short-transient", func(t *testing.T) {
		// A transient on a post with spare nodes keeps the span going,
		// but only through the round before the node recovers.
		prep := withOnsets(pendingFault{f, rankTransient, multi, 0})
		s, k := spanAt(t, idle, prep, f, 500)
		du := s.posts[multi].Nodes[0].DownUntil
		if du < f || k != du-(f-1) {
			t.Errorf("transient down through round %d: span of %d rounds from round %d, want %d", du, k, f, du-(f-1))
		}
		diffRunPrep(t, "short-transient", idle, prep, rounds)
	})

	t.Run("outage-breakdown", func(t *testing.T) {
		// A correlated outage or a charger breakdown in the round of a
		// node onset ends the span there.
		node := pendingFault{f, rankPermanent, multi, 1}
		outage := pendingFault{f, rankOutage, -1, -1}
		breakdown := pendingFault{f, rankCharger, 0, -1}
		for _, tc := range []struct {
			name   string
			onsets []pendingFault
		}{
			{"outage", []pendingFault{node, outage}},
			{"breakdown", []pendingFault{node, breakdown}},
			{"both", []pendingFault{node, outage, breakdown}},
		} {
			prep := withOnsets(tc.onsets...)
			if _, k := spanAt(t, idle, prep, f, 500); k != 1 {
				t.Errorf("%s: ran %d span rounds, want the span to end at its round", tc.name, k)
			}
			diffRunPrep(t, "outage-breakdown-"+tc.name, idle, prep, rounds)
		}
	})

	t.Run("two-onsets-one-post", func(t *testing.T) {
		// Two permanents and a transient strike one post in one round,
		// with another post's kill between them in heap order, so the
		// post is touched twice; the span carries on.
		prep := withOnsets(
			pendingFault{f, rankPermanent, multi, 0},
			pendingFault{f, rankPermanent, multi2, 0},
			pendingFault{f, rankTransient, multi, 1},
			pendingFault{f, rankPermanent, multi, 2},
		)
		s, k := spanAt(t, idle, prep, f, 500)
		if k <= 1 {
			t.Errorf("span ended at the onset round (%d rounds)", k)
		}
		if s.metrics.NodeFailures != 3 || s.metrics.TransientFaults != 1 {
			t.Errorf("fired %d failures and %d transients, want 3 and 1", s.metrics.NodeFailures, s.metrics.TransientFaults)
		}
		diffRunPrep(t, "two-onsets-one-post", idle, prep, rounds)
	})
}
