// Island-monitoring: the paper's motivating scenario (its Fig. 2 shows
// posts scattered over an island with the base station at the shore).
// We synthesise an island-shaped post layout — an elliptical landmass
// with a central lagoon no post can occupy — plan deployment and routing
// with three solvers, render the field, and then run a two-month
// simulation with node failures and a tour-driving charger.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"wrsn"
	"wrsn/internal/render"
	"wrsn/internal/sim"
)

const (
	fieldSide = 400.0
	numPosts  = 45
	numNodes  = 200
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("island: ")

	p := buildIsland(3)
	fmt.Printf("island survey: %d posts, %d sensor nodes, base station at the shore %v\n\n",
		p.N(), p.Nodes, p.BS)

	// Plan with three solvers.
	rfh, err := wrsn.SolveIterativeRFH(p)
	if err != nil {
		log.Fatal(err)
	}
	idb, err := wrsn.SolveIDB(p, 1)
	if err != nil {
		log.Fatal(err)
	}
	polished, err := wrsn.SolveLocalSearch(p, wrsn.LocalSearchOptions{Start: idb})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %8.3f µJ per reporting round\n", "iterative RFH:", rfh.Cost/1000)
	fmt.Printf("%-24s %8.3f µJ\n", "IDB (δ=1):", idb.Cost/1000)
	fmt.Printf("%-24s %8.3f µJ\n\n", "IDB + local search:", polished.Cost/1000)

	fieldMap, err := render.FieldMap(p, polished.Deploy, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fieldMap)

	// Two months of reporting (one report per post per 10 minutes):
	// ~8640 rounds, with occasional permanent node failures.
	s, err := sim.New(sim.Config{
		Problem:  p,
		Solution: polished.Solution,
		Charger: &sim.ChargerConfig{
			PowerPerRound: 5e7,
			SpeedPerRound: 20,
			Policy:        sim.PolicyTour,
		},
		PacketBits: 1000,
		// Per-node failure odds tuned so the fleet loses one node every
		// ~2000 rounds; the repair policy re-routes around dead posts.
		Faults: &sim.FaultConfig{NodeFailurePerRound: 0.0005 / numNodes},
		Repair: &sim.RepairConfig{},
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	metrics, err := s.Run(8640)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-month simulation (tour-charging, sporadic failures, self-healing):\n")
	fmt.Printf("  delivery:          %.2f%%\n", metrics.DeliveryRatio()*100)
	fmt.Printf("  node failures:     %d of %d nodes (%d posts lost, %d tree repairs)\n",
		metrics.NodeFailures, p.Nodes, metrics.PostsDead, metrics.Repairs)
	fmt.Printf("  charger travelled: %.1f km over %d charge visits\n",
		metrics.ChargerDistance/1000, metrics.ChargerVisits)
	fmt.Printf("  charger energy:    %.1f mJ (network consumed %.1f mJ)\n",
		metrics.ChargerEnergy/1e6, metrics.NetworkEnergy/1e6)
}

// buildIsland places posts uniformly over an elliptical island with a
// central lagoon excluded, re-drawing until the network is connected at
// maximum transmission range.
func buildIsland(seed int64) *wrsn.Problem {
	rng := rand.New(rand.NewSource(seed))
	center := wrsn.Point{X: fieldSide / 2, Y: fieldSide / 2}
	onIsland := func(pt wrsn.Point) bool {
		dx := (pt.X - center.X) / (fieldSide * 0.48)
		dy := (pt.Y - center.Y) / (fieldSide * 0.38)
		inEllipse := float64(dx*dx)+float64(dy*dy) <= 1
		lagoon := math.Hypot(pt.X-center.X, pt.Y-center.Y) < fieldSide*0.10
		return inEllipse && !lagoon
	}
	for {
		posts := make([]wrsn.Point, 0, numPosts)
		for len(posts) < numPosts {
			cand := wrsn.Point{X: float64(rng.Float64() * fieldSide), Y: float64(rng.Float64() * fieldSide)}
			if onIsland(cand) {
				posts = append(posts, cand)
			}
		}
		// The base station sits on the south shore, below the landmass.
		p := &wrsn.Problem{
			Posts:    posts,
			BS:       wrsn.Point{X: fieldSide / 2, Y: fieldSide * 0.08},
			Nodes:    numNodes,
			Energy:   wrsn.DefaultEnergyModel(),
			Charging: wrsn.DefaultChargingModel(),
		}
		if p.Validate() == nil {
			return p
		}
	}
}
