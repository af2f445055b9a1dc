package charging

import (
	"fmt"
	"math"
	"math/rand"
)

// This file simulates the paper's Powercast field experiments (Section II).
// The hardware (a 903-927 MHz RF charger and rechargeable sensor nodes) is
// substituted by a calibrated propagation model that reproduces every
// observation the paper derives design decisions from:
//
//  1. Single-node efficiency is below 1% at 20cm and decays roughly
//     exponentially with charger-to-sensor distance.
//  2. Per-node received power is approximately constant as the number of
//     simultaneously charged nodes grows from 2 to 6 — i.e. the *network*
//     charging efficiency is near-linear in the node count.
//  3. Going from 1 to 2 nodes shows a noticeable per-node drop when the
//     sensors sit 5cm apart (mutual shadowing) and a smaller drop at 10cm.
//  4. With wider inter-sensor spacing the aggregate efficiency gain from
//     multi-node charging is larger.

// Table II of the paper: the parameter grid of the field experiments.
var (
	// TableIISensorCounts is the number of sensors charged simultaneously.
	TableIISensorCounts = []int{1, 2, 4, 6}
	// TableIIChargerDistances is the charger-to-sensor distance in meters
	// (20cm .. 100cm).
	TableIIChargerDistances = []float64{0.20, 0.40, 0.60, 0.80, 1.00}
	// TableIISensorSpacings is the sensor-to-sensor distance in meters.
	TableIISensorSpacings = []float64{0.05, 0.10}
	// TableIITrials is the number of repetitions per parameter setting.
	TableIITrials = 40
)

// Lab simulates the RF charging test bench. The zero value is invalid;
// start from DefaultLab and check edits with Validate.
type Lab struct {
	// TxPower is the charger's consumed power in milliwatts.
	TxPower float64
	// RefDistance is the calibration distance d0 in meters at which a
	// single node receives RefEfficiency of TxPower.
	RefDistance float64
	// RefEfficiency is the single-node efficiency at RefDistance; the
	// paper reports "less than 1%" at 20cm.
	RefEfficiency float64
	// Decay is the exponential path-loss rate kappa (1/m): received power
	// scales as exp(-kappa*(d-d0)).
	Decay float64
	// ShadowClose is the fractional per-node power loss from mutual
	// shadowing when >= 2 sensors sit at the close spacing.
	ShadowClose float64
	// CloseSpacing is the spacing (m) at which ShadowClose applies in
	// full; shadowing fades linearly to zero at 3*CloseSpacing, so at
	// double the close spacing the loss is half — matching the paper's
	// observation that the 1->2 sensor drop shrinks but persists at 10cm.
	CloseSpacing float64
	// NoiseStdDev is the relative standard deviation of trial noise
	// (fading, alignment jitter) applied multiplicatively per trial.
	NoiseStdDev float64
}

// DefaultLab returns a bench calibrated to the paper's qualitative report:
// a 3W charger, 0.67% single-node efficiency at 20cm decaying
// exponentially, 22% mutual shadowing at 5cm spacing fading out by 10cm+,
// and 6% trial noise.
func DefaultLab() Lab {
	return Lab{
		TxPower:       3000, // 3 W in mW (Powercast TX91501-class)
		RefDistance:   0.20,
		RefEfficiency: 0.0067,
		Decay:         3.5,
		ShadowClose:   0.22,
		CloseSpacing:  0.05,
		NoiseStdDev:   0.06,
	}
}

// Validate checks the physical plausibility of the bench parameters.
func (l Lab) Validate() error {
	switch {
	case l.TxPower <= 0:
		return fmt.Errorf("charging: lab TxPower must be positive, got %g", l.TxPower)
	case l.RefDistance <= 0:
		return fmt.Errorf("charging: lab RefDistance must be positive, got %g", l.RefDistance)
	case !(l.RefEfficiency > 0 && l.RefEfficiency < 1):
		return fmt.Errorf("charging: lab RefEfficiency must be in (0, 1), got %g", l.RefEfficiency)
	case l.Decay < 0:
		return fmt.Errorf("charging: lab Decay must be non-negative, got %g", l.Decay)
	case l.ShadowClose < 0 || l.ShadowClose >= 1:
		return fmt.Errorf("charging: lab ShadowClose must be in [0, 1), got %g", l.ShadowClose)
	case l.CloseSpacing <= 0:
		return fmt.Errorf("charging: lab CloseSpacing must be positive, got %g", l.CloseSpacing)
	case l.NoiseStdDev < 0:
		return fmt.Errorf("charging: lab NoiseStdDev must be non-negative, got %g", l.NoiseStdDev)
	}
	return nil
}

// SingleNodePower returns the noise-free received power (mW) of one node
// charged alone at distance d meters from the charger.
func (l Lab) SingleNodePower(d float64) float64 {
	return l.TxPower * l.RefEfficiency * math.Exp(-l.Decay*(d-l.RefDistance))
}

// shadowFactor returns the multiplicative per-node factor (<= 1) from
// mutual shadowing among m sensors spaced `spacing` meters apart. One node
// alone sees no shadowing; for m >= 2 the loss is ShadowClose at
// CloseSpacing and fades linearly to zero at 2*CloseSpacing and beyond.
// Per the field data, the factor is (approximately) independent of m for
// m in 2..6: once a neighbour exists the loss is incurred, and further
// nodes capture otherwise-wasted energy rather than stealing from peers.
func (l Lab) shadowFactor(m int, spacing float64) float64 {
	if m <= 1 {
		return 1
	}
	span := 2 * l.CloseSpacing // fade width: shadowing gone at 3*CloseSpacing
	excess := spacing - l.CloseSpacing
	if excess < 0 {
		excess = 0
	}
	fade := 1 - excess/span
	if fade < 0 {
		fade = 0
	}
	return 1 - float64(l.ShadowClose*fade)
}

// PerNodePower returns the noise-free expected received power (mW) per
// node when m sensors spaced `spacing` meters apart are charged
// simultaneously at distance d.
func (l Lab) PerNodePower(d float64, m int, spacing float64) (float64, error) {
	if m < 1 {
		return 0, errNonPositiveNodes
	}
	if d <= 0 {
		return 0, fmt.Errorf("charging: charger distance must be positive, got %g", d)
	}
	if spacing <= 0 && m > 1 {
		return 0, fmt.Errorf("charging: sensor spacing must be positive, got %g", spacing)
	}
	return l.SingleNodePower(d) * l.shadowFactor(m, spacing), nil
}

// NetworkEfficiency returns the fraction of charger power captured by the
// whole m-node group (noise-free).
func (l Lab) NetworkEfficiency(d float64, m int, spacing float64) (float64, error) {
	per, err := l.PerNodePower(d, m, spacing)
	if err != nil {
		return 0, err
	}
	return float64(m) * per / l.TxPower, nil
}

// Measurement is one aggregated cell of the field-experiment grid: the
// statistics of `Trials` noisy per-node power readings.
type Measurement struct {
	Sensors       int     `json:"sensors"`        // nodes charged simultaneously
	ChargerDist   float64 `json:"charger_dist_m"` // charger-to-sensor distance (m)
	Spacing       float64 `json:"spacing_m"`      // sensor-to-sensor distance (m)
	Trials        int     `json:"trials"`         // repetitions averaged
	MeanPerNodeMW float64 `json:"mean_per_node_mw"`
	StdDevMW      float64 `json:"stddev_mw"`
	NetworkEffPct float64 `json:"network_eff_pct"`  // m * mean / TxPower * 100
	PerNodeEffPct float64 `json:"per_node_eff_pct"` // mean / TxPower * 100
}

// MeasureCell runs `trials` noisy trials for one parameter setting and
// returns the aggregated Measurement. rng drives the multiplicative
// Gaussian trial noise and must not be nil when NoiseStdDev > 0.
func (l Lab) MeasureCell(rng *rand.Rand, m int, d, spacing float64, trials int) (Measurement, error) {
	if trials < 1 {
		return Measurement{}, fmt.Errorf("charging: trials must be >= 1, got %d", trials)
	}
	base, err := l.PerNodePower(d, m, spacing)
	if err != nil {
		return Measurement{}, err
	}
	var sum, sumSq float64
	for t := 0; t < trials; t++ {
		v := base
		if l.NoiseStdDev > 0 {
			noise := 1 + float64(rng.NormFloat64()*l.NoiseStdDev)
			if noise < 0 {
				noise = 0
			}
			v = base * noise
		}
		sum += v
		sumSq += float64(v * v)
	}
	mean := sum / float64(trials)
	variance := sumSq/float64(trials) - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	return Measurement{
		Sensors:       m,
		ChargerDist:   d,
		Spacing:       spacing,
		Trials:        trials,
		MeanPerNodeMW: mean,
		StdDevMW:      math.Sqrt(variance),
		NetworkEffPct: float64(m) * mean / l.TxPower * 100,
		PerNodeEffPct: mean / l.TxPower * 100,
	}, nil
}

// RunTableII sweeps the full Table II grid (sensor counts x charger
// distances x spacings, 40 trials each) and returns the measurements in
// deterministic order: spacing-major, then sensor count, then distance —
// the layout of Fig. 1's two sub-plots and their series.
func (l Lab) RunTableII(rng *rand.Rand) ([]Measurement, error) {
	out := make([]Measurement, 0, len(TableIISensorSpacings)*len(TableIISensorCounts)*len(TableIIChargerDistances))
	for _, spacing := range TableIISensorSpacings {
		for _, m := range TableIISensorCounts {
			for _, d := range TableIIChargerDistances {
				cell, err := l.MeasureCell(rng, m, d, spacing, TableIITrials)
				if err != nil {
					return nil, err
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}
