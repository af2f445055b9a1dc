// Package energy implements the first-order radio energy model used
// throughout the paper (Eq. 1, parameters from Heinzelman et al.):
//
//	e_t(d) = alpha + beta * d^gamma   // transmit one bit to distance d
//	e_r    = alpha                    // receive one bit
//
// where alpha is the transceiver electronics energy, beta the amplifier
// coefficient and gamma the path-loss exponent (2..4).
//
// Nodes cannot transmit to arbitrary distances: they expose k discrete
// power levels with ranges d_1 < d_2 < ... < d_k, and a transmission to
// physical distance d must use the smallest level whose range covers d.
//
// All energies in this package are expressed in nanojoules per bit (nJ/bit)
// and all distances in meters. The paper's figures are reported in µJ;
// package experiments converts at the presentation layer.
package energy

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Paper default model constants (Section VI-A, citing Heinzelman et al.).
const (
	// DefaultAlpha is the transceiver electronics energy: 50 nJ/bit.
	DefaultAlpha = 50.0
	// DefaultBeta is the amplifier energy 0.0013 pJ/bit/m^4 converted to
	// nJ/bit/m^4 (1 pJ = 1e-3 nJ).
	DefaultBeta = 0.0013e-3
	// DefaultGamma is the path-loss exponent used in the evaluation.
	DefaultGamma = 4.0
	// DefaultRangeStep is the spacing of the paper's discrete transmission
	// ranges: levels i have range 25*i meters.
	DefaultRangeStep = 25.0
)

// ErrOutOfRange is returned when a transmission distance exceeds the
// maximum range of the model's highest power level.
var ErrOutOfRange = errors.New("energy: distance exceeds maximum transmission range")

// Model is a first-order radio energy model with discrete power levels.
// The zero value is not usable; construct with New or Default.
type Model struct {
	// Alpha is the electronics energy in nJ/bit (both tx and rx).
	Alpha float64 `json:"alpha"`
	// Beta is the amplifier coefficient in nJ/bit/m^Gamma.
	Beta float64 `json:"beta"`
	// Gamma is the path-loss exponent, typically in [2, 4].
	Gamma float64 `json:"gamma"`
	// Ranges holds the transmission range of each power level in meters,
	// strictly increasing: Ranges[i] is d_{i+1} in the paper's notation.
	Ranges []float64 `json:"ranges"`
}

// New constructs a Model after validating its parameters. Ranges must be
// non-empty, strictly increasing and positive.
func New(alpha, beta, gamma float64, ranges []float64) (Model, error) {
	if alpha < 0 || beta < 0 {
		return Model{}, fmt.Errorf("energy: alpha (%g) and beta (%g) must be non-negative", alpha, beta)
	}
	if gamma < 1 {
		return Model{}, fmt.Errorf("energy: gamma (%g) must be >= 1", gamma)
	}
	if len(ranges) == 0 {
		return Model{}, errors.New("energy: at least one transmission range is required")
	}
	prev := 0.0
	for i, r := range ranges {
		if r <= prev {
			return Model{}, fmt.Errorf("energy: ranges must be positive and strictly increasing (range %d = %g after %g)", i, r, prev)
		}
		prev = r
	}
	m := Model{Alpha: alpha, Beta: beta, Gamma: gamma, Ranges: append([]float64(nil), ranges...)}
	return m, nil
}

// Default returns the paper's evaluation model: alpha = 50 nJ/bit,
// beta = 0.0013 pJ/bit/m^4, gamma = 4, and ranges (25, 50, 75) m.
func Default() Model {
	m, err := New(DefaultAlpha, DefaultBeta, DefaultGamma, UniformRanges(3, DefaultRangeStep))
	if err != nil {
		// The constants are compile-time valid; this is unreachable.
		panic(err)
	}
	return m
}

// WithLevels returns the paper's model with k uniform 25m-step ranges
// {25, 50, ..., 25k}, as used in the Fig. 10 power-level sweep.
func WithLevels(k int) (Model, error) {
	if k < 1 {
		return Model{}, fmt.Errorf("energy: number of levels must be >= 1, got %d", k)
	}
	return New(DefaultAlpha, DefaultBeta, DefaultGamma, UniformRanges(k, DefaultRangeStep))
}

// UniformRanges returns the k ranges {step, 2*step, ..., k*step}.
func UniformRanges(k int, step float64) []float64 {
	rs := make([]float64, k)
	for i := range rs {
		rs[i] = float64(i+1) * step
	}
	return rs
}

// Levels returns the number of discrete power levels k.
func (m Model) Levels() int { return len(m.Ranges) }

// MaxRange returns d_max, the range of the highest power level.
func (m Model) MaxRange() float64 {
	if len(m.Ranges) == 0 {
		return 0
	}
	return m.Ranges[len(m.Ranges)-1]
}

// Range returns the transmission range of power level (0-based index).
func (m Model) Range(level int) float64 { return m.Ranges[level] }

// LevelFor returns the smallest power level (0-based) whose range covers
// distance d. It returns ErrOutOfRange when d exceeds MaxRange.
func (m Model) LevelFor(d float64) (int, error) {
	if d < 0 {
		return 0, fmt.Errorf("energy: negative distance %g", d)
	}
	i := sort.SearchFloat64s(m.Ranges, d)
	if i == len(m.Ranges) {
		return 0, fmt.Errorf("%w: %.2fm > %.2fm", ErrOutOfRange, d, m.MaxRange())
	}
	return i, nil
}

// TxEnergyAtLevel returns e_i, the energy (nJ) to transmit one bit using
// power level i, i.e. at the level's full range.
func (m Model) TxEnergyAtLevel(level int) float64 {
	return m.Alpha + float64(m.Beta*math.Pow(m.Ranges[level], m.Gamma))
}

// TxEnergy returns the energy (nJ) to transmit one bit to physical
// distance d, using the smallest covering power level (the discrete-level
// behaviour the paper's Phase I weight function prescribes). It returns
// ErrOutOfRange when no level reaches d.
func (m Model) TxEnergy(d float64) (float64, error) {
	level, err := m.LevelFor(d)
	if err != nil {
		return 0, err
	}
	return m.TxEnergyAtLevel(level), nil
}

// RxEnergy returns e_r, the energy (nJ) to receive one bit.
func (m Model) RxEnergy() float64 { return m.Alpha }

// Reachable reports whether a node can transmit to distance d at all.
func (m Model) Reachable(d float64) bool { return d >= 0 && d <= m.MaxRange() }

// Validate checks the model invariants; it mirrors New for models built
// from struct literals or decoded from JSON.
func (m Model) Validate() error {
	_, err := New(m.Alpha, m.Beta, m.Gamma, m.Ranges)
	return err
}
