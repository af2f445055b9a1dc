package energy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesPaperConstants(t *testing.T) {
	m := Default()
	if m.Alpha != 50 {
		t.Errorf("alpha = %v nJ/bit, paper uses 50", m.Alpha)
	}
	// beta = 0.0013 pJ/bit/m^4 = 1.3e-6 nJ/bit/m^4.
	if math.Abs(m.Beta-1.3e-6) > 1e-15 {
		t.Errorf("beta = %v nJ/bit/m^4, paper uses 1.3e-6", m.Beta)
	}
	if m.Gamma != 4 {
		t.Errorf("gamma = %v, paper uses 4", m.Gamma)
	}
	wantRanges := []float64{25, 50, 75}
	if len(m.Ranges) != len(wantRanges) {
		t.Fatalf("ranges = %v, want %v", m.Ranges, wantRanges)
	}
	for i, r := range wantRanges {
		if m.Ranges[i] != r {
			t.Errorf("range %d = %v, want %v", i, m.Ranges[i], r)
		}
	}
	// Spot-check the level energies: e1 = 50 + 1.3e-6 * 25^4.
	if got, want := m.TxEnergyAtLevel(0), 50+1.3e-6*390625.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("e1 = %v, want %v", got, want)
	}
	if got, want := m.TxEnergyAtLevel(2), 50+1.3e-6*31640625.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("e3 = %v, want %v", got, want)
	}
	if m.RxEnergy() != 50 {
		t.Errorf("e_r = %v, want alpha = 50", m.RxEnergy())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		alpha  float64
		beta   float64
		gamma  float64
		ranges []float64
	}{
		{"negative alpha", -1, 1, 2, []float64{10}},
		{"negative beta", 1, -1, 2, []float64{10}},
		{"gamma below 1", 1, 1, 0.5, []float64{10}},
		{"no ranges", 1, 1, 2, nil},
		{"zero range", 1, 1, 2, []float64{0, 10}},
		{"non-increasing ranges", 1, 1, 2, []float64{10, 10}},
		{"decreasing ranges", 1, 1, 2, []float64{20, 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.alpha, tc.beta, tc.gamma, tc.ranges); err == nil {
				t.Error("New accepted invalid parameters")
			}
		})
	}
	if _, err := New(50, 1.3e-6, 4, []float64{25, 50}); err != nil {
		t.Errorf("New rejected valid parameters: %v", err)
	}
}

func TestNewCopiesRanges(t *testing.T) {
	ranges := []float64{10, 20}
	m, err := New(1, 1, 2, ranges)
	if err != nil {
		t.Fatal(err)
	}
	ranges[0] = 999
	if m.Ranges[0] != 10 {
		t.Error("New aliased the caller's ranges slice")
	}
}

func TestLevelFor(t *testing.T) {
	m := Default()
	cases := []struct {
		d       float64
		want    int
		wantErr bool
	}{
		{0, 0, false},
		{10, 0, false},
		{25, 0, false}, // boundary: inclusive
		{25.01, 1, false},
		{50, 1, false},
		{74.99, 2, false},
		{75, 2, false},
		{75.01, 0, true},
		{1000, 0, true},
		{-1, 0, true},
	}
	for _, tc := range cases {
		lvl, err := m.LevelFor(tc.d)
		if tc.wantErr {
			if err == nil {
				t.Errorf("LevelFor(%v): want error", tc.d)
			}
			continue
		}
		if err != nil {
			t.Errorf("LevelFor(%v): %v", tc.d, err)
			continue
		}
		if lvl != tc.want {
			t.Errorf("LevelFor(%v) = %d, want %d", tc.d, lvl, tc.want)
		}
	}
	if _, err := m.TxEnergy(100); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("TxEnergy(100) error = %v, want ErrOutOfRange", err)
	}
}

func TestTxEnergyQuantisedMonotone(t *testing.T) {
	m := Default()
	// Energy is monotone non-decreasing in distance and constant within a
	// level band (the discrete-level behaviour of the paper's model).
	prev := 0.0
	for d := 0.0; d <= 75; d += 0.5 {
		e, err := m.TxEnergy(d)
		if err != nil {
			t.Fatalf("TxEnergy(%v): %v", d, err)
		}
		if e < prev {
			t.Fatalf("energy decreased at d=%v: %v < %v", d, e, prev)
		}
		prev = e
	}
	e20, _ := m.TxEnergy(20)
	e25, _ := m.TxEnergy(25)
	if e20 != e25 {
		t.Errorf("within-level energies differ: %v vs %v", e20, e25)
	}
	e26, _ := m.TxEnergy(26)
	if e26 <= e25 {
		t.Errorf("crossing a level boundary did not increase energy: %v <= %v", e26, e25)
	}
}

func TestWithLevels(t *testing.T) {
	if _, err := WithLevels(0); err == nil {
		t.Error("WithLevels(0) accepted")
	}
	for _, k := range []int{1, 3, 6} {
		m, err := WithLevels(k)
		if err != nil {
			t.Fatalf("WithLevels(%d): %v", k, err)
		}
		if m.Levels() != k {
			t.Errorf("Levels() = %d, want %d", m.Levels(), k)
		}
		if m.MaxRange() != float64(k)*25 {
			t.Errorf("MaxRange() = %v, want %v", m.MaxRange(), float64(k)*25)
		}
	}
}

func TestUniformRanges(t *testing.T) {
	rs := UniformRanges(4, 25)
	want := []float64{25, 50, 75, 100}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("UniformRanges = %v, want %v", rs, want)
		}
	}
}

func TestReachable(t *testing.T) {
	m := Default()
	if !m.Reachable(75) {
		t.Error("75m should be reachable")
	}
	if m.Reachable(75.5) {
		t.Error("75.5m should not be reachable")
	}
	if m.Reachable(-1) {
		t.Error("negative distance should not be reachable")
	}
}

func TestLevelForAlwaysCovers(t *testing.T) {
	m := Default()
	property := func(raw float64) bool {
		d := math.Mod(math.Abs(raw), m.MaxRange())
		lvl, err := m.LevelFor(d)
		if err != nil {
			return false
		}
		// The chosen level covers d, and the previous one (if any) does not.
		if m.Range(lvl) < d {
			return false
		}
		return lvl == 0 || m.Range(lvl-1) < d
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValidateMirrorsNew(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	m.Ranges = []float64{30, 20}
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted decreasing ranges")
	}
}
