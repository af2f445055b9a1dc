package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.p, tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestDistProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	symmetric := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return Dist(a, b) == Dist(b, a)
	}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	squaredConsistent := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		d, d2 := Dist(a, b), Dist2(a, b)
		if math.IsInf(d2, 1) || math.IsNaN(d2) {
			return true // overflowing inputs are out of scope
		}
		return math.Abs(d*d-d2) <= 1e-9*(1+d2)
	}
	if err := quick.Check(squaredConsistent, cfg); err != nil {
		t.Errorf("Dist2 consistency: %v", err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		// Bound inputs to avoid float overflow noise.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-6
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{1, 2}, Point{5, -2}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp(t=0) = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp(t=1) = %v, want %v", got, b)
	}
	mid := Lerp(a, b, 0.5)
	if want := (Point{3, 0}); mid != want {
		t.Errorf("Lerp(t=0.5) = %v, want %v", mid, want)
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Point{3, 4}, Point{1, -1}
	if got := p.Add(q); got != (Point{4, 3}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{2, 5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestFieldRandomPoints(t *testing.T) {
	f := Square(500)
	rng := rand.New(rand.NewSource(1))
	pts := f.RandomPoints(rng, 1000)
	if len(pts) != 1000 {
		t.Fatalf("got %d points, want 1000", len(pts))
	}
	for i, p := range pts {
		if !f.Contains(p) {
			t.Fatalf("point %d (%v) outside field", i, p)
		}
	}
	// Determinism: same seed, same points.
	again := f.RandomPoints(rand.New(rand.NewSource(1)), 1000)
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatalf("point %d differs across identical seeds: %v vs %v", i, pts[i], again[i])
		}
	}
}

func TestFieldRandomPointsMinSep(t *testing.T) {
	f := Square(1000)
	rng := rand.New(rand.NewSource(2))
	const minSep = 30.0
	pts := f.RandomPointsMinSep(rng, 50, minSep)
	if len(pts) != 50 {
		t.Fatalf("got %d points, want 50", len(pts))
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if Dist(pts[i], pts[j]) < minSep {
				t.Errorf("points %d and %d closer than %.0fm: %.2f", i, j, minSep, Dist(pts[i], pts[j]))
			}
		}
	}
	// Over-constrained requests still return the requested count.
	dense := f.RandomPointsMinSep(rng, 200, 900)
	if len(dense) != 200 {
		t.Errorf("over-constrained: got %d points, want 200", len(dense))
	}
}

func TestGrid(t *testing.T) {
	f := Square(100)
	for _, n := range []int{0, 1, 4, 7, 9, 10} {
		pts := f.Grid(n)
		if len(pts) != n {
			t.Errorf("Grid(%d) returned %d points", n, len(pts))
		}
		for _, p := range pts {
			if !f.Contains(p) {
				t.Errorf("Grid(%d) point %v outside field", n, p)
			}
		}
	}
	// A 4-point grid in a 100m square sits at the quarter points.
	pts := f.Grid(4)
	want := []Point{{25, 25}, {75, 25}, {25, 75}, {75, 75}}
	for i, w := range want {
		if Dist(pts[i], w) > 1e-9 {
			t.Errorf("Grid(4)[%d] = %v, want %v", i, pts[i], w)
		}
	}
}

func TestCentroidAndBoundingBox(t *testing.T) {
	pts := []Point{{0, 0}, {4, 0}, {4, 2}, {0, 2}}
	lo, hi := BoundingBox(pts)
	if lo != (Point{0, 0}) || hi != (Point{4, 2}) {
		t.Errorf("BoundingBox = %v, %v", lo, hi)
	}
}

func TestFieldHelpers(t *testing.T) {
	f := Field{Width: 10, Height: 20}
	if f.Corner() != (Point{0, 0}) {
		t.Errorf("Corner = %v", f.Corner())
	}
	if f.Contains(Point{10.1, 5}) {
		t.Error("Contains accepted a point past the width")
	}
	if !f.Contains(Point{10, 20}) {
		t.Error("Contains rejected the inclusive corner")
	}
}

func TestClusteredPointsDeterministic(t *testing.T) {
	f := Square(300)
	a := f.ClusteredPoints(rand.New(rand.NewSource(4)), 50, 3, 20)
	b := f.ClusteredPoints(rand.New(rand.NewSource(4)), 50, 3, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different clustered points at %d", i)
		}
	}
	// Degenerate cluster count clamps to 1 instead of panicking.
	c := f.ClusteredPoints(rand.New(rand.NewSource(5)), 10, 0, 15)
	if len(c) != 10 {
		t.Fatalf("got %d points", len(c))
	}
	for _, p := range c {
		if !f.Contains(p) {
			t.Fatalf("point %v escaped the field", p)
		}
	}
}
