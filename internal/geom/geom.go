// Package geom provides the two-dimensional geometry primitives used by the
// deployment-and-routing model: points, distances, and deterministic random
// generation of post locations inside a rectangular field.
//
// All coordinates are in meters. Random generation is fully deterministic
// given a seed so that every experiment in the paper reproduction can be
// replayed bit-for-bit.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the deployment field, in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dist returns the Euclidean distance between p and q in meters.
func Dist(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for pure comparisons.
func Dist2(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + float64((q.X-p.X)*t), p.Y + float64((q.Y-p.Y)*t)}
}

// Field is a rectangular deployment area with its lower-left corner at the
// origin. The paper places the base station at the lower-left corner of a
// square field (Section VI-A).
type Field struct {
	Width  float64 `json:"width"`  // extent along X, meters
	Height float64 `json:"height"` // extent along Y, meters
}

// Square returns a side x side field, matching the paper's square
// deployment areas (200m x 200m and 500m x 500m).
func Square(side float64) Field {
	return Field{Width: side, Height: side}
}

// Contains reports whether p lies inside the field (inclusive of borders).
func (f Field) Contains(p Point) bool {
	return p.X >= 0 && p.X <= f.Width && p.Y >= 0 && p.Y <= f.Height
}

// Corner returns the lower-left corner of the field, where the paper
// locates the base station.
func (f Field) Corner() Point { return Point{0, 0} }

// RandomPoints draws n points uniformly at random inside the field using
// rng. The result is deterministic for a fixed rng state.
func (f Field) RandomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * f.Width, Y: rng.Float64() * f.Height}
	}
	return pts
}

// minSeparationAttempts bounds the rejection-sampling loop in
// RandomPointsMinSep before the separation constraint is relaxed.
const minSeparationAttempts = 64

// RandomPointsMinSep draws n points uniformly at random subject to a
// best-effort minimum pairwise separation minSep (meters). Separation keeps
// random post sets from degenerating into coincident posts, which would
// make "posts" indistinguishable from one multi-node post. If a candidate
// cannot be placed after a bounded number of attempts the constraint is
// waived for that point, so the function always returns n points.
func (f Field) RandomPointsMinSep(rng *rand.Rand, n int, minSep float64) []Point {
	pts := make([]Point, 0, n)
	minSep2 := minSep * minSep
	for len(pts) < n {
		placed := false
		for attempt := 0; attempt < minSeparationAttempts; attempt++ {
			cand := Point{X: float64(rng.Float64() * f.Width), Y: float64(rng.Float64() * f.Height)}
			ok := true
			for _, p := range pts {
				if Dist2(cand, p) < minSep2 {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, cand)
				placed = true
				break
			}
		}
		if !placed {
			pts = append(pts, Point{X: rng.Float64() * f.Width, Y: rng.Float64() * f.Height})
		}
	}
	return pts
}

// ClusteredPoints draws n points from `clusters` Gaussian blobs whose
// centres are uniform in the field; sigma is the blob's standard
// deviation in meters. Points are clamped to the field. Clustered
// layouts model villages/buildings in monitoring deployments, in
// contrast to RandomPoints' uniform scatter.
func (f Field) ClusteredPoints(rng *rand.Rand, n, clusters int, sigma float64) []Point {
	if clusters < 1 {
		clusters = 1
	}
	centers := f.RandomPoints(rng, clusters)
	pts := make([]Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		p := Point{
			X: c.X + float64(rng.NormFloat64()*sigma),
			Y: c.Y + float64(rng.NormFloat64()*sigma),
		}
		p.X = math.Min(math.Max(p.X, 0), f.Width)
		p.Y = math.Min(math.Max(p.Y, 0), f.Height)
		pts[i] = p
	}
	return pts
}

// Grid returns ceil(sqrt(n))^2 >= n points arranged on a regular grid and
// truncated to exactly n. Grid layouts give reproducible, well-spread post
// sets for examples and tests.
func (f Field) Grid(n int) []Point {
	if n <= 0 {
		return nil
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]Point, 0, n)
	for r := 0; r < side && len(pts) < n; r++ {
		for c := 0; c < side && len(pts) < n; c++ {
			pts = append(pts, Point{
				X: (float64(c) + 0.5) * f.Width / float64(side),
				Y: (float64(r) + 0.5) * f.Height / float64(side),
			})
		}
	}
	return pts
}

// BoundingBox returns the lower-left and upper-right corners of the
// axis-aligned bounding box of pts. Both are zero Points when pts is empty.
func BoundingBox(pts []Point) (lo, hi Point) {
	if len(pts) == 0 {
		return Point{}, Point{}
	}
	lo, hi = pts[0], pts[0]
	for _, p := range pts[1:] {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	return lo, hi
}
