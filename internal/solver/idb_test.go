package solver

import (
	"context"
	"fmt"
	"testing"

	"wrsn/internal/deploy"
	"wrsn/internal/geom"
	"wrsn/internal/model"
)

// commitRecorder records the moves of every committed probe: in IDB's
// δ>1 rounds each commit is one round's winner.
type commitRecorder struct {
	model.Evaluator
	last    []model.Move
	commits [][]model.Move
}

func (r *commitRecorder) CostDelta(moves []model.Move) (float64, error) {
	r.last = append(r.last[:0], moves...)
	return r.Evaluator.CostDelta(moves)
}

func (r *commitRecorder) Commit() error {
	r.commits = append(r.commits, append([]model.Move(nil), r.last...))
	return r.Evaluator.Commit()
}

// referenceRound runs one δ>1 IDB round the direct way: every
// composition of delta over the posts priced from scratch by the
// reference evaluator against base, ordered by (cost within costSlack,
// then lexicographic placement).
func referenceRound(t *testing.T, ref model.Evaluator, n, delta int) []int {
	t.Helper()
	var best []int
	var bestCost float64
	less := func(cost float64, extra []int) bool {
		if cost < bestCost-costSlack {
			return true
		}
		if cost > bestCost+costSlack {
			return false
		}
		for i := range extra {
			if extra[i] != best[i] {
				return extra[i] < best[i]
			}
		}
		return false
	}
	var moves []model.Move
	err := deploy.ForEachComposition(n, delta, func(extra []int) bool {
		moves = moves[:0]
		for i, e := range extra {
			if e != 0 {
				moves = append(moves, model.Move{Post: i, Delta: e})
			}
		}
		cost, err := ref.CostDelta(moves)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Revert(); err != nil {
			t.Fatal(err)
		}
		if best == nil || less(cost, extra) {
			best, bestCost = append([]int(nil), extra...), cost
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return best
}

// mirroredProblem reflects a random half-instance across the vertical
// line through its base station, so each post has a twin at exactly
// the same distances and mirrored placements tie in cost.
func mirroredProblem(t *testing.T, seed int64, n, m int) *model.Problem {
	t.Helper()
	half := randomProblem(t, seed, 250, n/2, n/2)
	p := *half
	p.Posts = nil
	p.BS = geom.Point{}
	for _, pt := range half.Posts {
		p.Posts = append(p.Posts, geom.Point{X: pt.X - half.BS.X, Y: pt.Y - half.BS.Y})
	}
	for _, pt := range p.Posts[:n/2] {
		p.Posts = append(p.Posts, geom.Point{X: -pt.X, Y: pt.Y})
	}
	p.Nodes = m
	return &p
}

// TestIDBRoundsMatchReference: with compositions visited in ascending
// lexicographic order, IDB's δ>1 test cost < bestCost-costSlack picks
// the winner of the (cost, lexicographic placement) order in every
// round, on random instances and on mirrored ones whose twin posts tie.
func TestIDBRoundsMatchReference(t *testing.T) {
	ctx := context.Background()
	const n, extra = 10, 24 // 24 nodes past the floor: whole rounds at δ = 2, 3, 4
	insts := map[string]*model.Problem{}
	for seed := int64(1); seed <= 6; seed++ {
		insts[fmt.Sprintf("random-%d", seed)] = randomProblem(t, seed, 250, n, n+extra)
		insts[fmt.Sprintf("mirrored-%d", seed)] = mirroredProblem(t, seed, n, n+extra)
	}
	for name, p := range insts {
		for _, delta := range []int{2, 3, 4} {
			ev, err := p.NewEvaluator()
			if err != nil {
				t.Fatal(err)
			}
			rec := &commitRecorder{Evaluator: ev}
			if _, _, err := idbSearch(ctx, p, rec, delta); err != nil {
				t.Fatalf("%s δ=%d: %v", name, delta, err)
			}
			if len(rec.commits) != extra/delta {
				t.Fatalf("%s δ=%d: %d commits, want %d rounds", name, delta, len(rec.commits), extra/delta)
			}
			ref, err := model.NewReferenceEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			cur := model.LowerBoundVector(p)
			if _, err := ref.Cost(cur); err != nil {
				t.Fatal(err)
			}
			for round, moves := range rec.commits {
				want := referenceRound(t, ref, n, delta)
				got := make([]int, n)
				for _, mv := range moves {
					got[mv.Post] += mv.Delta
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s δ=%d round %d: IDB placed %v, reference %v", name, delta, round, got, want)
					}
					cur[i] += want[i]
				}
				if _, err := ref.Cost(cur); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
