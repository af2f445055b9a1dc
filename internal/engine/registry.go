package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"wrsn/internal/model"
	"wrsn/internal/solver"
)

// SolveFunc is the registry's solver shape: a context-aware map from a
// problem instance — any model.Instance, not just the deployment
// problem — to a solved result. Cancelling the context aborts the
// solver at its next cancellation point (round boundaries for RFH/IDB,
// evaluation batches for the exact search). A solver handed an instance
// kind it cannot solve returns an error unwrapping
// solver.ErrUnsupportedInstance instead of a result.
type SolveFunc func(ctx context.Context, inst model.Instance) (*solver.Result, error)

// SolverInfo describes one registry entry for listings (the
// cmd/wrsn-experiments -list-solvers mode): the registered name and the
// instance kinds the solver accepts.
type SolverInfo struct {
	Name  string
	Kinds []string
}

type registryEntry struct {
	fn    SolveFunc
	kinds []string
}

var registry = struct {
	sync.RWMutex
	m map[string]registryEntry
}{m: map[string]registryEntry{}}

// Register adds a named solver to the registry, declaring the instance
// kinds it accepts (kinds it is not registered for must still be
// rejected by the SolveFunc itself, with a typed
// solver.UnsupportedError — the declaration drives listings, not
// dispatch). Registering an empty name, a nil function, no kinds or a
// duplicate name panics: the registry is assembled at init time, so a
// bad registration is a programming error.
func Register(name string, kinds []string, fn SolveFunc) {
	if name == "" || fn == nil {
		panic("engine: Register needs a non-empty name and a non-nil solver")
	}
	if len(kinds) == 0 {
		panic(fmt.Sprintf("engine: solver %q registered with no instance kinds", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("engine: solver %q registered twice", name))
	}
	registry.m[name] = registryEntry{fn: fn, kinds: append([]string(nil), kinds...)}
}

// Solver returns the registered solver with the given name.
func Solver(name string) (SolveFunc, bool) {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.m[name]
	return e.fn, ok
}

// MustSolver returns the registered solver or panics — for spec tables
// whose names are compile-time constants.
func MustSolver(name string) SolveFunc {
	fn, ok := Solver(name)
	if !ok {
		panic(fmt.Sprintf("engine: no solver registered as %q (have %v)", name, Solvers()))
	}
	return fn
}

// Solvers returns every registered solver name, sorted.
func Solvers() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Infos returns every registry entry with the instance kinds each
// solver accepts, in fully stable order: entries sorted by name and
// each entry's kinds sorted lexically. Nothing about the registry map's
// iteration order or a registration's kind declaration order leaks into
// the result, so listings built on it (-list-solvers) are byte-stable
// across runs.
func Infos() []SolverInfo {
	registry.RLock()
	defer registry.RUnlock()
	infos := make([]SolverInfo, 0, len(registry.m))
	for name, e := range registry.m {
		kinds := append([]string(nil), e.kinds...)
		sort.Strings(kinds)
		infos = append(infos, SolverInfo{Name: name, Kinds: kinds})
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	return infos
}

// IDBSolver returns a SolveFunc running IDB with the given per-round
// increment δ (the paper's comparisons use δ = 1).
func IDBSolver(delta int) SolveFunc {
	return func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		return solver.IDB(ctx, inst, solver.IDBOptions{Delta: delta})
	}
}

// Kind sets the built-in registrations declare.
var (
	deploymentOnly = []string{model.KindDeployment}
	placementOnly  = []string{model.KindPlacement}
	allKinds       = []string{model.KindDeployment, model.KindPlacement}
)

// The built-in portfolio: every solver the repo implements, under the
// names the experiment specs and CLIs use. The generic search loops
// (IDB, local search, annealing, auto) solve both problem families
// through the instance seam; RFH is the deployment-specific structural
// exception, the exact solver's bound is only admissible for
// deployment, and "greedy" is each instance's own construction
// heuristic (only placement provides one).
func init() {
	Register("rfh", deploymentOnly, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		return solver.RFH(ctx, inst, solver.RFHOptions{Iterations: 1})
	})
	Register("rfh-iterative", deploymentOnly, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		return solver.RFH(ctx, inst, solver.RFHOptions{Iterations: solver.DefaultRFHIterations})
	})
	Register("idb", allKinds, IDBSolver(1))
	Register("local-search", allKinds, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		return solver.LocalSearch(ctx, inst, solver.LocalSearchOptions{})
	})
	Register("idb-local-search", allKinds, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		seed, err := IDBSolver(1)(ctx, inst)
		if err != nil {
			return nil, err
		}
		return solver.LocalSearch(ctx, inst, solver.LocalSearchOptions{Start: seed})
	})
	Register("anneal", allKinds, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		return solver.Anneal(ctx, inst, solver.AnnealOptions{Seed: 1})
	})
	Register("auto", allKinds, solver.Auto)
	Register("optimal", deploymentOnly, func(ctx context.Context, inst model.Instance) (*solver.Result, error) {
		return solver.Optimal(ctx, inst, solver.OptimalOptions{})
	})
	Register("greedy", placementOnly, solver.Greedy)
}
