// Command wrsn-plan solves a deployment-and-routing problem instance.
//
// Generate a random instance:
//
//	wrsn-plan gen -side 500 -posts 100 -nodes 600 -seed 1 > problem.json
//
// Solve it with any registered solver that accepts the deployment
// problem. The names are the engine registry's, the same ones wrsnd and
// wrsn-experiments use (wrsn-experiments -list-solvers prints them):
// rfh is basic RFH, rfh-iterative (the default) runs seven rounds.
//
//	wrsn-plan solve -algo idb < problem.json > solution.json
//
// Inspect a solution against its problem:
//
//	wrsn-plan check -problem problem.json -map < solution.json
//
// Compare every deployment solver on one problem:
//
//	wrsn-plan compare -optimal < problem.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"wrsn"
	"wrsn/internal/engine"
	"wrsn/internal/model"
	"wrsn/internal/render"
	"wrsn/internal/texttable"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-plan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: wrsn-plan <gen|solve|check> [flags]")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], stdout)
	case "solve":
		return runSolve(args[1:], stdin, stdout, stderr)
	case "check":
		return runCheck(args[1:], stdin, stdout)
	case "spares":
		return runSpares(args[1:], stdin, stdout)
	case "compare":
		return runCompare(args[1:], stdin, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, solve, check, spares or compare)", args[0])
	}
}

func runGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		side     = fs.Float64("side", 500, "square field side in meters")
		posts    = fs.Int("posts", 100, "number of posts")
		nodes    = fs.Int("nodes", 600, "number of sensor nodes")
		seed     = fs.Int64("seed", 1, "random seed")
		levels   = fs.Int("levels", 3, "number of transmission power levels (25m steps)")
		overhead = fs.Float64("overhead", 0, "per-post sensing/computation overhead (nJ per bit-round)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	em, err := wrsn.EnergyModelWithLevels(*levels)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	field := wrsn.Square(*side)
	const attempts = 1000
	for i := 0; i < attempts; i++ {
		p := &wrsn.Problem{
			Posts:         field.RandomPoints(rng, *posts),
			BS:            field.Corner(),
			Nodes:         *nodes,
			Energy:        em,
			Charging:      wrsn.DefaultChargingModel(),
			RoundOverhead: *overhead,
		}
		if p.Validate() == nil {
			return model.WriteProblem(stdout, p)
		}
	}
	return fmt.Errorf("no connected instance found in %d attempts; raise -posts or shrink -side", attempts)
}

func runSolve(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	var (
		algo    = fs.String("algo", "rfh-iterative", "solver: "+strings.Join(deploymentSolvers(), ", "))
		summary = fs.Bool("summary", false, "print a human-readable summary to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	solve, ok := engine.Solver(*algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want one of %s)", *algo, strings.Join(deploymentSolvers(), ", "))
	}
	p, err := model.ReadProblem(stdin)
	if err != nil {
		return err
	}
	res, err := solve(context.Background(), p)
	if err != nil {
		return err
	}
	if *summary {
		printSummary(stderr, p, &res.Solution)
	}
	return model.WriteSolution(stdout, &res.Solution)
}

// deploymentSolvers returns the sorted registry names whose solvers
// accept the deployment problem.
func deploymentSolvers() []string {
	var names []string
	for _, info := range engine.Infos() {
		if slices.Contains(info.Kinds, model.KindDeployment) {
			names = append(names, info.Name)
		}
	}
	return names
}

func runCheck(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	var (
		problemPath = fs.String("problem", "", "path to the problem JSON the solution belongs to")
		showMap     = fs.Bool("map", false, "render an ASCII field map and routing tree")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *problemPath == "" {
		return fmt.Errorf("check requires -problem")
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
	cost, err := wrsn.Evaluate(p, sol.Deploy, sol.Tree)
	if err != nil {
		return fmt.Errorf("solution invalid for problem: %w", err)
	}
	fmt.Fprintf(stdout, "solution valid; total recharging cost = %.4f nJ (%.4f µJ)\n", cost, cost/1000)
	if sol.Cost != 0 && !approxEqual(sol.Cost, cost) {
		return fmt.Errorf("recorded cost %.4f disagrees with evaluated %.4f", sol.Cost, cost)
	}
	report, err := model.BuildReport(p, sol.Deploy, sol.Tree)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, report.String())
	printSummary(stdout, p, sol)
	if *showMap {
		fieldMap, err := render.FieldMap(p, sol.Deploy, 72)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, fieldMap)
		treeView, err := render.TreeASCII(p, sol.Deploy, sol.Tree)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, treeView)
	}
	return nil
}

// runSpares inflates a solution's deployment for fault tolerance.
func runSpares(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("spares", flag.ContinueOnError)
	var (
		survive    = fs.Float64("survive", 0.9, "per-node mission survival probability")
		confidence = fs.Float64("confidence", 0.99, "required probability of keeping each post's planned strength")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sol, err := model.ReadSolution(stdin)
	if err != nil {
		return err
	}
	inflated, total, err := wrsn.ProvisionSpares(sol.Deploy, *survive, *confidence)
	if err != nil {
		return err
	}
	planned := sol.Deploy.Sum()
	fmt.Fprintf(stdout, "spare provisioning: survive=%.2f confidence=%.2f\n", *survive, *confidence)
	fmt.Fprintf(stdout, "planned %d nodes -> procure %d (%d spares, +%.1f%%)\n",
		planned, total, total-planned, float64(total-planned)/float64(planned)*100)
	t := texttable.New("", "post", "planned", "with spares")
	for i := range sol.Deploy {
		t.AddRow(i, sol.Deploy[i], inflated[i])
	}
	fmt.Fprintln(stdout, t.String())
	return nil
}

func approxEqual(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff <= 1e-9+float64(1e-9*scale)
}

func printSummary(w io.Writer, p *wrsn.Problem, sol *wrsn.Solution) {
	sizes := sol.Tree.SubtreeSizes(p)
	t := texttable.New(
		fmt.Sprintf("%d posts, %d nodes; cost %.4f µJ per round", p.N(), p.Nodes, sol.Cost/1000),
		"post", "nodes", "parent", "level", "subtree")
	for i := 0; i < p.N(); i++ {
		parent := "BS"
		if sol.Tree.Parent[i] < p.N() {
			parent = fmt.Sprint(sol.Tree.Parent[i])
		}
		t.AddRow(i, sol.Deploy[i], parent, sol.Tree.Level[i]+1, sizes[i])
	}
	fmt.Fprintln(w, t.String())
}

// runCompare solves one problem with every registered deployment
// solver and prints a quality/runtime comparison plus the winner's
// diagnostic report.
func runCompare(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	withOptimal := fs.Bool("optimal", false, "include the exact solver (small instances only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := model.ReadProblem(stdin)
	if err != nil {
		return err
	}
	var names []string
	for _, name := range deploymentSolvers() {
		if name != "optimal" || *withOptimal {
			names = append(names, name)
		}
	}

	t := texttable.New(
		fmt.Sprintf("solver comparison: %d posts, %d nodes", p.N(), p.Nodes),
		"solver", "cost (µJ)", "vs best (%)", "runtime (ms)", "max nodes/post")
	best := math.Inf(1)
	var bestRes *wrsn.Result
	type row struct {
		name    string
		res     *wrsn.Result
		elapsed time.Duration
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		start := time.Now()
		res, err := engine.MustSolver(name)(context.Background(), p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, row{name, res, time.Since(start)})
		if res.Cost < best {
			best = res.Cost
			bestRes = res
		}
	}
	for _, r := range rows {
		t.AddRow(r.name, r.res.Cost/1000, (r.res.Cost/best-1)*100,
			float64(r.elapsed.Microseconds())/1000, r.res.Deploy.Max())
	}
	fmt.Fprintln(stdout, t.String())

	report, err := wrsn.BuildReport(p, bestRes.Deploy, bestRes.Tree)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "best solution:")
	fmt.Fprintln(stdout, report.String())
	return nil
}
