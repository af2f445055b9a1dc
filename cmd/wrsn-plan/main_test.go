package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wrsn/internal/engine"
	"wrsn/internal/model"
	"wrsn/internal/solver"
)

// gen produces a small connected problem JSON for the other subcommands.
func gen(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	full := append([]string{"gen", "-side", "200", "-posts", "8", "-nodes", "24", "-seed", "3"}, args...)
	if err := run(full, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	return out.String()
}

func TestGenProducesValidProblem(t *testing.T) {
	problem := gen(t)
	if !strings.Contains(problem, `"posts"`) || !strings.Contains(problem, `"nodes": 24`) {
		t.Fatalf("unexpected gen output: %s", problem)
	}
}

// registryDeploymentNames lists the engine registry's deployment-capable
// solver names: exactly the names wrsn-plan solve must accept.
func registryDeploymentNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, info := range engine.Infos() {
		if slices.Contains(info.Kinds, model.KindDeployment) {
			names = append(names, info.Name)
		}
	}
	if len(names) == 0 {
		t.Fatal("registry lists no deployment solvers")
	}
	return names
}

func TestSolveAndCheckRoundTrip(t *testing.T) {
	problem := gen(t)
	problemPath := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(problemPath, []byte(problem), 0o600); err != nil {
		t.Fatal(err)
	}

	for _, algo := range registryDeploymentNames(t) {
		t.Run(algo, func(t *testing.T) {
			var solution, summary bytes.Buffer
			err := run([]string{"solve", "-algo", algo, "-summary"},
				strings.NewReader(problem), &solution, &summary)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if !strings.Contains(summary.String(), "8 posts, 24 nodes") {
				t.Errorf("summary missing header: %s", summary.String())
			}

			var checkOut bytes.Buffer
			err = run([]string{"check", "-problem", problemPath, "-map"},
				bytes.NewReader(solution.Bytes()), &checkOut, &bytes.Buffer{})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			out := checkOut.String()
			if !strings.Contains(out, "solution valid") {
				t.Errorf("check did not validate: %s", out)
			}
			if !strings.Contains(out, "@") || !strings.Contains(out, "BS") {
				t.Errorf("check -map missing renderings: %s", out)
			}
		})
	}
}

func TestSolveRejectsUnknownAlgorithm(t *testing.T) {
	problem := gen(t)
	err := run([]string{"solve", "-algo", "quantum"},
		strings.NewReader(problem), &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestSolveAcceptsRegistryNames pins wrsn-plan to the engine registry:
// a registered name that cannot solve deployment fails with the typed
// rejection, an unknown name's error lists every valid name, and the
// default algorithm is the registry's rfh-iterative.
func TestSolveAcceptsRegistryNames(t *testing.T) {
	problem := gen(t)
	solve := func(args ...string) ([]byte, error) {
		var out bytes.Buffer
		err := run(append([]string{"solve"}, args...), strings.NewReader(problem), &out, &bytes.Buffer{})
		return out.Bytes(), err
	}

	if _, err := solve("-algo", "greedy"); !errors.Is(err, solver.ErrUnsupportedInstance) {
		t.Errorf("placement-only greedy on a deployment problem: want ErrUnsupportedInstance, got %v", err)
	}

	_, err := solve("-algo", "quantum")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range registryDeploymentNames(t) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error does not list %q: %v", name, err)
		}
	}

	byDefault, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := solve("-algo", "rfh-iterative")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byDefault, explicit) {
		t.Errorf("default solve differs from -algo rfh-iterative:\n%s\nvs\n%s", byDefault, explicit)
	}
}

func TestCheckDetectsTamperedCost(t *testing.T) {
	problem := gen(t)
	problemPath := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(problemPath, []byte(problem), 0o600); err != nil {
		t.Fatal(err)
	}
	var solution bytes.Buffer
	if err := run([]string{"solve", "-algo", "rfh"}, strings.NewReader(problem), &solution, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(solution.String(), `"cost_nj": `, `"cost_nj": 1e9, "ignored": `, 1)
	if tampered == solution.String() {
		t.Fatalf("could not tamper with solution: %s", solution.String())
	}
	err := run([]string{"check", "-problem", problemPath},
		strings.NewReader(tampered), &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("tampered cost not detected: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("no-arg invocation accepted")
	}
	if err := run([]string{"frobnicate"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"check"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("check without -problem accepted")
	}
}

func TestCompareSubcommand(t *testing.T) {
	problem := gen(t)
	var out bytes.Buffer
	err := run([]string{"compare", "-optimal"},
		strings.NewReader(problem), &out, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	s := out.String()
	for _, frag := range []string{
		"solver comparison: 8 posts, 24 nodes",
		"rfh ", "rfh-iterative", "idb ", "idb-local-search",
		"local-search", "anneal", "auto", "optimal",
		"vs best (%)",
		"best solution:",
		"bottleneck:",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("compare output missing %q:\n%s", frag, s)
		}
	}
	if strings.Contains(s, "basic-rfh") {
		t.Errorf("compare still lists the retired basic-rfh name:\n%s", s)
	}
	// With -optimal included, no solver may sit below 0% vs best.
	if strings.Contains(s, "-0.0") {
		t.Errorf("negative gap vs best:\n%s", s)
	}
}

func TestGenErrorPaths(t *testing.T) {
	var out bytes.Buffer
	// Hopeless geometry: 3 posts in a 5km field cannot connect.
	err := run([]string{"gen", "-side", "5000", "-posts", "3", "-nodes", "6", "-seed", "1"},
		strings.NewReader(""), &out, &bytes.Buffer{})
	if err == nil {
		t.Error("disconnected geometry accepted")
	}
	if err := run([]string{"gen", "-levels", "0"}, strings.NewReader(""), &out, &bytes.Buffer{}); err == nil {
		t.Error("zero power levels accepted")
	}
}

func TestSolveRejectsMalformedProblem(t *testing.T) {
	err := run([]string{"solve"}, strings.NewReader("{not json"), &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil {
		t.Error("malformed problem JSON accepted")
	}
}

func TestCheckRejectsMissingProblemFile(t *testing.T) {
	err := run([]string{"check", "-problem", "/nonexistent/problem.json"},
		strings.NewReader("{}"), &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil {
		t.Error("missing problem file accepted")
	}
}
