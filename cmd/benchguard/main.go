// Command benchguard fails CI when a figure's measured wall time
// regresses against a checked-in baseline artifact.
//
// Usage:
//
//	benchguard -baseline ci/fig6-baseline.json -current fig6.json -figure 6
//	benchguard -baseline ci/suite-baseline.json -current suite.json -total
//	benchguard -baseline ci/suite-baseline.json -current suite.json -each
//
// Both files are cmd/wrsn-experiments -bench artifacts. The guard
// compares the named figure's wall_seconds — or, with -total, the whole
// suite's total_wall_seconds, or with -each, every baseline figure's
// wall_seconds individually — and fails when
//
//	current > baseline*(1+tolerance) + slack
//
// -each catches a single figure regressing badly inside an otherwise
// healthy total (a 10x blowup on a 2-second figure moves a 70-second
// suite total by well under the noise floor).
//
// -total additionally requires the current artifact to cover exactly
// the baseline's figure set: a run of a figure subset (or an
// interrupted run whose artifact was hand-stripped of its partial
// marker) produces a small total that would otherwise always pass, so
// mismatched coverage is a hard error, not a pass.
//
// The relative tolerance catches genuine regressions (an accidental
// return to per-iteration graph rebuilds inflates figure 6 by orders of
// magnitude); the absolute slack absorbs runner heterogeneity — CI
// machines are slower and noisier than the machine that recorded the
// baseline, and sub-second measurements would otherwise flake. Guarded
// figures should be measured from a standalone run (one figure per
// invocation): under a shared worker pool a figure's wall clock also
// counts time spent waiting on co-scheduled figures' cells, which is
// why concurrent-run artifacts carry active_seconds separately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wrsn/internal/engine"
)

// artifact is the subset of cmd/wrsn-experiments' -bench payload the
// guard reads. Partial marks an artifact from an interrupted run: its
// wall times cover only the cells that completed before the interrupt,
// so they are not comparable to a full run's.
type artifact struct {
	Partial          bool            `json:"partial"`
	TotalWallSeconds float64         `json:"total_wall_seconds"`
	Figures          []engine.Timing `json:"figures"`
}

func loadArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

func (a *artifact) figure(path, figure string) (engine.Timing, error) {
	for _, tm := range a.Figures {
		if tm.Figure == figure {
			return tm, nil
		}
	}
	return engine.Timing{}, fmt.Errorf("%s: no figure %q in artifact", path, figure)
}

// check compares one figure's wall time and returns a human-readable
// verdict plus whether the current run is within budget.
func check(base, cur engine.Timing, tolerance, slack float64) (string, bool) {
	budget := float64(base.WallSeconds*(1+tolerance)) + slack
	msg := fmt.Sprintf("figure %s: baseline %.3fs, current %.3fs, budget %.3fs (+%.0f%% +%.1fs)",
		base.Figure, base.WallSeconds, cur.WallSeconds, budget, 100*tolerance, slack)
	return msg, cur.WallSeconds <= budget
}

// coverageMatch verifies the current run covers exactly the baseline's
// figure set — a subset run (or a hand-stripped partial) would otherwise
// trivially pass any aggregate or per-figure sweep.
func coverageMatch(baseArt, curArt *artifact) error {
	baseSet := make(map[string]bool, len(baseArt.Figures))
	for _, tm := range baseArt.Figures {
		baseSet[tm.Figure] = true
	}
	curSet := make(map[string]bool, len(curArt.Figures))
	for _, tm := range curArt.Figures {
		curSet[tm.Figure] = true
	}
	for fig := range baseSet {
		if !curSet[fig] {
			return fmt.Errorf("current artifact is missing figure %q from the baseline suite; runs are not comparable", fig)
		}
	}
	for fig := range curSet {
		if !baseSet[fig] {
			return fmt.Errorf("current artifact has figure %q absent from the baseline suite; runs are not comparable", fig)
		}
	}
	return nil
}

// checkTotal compares two artifacts' suite totals under the same
// budget formula, after verifying the current run covers exactly the
// baseline's figures.
func checkTotal(baseArt, curArt *artifact, tolerance, slack float64) (string, bool, error) {
	if err := coverageMatch(baseArt, curArt); err != nil {
		return "", false, err
	}
	budget := float64(baseArt.TotalWallSeconds*(1+tolerance)) + slack
	msg := fmt.Sprintf("suite total: baseline %.3fs, current %.3fs, budget %.3fs (+%.0f%% +%.1fs, %d figures)",
		baseArt.TotalWallSeconds, curArt.TotalWallSeconds, budget, 100*tolerance, slack, len(baseArt.Figures))
	return msg, curArt.TotalWallSeconds <= budget, nil
}

// checkEach applies the per-figure budget to every figure in the
// baseline, reporting all verdicts and failing if any figure blew its
// budget. Coverage must match exactly, as for -total.
func checkEach(baseArt, curArt *artifact, tolerance, slack float64, out *os.File) error {
	if err := coverageMatch(baseArt, curArt); err != nil {
		return err
	}
	var failed []string
	for _, base := range baseArt.Figures {
		cur, err := curArt.figure("current", base.Figure)
		if err != nil {
			return err
		}
		msg, ok := check(base, cur, tolerance, slack)
		if !ok {
			failed = append(failed, msg)
			fmt.Fprintln(out, "benchguard: FAIL", msg)
			continue
		}
		fmt.Fprintln(out, "benchguard: ok  ", msg)
	}
	if len(failed) > 0 {
		return fmt.Errorf("wall-time regression on %d of %d figures: %s", len(failed), len(baseArt.Figures), failed[0])
	}
	return nil
}

func run(args []string, out, errOut *os.File) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		baseline  = fs.String("baseline", "", "checked-in bench artifact to compare against")
		current   = fs.String("current", "", "freshly measured bench artifact")
		figure    = fs.String("figure", "6", "figure id to guard")
		total     = fs.Bool("total", false, "guard the suite's total_wall_seconds instead of one figure (requires matching figure coverage)")
		each      = fs.Bool("each", false, "guard every baseline figure's wall_seconds individually (requires matching figure coverage)")
		tolerance = fs.Float64("tolerance", 0.20, "allowed relative wall-time regression")
		slack     = fs.Float64("slack", 2.0, "allowed absolute wall-time regression in seconds (runner noise floor)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline == "" || *current == "" {
		return fmt.Errorf("both -baseline and -current are required")
	}
	baseArt, err := loadArtifact(*baseline)
	if err != nil {
		return err
	}
	// A partial baseline is a configuration error: an interrupted run's
	// timings would make every future comparison meaningless.
	if baseArt.Partial {
		return fmt.Errorf("%s: baseline artifact is partial (interrupted run); re-record it from a complete run", *baseline)
	}
	curArt, err := loadArtifact(*current)
	if err != nil {
		return err
	}
	// A partial current run carries no comparable timing — flag it and
	// skip the comparison rather than failing CI on an interrupt.
	if curArt.Partial {
		fmt.Fprintf(out, "benchguard: %s is partial (interrupted run); skipping wall-time comparison\n", *current)
		return nil
	}
	if *each {
		return checkEach(baseArt, curArt, *tolerance, *slack, out)
	}
	if *total {
		msg, ok, err := checkTotal(baseArt, curArt, *tolerance, *slack)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("wall-time regression: %s", msg)
		}
		fmt.Fprintln(out, "benchguard:", msg)
		return nil
	}
	base, err := baseArt.figure(*baseline, *figure)
	if err != nil {
		return err
	}
	cur, err := curArt.figure(*current, *figure)
	if err != nil {
		return err
	}
	msg, ok := check(base, cur, *tolerance, *slack)
	if !ok {
		return fmt.Errorf("wall-time regression: %s", msg)
	}
	fmt.Fprintln(out, "benchguard:", msg)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
