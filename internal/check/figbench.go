package check

import (
	"context"
	"fmt"
	"time"

	"ibsim/internal/experiments"
	"ibsim/internal/synth"
)

// FigureBench records the Figure 3 + Figure 4 sweep-engine benchmark: both
// figures rendered through the original per-configuration path and through
// the single-pass sweep path, with the byte-identity and speedup verdicts.
// cmd/ibscheck embeds it in BENCH_ibsim.json as the "figure34" stage.
type FigureBench struct {
	// Instructions is the per-workload scale both paths ran at.
	Instructions int64 `json:"instructions"`
	// PerConfigSeconds and SweepSeconds are the wall-clock times of the two
	// paths (trace generation excluded — the store is warmed first).
	PerConfigSeconds float64 `json:"perconfig_seconds"`
	SweepSeconds     float64 `json:"sweep_seconds"`
	// Speedup is PerConfigSeconds / SweepSeconds.
	Speedup float64 `json:"speedup"`
	// Identical reports whether the two paths rendered byte-identical
	// figures — a hard requirement.
	Identical bool `json:"identical"`
	// Passed is the stage verdict: identical output, and (at golden scale)
	// no more than a 20% speedup regression against the recorded baseline.
	Passed bool `json:"passed"`
	// Detail summarizes the comparison.
	Detail string `json:"detail"`
}

// figure34MinSpeedup gates speedup regressions at the pinned golden scale:
// the run fails if the measured speedup falls below 80% of the recorded
// baseline (figure34GoldenSpeedup in golden.go), i.e. a >20% regression of
// the sweep engine relative to the per-config path. The ratio-of-ratios form
// keeps the gate machine-independent.
const figure34RegressionFraction = 0.8

// RunFigureBench times Figures 3 and 4 through both execution paths and
// verifies the sweep path's output and performance. The trace store is
// warmed (and held) for the duration, so the timings isolate simulation
// cost, matching how the figures run inside a long-lived process.
func RunFigureBench(opt Options) (*FigureBench, error) {
	opt = opt.withDefaults()
	fb := &FigureBench{Instructions: opt.Instructions}

	// Hold every workload's trace in both forms the paths read — refs for
	// the per-config path, runs for the sweep path — so neither pays (or is
	// charged for) generation, and the store cannot evict between the two
	// timings.
	releases := make([]func(), 0, 2*len(opt.Workloads))
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	for _, p := range opt.Workloads {
		_, release, err := synth.DefaultStore.Instr(p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: figure bench: warming %s: %w", p.Name, err)
		}
		releases = append(releases, release)
		_, release, err = synth.DefaultStore.RunsOnly(context.Background(), p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: figure bench: warming %s runs: %w", p.Name, err)
		}
		releases = append(releases, release)
	}

	render := func(eo experiments.Options) (string, error) {
		f3, err := experiments.Figure3(eo)
		if err != nil {
			return "", err
		}
		f4, err := experiments.Figure4(eo)
		if err != nil {
			return "", err
		}
		return f3.Render() + f4.Render(), nil
	}

	eo := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed}
	perCfg := eo
	perCfg.PerConfig = true

	start := time.Now()
	refOut, err := render(perCfg)
	if err != nil {
		return nil, fmt.Errorf("check: figure bench: per-config path: %w", err)
	}
	fb.PerConfigSeconds = time.Since(start).Seconds()

	start = time.Now()
	fastOut, err := render(eo)
	if err != nil {
		return nil, fmt.Errorf("check: figure bench: sweep path: %w", err)
	}
	fb.SweepSeconds = time.Since(start).Seconds()

	fb.Identical = fastOut == refOut
	if fb.SweepSeconds > 0 {
		fb.Speedup = fb.PerConfigSeconds / fb.SweepSeconds
	}

	goldenScale := opt.Instructions == PinnedInstructions && opt.Seed == 0
	switch {
	case !fb.Identical:
		fb.Passed = false
		fb.Detail = "sweep and per-config figure renders differ"
	case !goldenScale:
		fb.Passed = true
		fb.Detail = fmt.Sprintf("identical output, %.1fx speedup (%.2fs -> %.2fs); off golden scale, no regression gate",
			fb.Speedup, fb.PerConfigSeconds, fb.SweepSeconds)
	default:
		floor := figure34RegressionFraction * figure34GoldenSpeedup
		fb.Passed = fb.Speedup >= floor
		fb.Detail = fmt.Sprintf("identical output, %.1fx speedup (%.2fs -> %.2fs); baseline %.1fx, floor %.1fx",
			fb.Speedup, fb.PerConfigSeconds, fb.SweepSeconds, figure34GoldenSpeedup, floor)
	}
	return fb, nil
}
