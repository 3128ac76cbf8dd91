package check

import (
	"context"
	"fmt"
	"time"

	"ibsim/internal/experiments"
	"ibsim/internal/synth"
)

// TablesBench records the fetch-engine fan-out benchmark: Tables 5-8 and
// Figures 6/7 rendered through the original per-configuration path and
// through the single-pass fan-out replay path (run-compacted traces, bulk
// FetchRun, analytic dedup), with the byte-identity and speedup verdicts.
// cmd/ibscheck embeds it in BENCH_ibsim.json as the "tables" stage.
type TablesBench struct {
	// Instructions is the per-workload scale both paths ran at.
	Instructions int64 `json:"instructions"`
	// PerConfigSeconds and FanoutSeconds are the wall-clock times of the
	// two paths (trace generation and run compaction excluded — the store
	// is warmed first, runs included). Each is the minimum over
	// tablesBenchIters interleaved timings, which measures the paths' real
	// cost rather than transient scheduler noise.
	PerConfigSeconds float64 `json:"perconfig_seconds"`
	FanoutSeconds    float64 `json:"fanout_seconds"`
	// Speedup is PerConfigSeconds / FanoutSeconds.
	Speedup float64 `json:"speedup"`
	// Identical reports whether the two paths rendered byte-identical
	// exhibits — a hard requirement.
	Identical bool `json:"identical"`
	// Passed is the stage verdict: identical output, and (at golden scale)
	// no more than a 20% speedup regression against the recorded baseline.
	Passed bool `json:"passed"`
	// Detail summarizes the comparison.
	Detail string `json:"detail"`
}

// tablesRegressionFraction gates speedup regressions at the pinned golden
// scale: the run fails if the measured speedup falls below 80% of the
// recorded baseline (tablesGoldenSpeedup in golden.go), i.e. a >20%
// regression of the fan-out path relative to the per-config path. The
// ratio-of-ratios form keeps the gate machine-independent.
const tablesRegressionFraction = 0.8

// tablesBenchIters is how many times each path is timed (interleaved); the
// reported time per path is the minimum. Two suffice: a burst of background
// load long enough to slow both timings of a path is rare, and anything
// larger inflates a check that already simulates every exhibit four times.
const tablesBenchIters = 2

// RunTablesBench times Tables 5-8 and Figures 6/7 through both execution
// paths and verifies the fan-out path's output and performance. The trace
// store is warmed with the expanded form the per-config path reads and the
// runs-only form the fan-out path reads, for every workload (and held for
// the duration), so the timings isolate simulation cost on each path,
// matching how the exhibits run inside a long-lived process.
func RunTablesBench(opt Options) (*TablesBench, error) {
	opt = opt.withDefaults()
	tb := &TablesBench{Instructions: opt.Instructions}

	releases := make([]func(), 0, len(opt.Workloads))
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	ctx := context.Background()
	// Table 5 additionally replays the SPEC92 suite; warm it too so neither
	// timing is charged for generating traces the other path then gets for
	// free.
	for _, p := range append(append([]synth.Profile(nil), opt.Workloads...), synth.SPEC92()...) {
		_, _, release, err := synth.DefaultStore.InstrRuns(ctx, p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: tables bench: warming %s: %w", p.Name, err)
		}
		releases = append(releases, release)
		_, release, err = synth.DefaultStore.RunsOnly(ctx, p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: tables bench: warming %s runs: %w", p.Name, err)
		}
		releases = append(releases, release)
	}

	render := func(eo experiments.Options) (string, error) {
		var out string
		for _, ex := range fanoutExhibits() {
			s, err := ex.run(eo)
			if err != nil {
				return "", fmt.Errorf("%s: %w", ex.name, err)
			}
			out += s
		}
		return out, nil
	}

	eo := experiments.Options{Instructions: opt.Instructions, Seed: opt.Seed}
	perCfg := eo
	perCfg.PerConfig = true

	tb.Identical = true
	var refOut, fastOut string
	for i := 0; i < tablesBenchIters; i++ {
		start := time.Now()
		ref, err := render(perCfg)
		if err != nil {
			return nil, fmt.Errorf("check: tables bench: per-config path: %w", err)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < tb.PerConfigSeconds {
			tb.PerConfigSeconds = t
		}

		start = time.Now()
		fast, err := render(eo)
		if err != nil {
			return nil, fmt.Errorf("check: tables bench: fan-out path: %w", err)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < tb.FanoutSeconds {
			tb.FanoutSeconds = t
		}

		// Every iteration must agree, within a path and across paths: the
		// renders are deterministic, so any drift is a bug.
		if i == 0 {
			refOut, fastOut = ref, fast
		}
		tb.Identical = tb.Identical && fast == refOut && ref == refOut && fast == fastOut
	}
	if tb.FanoutSeconds > 0 {
		tb.Speedup = tb.PerConfigSeconds / tb.FanoutSeconds
	}

	goldenScale := opt.Instructions == PinnedInstructions && opt.Seed == 0
	switch {
	case !tb.Identical:
		tb.Passed = false
		tb.Detail = "fan-out and per-config table renders differ"
	case !goldenScale:
		tb.Passed = true
		tb.Detail = fmt.Sprintf("identical output, %.1fx speedup (%.2fs -> %.2fs); off golden scale, no regression gate",
			tb.Speedup, tb.PerConfigSeconds, tb.FanoutSeconds)
	default:
		floor := tablesRegressionFraction * tablesGoldenSpeedup
		tb.Passed = tb.Speedup >= floor
		tb.Detail = fmt.Sprintf("identical output, %.1fx speedup (%.2fs -> %.2fs); baseline %.1fx, floor %.1fx",
			tb.Speedup, tb.PerConfigSeconds, tb.FanoutSeconds, tablesGoldenSpeedup, floor)
	}
	return tb, nil
}
