package check

import (
	"context"
	"fmt"
	"math"
	"time"

	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// SamplingBench records the sampled-sweep benchmark: the full 1KB-64KB
// capacity x associativity grid swept exactly and at 1/16 set sampling over
// the whole suite, with the speedup, accuracy, and interval-calibration
// verdicts. cmd/ibscheck embeds it in BENCH_ibsim.json as the "sampling"
// stage — this is where the ">=10x at 1/16 coverage" promise of the sampled
// mode is pinned against regression.
type SamplingBench struct {
	// Instructions is the per-workload scale both paths ran at.
	Instructions int64 `json:"instructions"`
	// ExactSeconds and SampledSeconds are the wall-clock times of the exact
	// and set-sampled sweeps (trace generation and compaction excluded — the
	// store is warmed first). Each is the minimum over samplingBenchIters
	// interleaved timings.
	ExactSeconds   float64 `json:"exact_seconds"`
	SampledSeconds float64 `json:"sampled_seconds"`
	// Speedup is ExactSeconds / SampledSeconds.
	Speedup float64 `json:"speedup"`
	// Coverage is the suite-mean fraction of instructions the sampled path
	// measured (~1/16).
	Coverage float64 `json:"coverage"`
	// MeanRelErr is the suite-mean |sampled MPI - exact MPI| / exact MPI
	// over every grid cell with a non-zero exact MPI.
	MeanRelErr float64 `json:"mean_rel_err"`
	// CIHits and CIPoints score interval calibration: at how many cells the
	// exact MPI fell inside the sampled 95% interval.
	CIHits   int `json:"ci_hits"`
	CIPoints int `json:"ci_points"`
	// Passed is the stage verdict: accuracy and calibration always, plus (at
	// golden scale) no more than a 20% speedup regression against the
	// recorded baseline.
	Passed bool `json:"passed"`
	// Detail summarizes the comparison.
	Detail string `json:"detail"`
}

// samplingRegressionFraction gates speedup regressions at the pinned golden
// scale, in the same ratio-of-ratios form as the other bench stages: fail if
// the measured speedup falls below 80% of samplingGoldenSpeedup.
const samplingRegressionFraction = 0.8

// samplingBenchIters is how many times each path is timed (interleaved); the
// reported time per path is the minimum.
const samplingBenchIters = 2

// samplingMeanRelErrMax caps the sampled grid's suite-mean relative MPI
// error as a sanity bound: the dial trades fidelity for speed, but the
// answers must stay in the right neighborhood. 1/16 set sampling on this
// grid measures ~14% in practice (per-set miss distributions are skewed and
// the smallest cells sample a single set); the honest-interval gate below is
// the real fidelity contract — every one of those errors is covered by its
// stated CI95.
const samplingMeanRelErrMax = 0.25

// samplingCIHitFraction is the minimum fraction of grid cells whose exact
// MPI must land inside the sampled 95% interval. Nominal calibration is 95%;
// the floor sits at 90% so the gate flags mis-calibration, not one unlucky
// cell.
const samplingCIHitFraction = 0.9

// samplingBenchGrid is the full capacity x associativity grid both paths
// sweep: 1KB-64KB at a 32-byte line, 1/2/4-way, every cell with at least
// samplingSetMod sets (8 distinct set counts, 16-2048).
func samplingBenchGrid() []sweep.Cell {
	var cells []sweep.Cell
	for size := 1 << 10; size <= 64<<10; size <<= 1 {
		lines := size / 32
		for _, assoc := range []int{1, 2, 4} {
			if sets := lines / assoc; sets >= samplingSetMod {
				cells = append(cells, sweep.Cell{Sets: sets, Assoc: assoc})
			}
		}
	}
	return cells
}

// RunSamplingBench times the exact and 1/16 set-sampled sweeps over the full
// grid and suite, and verifies the sampled path's speed, accuracy, and
// interval calibration. The trace store is warmed with both trace forms (and
// held), so the timings isolate sweep cost.
func RunSamplingBench(opt Options) (*SamplingBench, error) {
	opt = opt.withDefaults()
	sb := &SamplingBench{Instructions: opt.Instructions}
	cells := samplingBenchGrid()

	ctx := context.Background()
	type workload struct {
		name string
		refs []trace.Ref
		runs []trace.Run
	}
	ws := make([]workload, 0, len(opt.Workloads))
	releases := make([]func(), 0, len(opt.Workloads))
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	for _, p := range opt.Workloads {
		refs, release, err := synth.DefaultStore.Instr(p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: sampling bench: warming %s: %w", p.Name, err)
		}
		releases = append(releases, release)
		runs, release, err := synth.DefaultStore.RunsOnly(ctx, p, opt.Seed, opt.Instructions)
		if err != nil {
			return nil, fmt.Errorf("check: sampling bench: warming %s runs: %w", p.Name, err)
		}
		releases = append(releases, release)
		ws = append(ws, workload{name: p.Name, refs: refs, runs: runs})
	}

	var exacts []*sweep.Matrix
	var sampleds []*sweep.SampledMatrix
	for i := 0; i < samplingBenchIters; i++ {
		exacts = exacts[:0]
		start := time.Now()
		for _, w := range ws {
			m, err := sweep.Pass{LineSize: 32, Cells: cells}.Run(w.refs)
			if err != nil {
				return nil, fmt.Errorf("check: sampling bench: exact sweep %s: %w", w.name, err)
			}
			exacts = append(exacts, m)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < sb.ExactSeconds {
			sb.ExactSeconds = t
		}

		sampleds = sampleds[:0]
		start = time.Now()
		for _, w := range ws {
			sm, err := sweep.SampledPass{
				LineSize: 32, Cells: cells, SetMod: samplingSetMod, SetMatch: samplingSetMatch,
			}.Run(w.runs)
			if err != nil {
				return nil, fmt.Errorf("check: sampling bench: sampled sweep %s: %w", w.name, err)
			}
			sampleds = append(sampleds, sm)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < sb.SampledSeconds {
			sb.SampledSeconds = t
		}
	}
	if sb.SampledSeconds > 0 {
		sb.Speedup = sb.ExactSeconds / sb.SampledSeconds
	}

	var sumRel float64
	var nRel int
	for wi := range ws {
		sb.Coverage += sampleds[wi].Coverage() / float64(len(ws))
		for ci := range cells {
			exactMPI := float64(exacts[wi].Misses[ci]) / float64(exacts[wi].Accesses)
			est := sampleds[wi].Estimates[ci]
			sb.CIPoints++
			if est.Contains(exactMPI) {
				sb.CIHits++
			}
			if exactMPI > 0 {
				sumRel += math.Abs(est.MPI-exactMPI) / exactMPI
				nRel++
			}
		}
	}
	if nRel > 0 {
		sb.MeanRelErr = sumRel / float64(nRel)
	}

	goldenScale := opt.Instructions == PinnedInstructions && opt.Seed == 0
	ciFloor := int(math.Ceil(samplingCIHitFraction * float64(sb.CIPoints)))
	perf := fmt.Sprintf("%.1fx speedup (%.2fs -> %.2fs) at %.1f%% coverage, mean |rel err| %.2f%%, CI hits %d/%d",
		sb.Speedup, sb.ExactSeconds, sb.SampledSeconds, 100*sb.Coverage, 100*sb.MeanRelErr, sb.CIHits, sb.CIPoints)
	switch {
	case sb.MeanRelErr > samplingMeanRelErrMax:
		sb.Passed = false
		sb.Detail = fmt.Sprintf("%s; mean |rel err| exceeds %.0f%%", perf, 100*samplingMeanRelErrMax)
	case sb.CIHits < ciFloor:
		sb.Passed = false
		sb.Detail = fmt.Sprintf("%s; CI hits below floor %d", perf, ciFloor)
	case !goldenScale:
		sb.Passed = true
		sb.Detail = perf + "; off golden scale, no regression gate"
	default:
		floor := samplingRegressionFraction * samplingGoldenSpeedup
		sb.Passed = sb.Speedup >= floor
		sb.Detail = fmt.Sprintf("%s; baseline %.1fx, floor %.1fx", perf, samplingGoldenSpeedup, floor)
	}
	return sb, nil
}
