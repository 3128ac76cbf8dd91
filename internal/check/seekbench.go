package check

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// SeekBench records the checkpoint-seek streaming benchmark: a skip-mode
// time-sampled sweep (1/16 window coverage) over a store whose hard budget
// rejects every materialized tier, run once by streaming full regeneration
// (RunChunks over trace.SourceChunks — every instruction generated, measured
// or not) and once by checkpoint seek (RunSeek — only the measured windows
// generated), with the speedup and bit-identity verdicts. cmd/ibscheck
// embeds it in BENCH_ibsim.json as the "seek" stage — this is where the
// ">=5x at 1/16 window coverage" promise of the seek tier is pinned against
// regression.
type SeekBench struct {
	// Instructions is the per-workload scale both paths ran at.
	Instructions int64 `json:"instructions"`
	// OverBudget reports that the store's hard budget rejected the
	// materialized tiers, so both paths really ran over streaming sources.
	OverBudget bool `json:"over_budget"`
	// StreamSeconds and SeekSeconds are the wall-clock times of the
	// full-regeneration streaming pass and the checkpoint-seek pass over
	// the whole suite. Each is the minimum over seekBenchIters interleaved
	// timings; the first streaming pass doubles as the index warm-up.
	StreamSeconds float64 `json:"stream_seconds"`
	SeekSeconds   float64 `json:"seek_seconds"`
	// Speedup is StreamSeconds / SeekSeconds.
	Speedup float64 `json:"speedup"`
	// Coverage is the suite-mean fraction of instructions measured (~1/16).
	Coverage float64 `json:"coverage"`
	// Checkpoints and CheckpointBytes are the store's index footprint after
	// the run — the memory the speedup was bought with.
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// Identical reports that every seeked matrix was bit-identical to the
	// streamed one — estimates, intervals, cluster counts.
	Identical bool `json:"identical"`
	// Passed is the stage verdict: identity and over-budget always, plus
	// (at golden scale) the absolute >=5x floor and no more than a 20%
	// speedup regression against the recorded baseline.
	Passed bool `json:"passed"`
	// Detail summarizes the comparison.
	Detail string `json:"detail"`
}

// seekRegressionFraction gates speedup regressions at the pinned golden
// scale: fail if the measured speedup falls below 80% of seekGoldenSpeedup.
const seekRegressionFraction = 0.8

// seekMinSpeedup is the absolute floor at golden scale: generating only the
// measured 1/16 of the trace must be at least this much faster than
// generating all of it, or the seek tier is not earning its checkpoints.
const seekMinSpeedup = 5.0

// seekBenchIters is how many times each path is timed (interleaved); the
// reported time per path is the minimum.
const seekBenchIters = 2

// seekBenchHardBudget is the bench store's hard budget: far below the refs,
// runs, and columnar footprints of any suite workload at golden scale, so
// every request is forced onto the streaming tiers. The checkpoint index is
// idle-budget metadata and is unaffected.
const seekBenchHardBudget = 1 << 10

// seekBenchGrid is the benchmark's cell grid: deliberately small. The seek
// tier removes GENERATION cost — the sweep's per-line stack work over the
// measured windows is identical on both paths — so a wide grid would just
// pad both timings with shared feed cost and flatten the measured ratio.
// Four cells keep the feed realistic without drowning the signal.
func seekBenchGrid() []sweep.Cell {
	return []sweep.Cell{{Sets: 256, Assoc: 1}, {Sets: 512, Assoc: 1}, {Sets: 256, Assoc: 2}, {Sets: 512, Assoc: 2}}
}

// RunSeekBench times the full-regeneration streaming sampled sweep against
// the checkpoint-seek sampled sweep at 1/16 window coverage over the suite,
// on a store too small to materialize anything, and verifies the seeked
// estimates are bit-identical to the streamed ones.
func RunSeekBench(opt Options) (*SeekBench, error) {
	opt = opt.withDefaults()
	sb := &SeekBench{Instructions: opt.Instructions}
	cells := seekBenchGrid()
	sp := sweep.SampledPass{
		LineSize: 32, Cells: cells,
		Window: seekCheckWindow, Period: seekCheckPeriod,
	}

	store := synth.NewStoreLimits(16<<20, seekBenchHardBudget)
	defer store.Purge()

	// The budget must actually bind, or the "streaming" pass would be a
	// slice walk and the comparison meaningless.
	if _, _, err := store.Instr(opt.Workloads[0], opt.Seed, opt.Instructions); errors.Is(err, synth.ErrOverBudget) {
		sb.OverBudget = true
	} else if err != nil {
		return nil, fmt.Errorf("check: seek bench: probing budget: %w", err)
	}

	var streamed, seeked []*sweep.SampledMatrix
	for i := 0; i < seekBenchIters; i++ {
		streamed = streamed[:0]
		start := time.Now()
		for _, p := range opt.Workloads {
			src, release, err := store.Source(p, opt.Seed, opt.Instructions)
			if err != nil {
				return nil, fmt.Errorf("check: seek bench: stream source %s: %w", p.Name, err)
			}
			m, err := sp.RunChunks(trace.SourceChunks(src))
			release()
			if err != nil {
				return nil, fmt.Errorf("check: seek bench: streamed sweep %s: %w", p.Name, err)
			}
			streamed = append(streamed, m)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < sb.StreamSeconds {
			sb.StreamSeconds = t
		}

		seeked = seeked[:0]
		start = time.Now()
		for _, p := range opt.Workloads {
			src, release, err := store.SeekSource(p, opt.Seed, opt.Instructions)
			if err != nil {
				return nil, fmt.Errorf("check: seek bench: seek source %s: %w", p.Name, err)
			}
			m, err := sp.RunSeek(src)
			release()
			if err != nil {
				return nil, fmt.Errorf("check: seek bench: seeked sweep %s: %w", p.Name, err)
			}
			seeked = append(seeked, m)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < sb.SeekSeconds {
			sb.SeekSeconds = t
		}
	}
	if sb.SeekSeconds > 0 {
		sb.Speedup = sb.StreamSeconds / sb.SeekSeconds
	}

	sb.Identical = true
	for i := range streamed {
		sb.Coverage += seeked[i].Coverage() / float64(len(streamed))
		if !reflect.DeepEqual(streamed[i], seeked[i]) {
			sb.Identical = false
		}
	}
	st := store.Stats()
	sb.Checkpoints = st.Checkpoints
	sb.CheckpointBytes = st.CheckpointBytes

	goldenScale := opt.Instructions == PinnedInstructions && opt.Seed == 0
	perf := fmt.Sprintf("%.1fx speedup (%.2fs -> %.2fs) at %.1f%% coverage, %d checkpoints (%d B)",
		sb.Speedup, sb.StreamSeconds, sb.SeekSeconds, 100*sb.Coverage, sb.Checkpoints, sb.CheckpointBytes)
	switch {
	case !sb.OverBudget:
		sb.Passed = false
		sb.Detail = perf + "; hard budget did not bind, comparison invalid"
	case !sb.Identical:
		sb.Passed = false
		sb.Detail = perf + "; seeked estimates diverge from streamed"
	case !goldenScale:
		sb.Passed = true
		sb.Detail = perf + "; identical estimates; off golden scale, no regression gate"
	default:
		floor := seekRegressionFraction * seekGoldenSpeedup
		if floor < seekMinSpeedup {
			floor = seekMinSpeedup
		}
		sb.Passed = sb.Speedup >= floor
		sb.Detail = fmt.Sprintf("%s; identical estimates; baseline %.1fx, floor %.1fx", perf, seekGoldenSpeedup, floor)
	}
	return sb, nil
}
