package check

// PinnedInstructions is the per-workload instruction budget the committed
// goldens were measured at. Runs at any other scale (or a non-zero seed)
// still time every stage but skip value comparison.
const PinnedInstructions = 200_000

// defaultRelTol is the golden tolerance when a Golden leaves RelTol zero.
// The simulators are deterministic, so 1e-9 flags any behavioral change
// while absorbing floating-point reassociation from refactors.
const defaultRelTol = 1e-9

// goldens pins the bench stages' expected suite-mean values at
// PinnedInstructions with seed 0 (the calibrated profile seeds).
//
// Provenance: measured by `go run ./cmd/ibscheck -n 200000 -print-golden`
// on the commit that introduced each value; EXPERIMENTS.md documents the
// regeneration workflow. Update these ONLY when a PR deliberately changes
// simulator behavior, and say so in the PR description.
// figure34GoldenSpeedup is the recorded Figure 3 + Figure 4 speedup of the
// single-pass sweep path over the per-configuration path at the pinned
// scale, measured by `go run ./cmd/ibscheck -n 200000` on the commit that
// introduced the sweep engine. RunFigureBench fails a golden-scale run whose
// measured speedup drops below 80% of this (a >20% regression). As a ratio
// of two same-process wall-clocks it is machine-independent to first order;
// update it alongside deliberate sweep-engine changes.
const figure34GoldenSpeedup = 6.3

// tablesGoldenSpeedup is the recorded Tables 5-8 + Figures 6/7 speedup of
// the fan-out replay path (run-compacted traces, bulk FetchRun, analytic
// dedup of same-geometry blocking engines) over the per-configuration path
// at the pinned scale, measured by `go run ./cmd/ibscheck -n 200000` on the
// commit that introduced the replay driver. RunTablesBench fails a
// golden-scale run whose measured speedup drops below 80% of this; update
// it alongside deliberate replay-path changes.
const tablesGoldenSpeedup = 3.1

// samplingGoldenSpeedup is the recorded speedup of the 1/16 set-sampled
// sweep over the exact sweep on the full 1KB-64KB grid at the pinned scale,
// measured by `go run ./cmd/ibscheck -n 200000` on the commit that
// introduced the sampled engine. RunSamplingBench fails a golden-scale run
// whose measured speedup drops below 80% of this; update it alongside
// deliberate sampled-sweep changes.
const samplingGoldenSpeedup = 11.5

// seekGoldenSpeedup is the recorded speedup of the checkpoint-seek streaming
// sampled sweep (RunSeek, generating only the measured 1/16 of the windows)
// over full streaming regeneration (RunChunks over a Source) on an
// over-budget store at the pinned scale, measured by `go run ./cmd/ibscheck
// -n 200000` on the commit that introduced the seekable generators (11-14x
// across runs; pinned below the observed minimum because the seeked pass is
// only a few milliseconds and the ratio is timer-noisy). RunSeekBench fails
// a golden-scale run whose measured speedup drops below 80% of this (or
// below the absolute 5x floor); update it alongside deliberate generator or
// checkpoint-format changes.
const seekGoldenSpeedup = 9.0

// columnarGoldenRatio is the recorded relative throughput of the
// block-granular columnar replay (replay.Blocks over the on-disk file) versus
// the in-memory fan-out path (replay.Replay over materialized runs) on the
// same engine bank at the pinned scale, measured by `go run ./cmd/ibscheck
// -n 200000` on the commit that introduced the columnar format. 1.0 is
// parity; the per-block varint decode keeps it slightly under. As a ratio of
// two same-process wall-clocks it is machine-independent to first order;
// RunColumnarBench fails a golden-scale run whose measured ratio drops below
// 80% of this. Update it alongside deliberate columnar codec or block-driver
// changes.
const columnarGoldenRatio = 0.9

var goldens = map[string]Golden{
	"cache/base-l1":   {CPI: 0, MPI: 0.04838},
	"fetch/blocking":  {CPI: 0.33866, MPI: 0.04838},
	"fetch/prefetch3": {CPI: 0.219318125, MPI: 0.016870625},
	"fetch/bypass3":   {CPI: 0.111716875, MPI: 0.016870625},
	"fetch/stream6":   {CPI: 0.09537124999999999, MPI: 0.013551875},
	"system/gs":       {CPI: 1.531565, MPI: 0},
}
