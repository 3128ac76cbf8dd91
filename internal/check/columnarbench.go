package check

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// ColumnarBench records the zero-copy block-replay benchmark: a workload
// whose expanded trace is ten times the synth store's hard RAM budget is
// replayed from its on-disk columnar file, block by block, against the
// in-memory fan-out path over the same trace. cmd/ibscheck embeds it in
// BENCH_ibsim.json as the "columnar" stage — this is where the format's
// O(1)-memory, near-parity-throughput promise is pinned against regression.
type ColumnarBench struct {
	// Instructions is the trace length both paths replayed.
	Instructions int64 `json:"instructions"`
	// TraceBytes is what materializing the trace as refs would cost in RAM
	// (the store charges 16 bytes per ref); BudgetBytes is the hard budget
	// the bench store was capped at (TraceBytes/10); FileBytes is the
	// columnar file's actual on-disk size.
	TraceBytes  int64 `json:"trace_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	FileBytes   int64 `json:"file_bytes"`
	// Blocks is the columnar file's block count; Mapped reports whether the
	// replay ran zero-copy over an mmap (false: ReaderAt fallback).
	Blocks int  `json:"blocks"`
	Mapped bool `json:"mapped"`
	// InMemorySeconds and BlockSeconds are the wall-clock times of the
	// materialized-runs and block-granular replays of the same engine bank
	// (minimum over columnarBenchIters interleaved timings).
	InMemorySeconds float64 `json:"inmemory_seconds"`
	BlockSeconds    float64 `json:"block_seconds"`
	// Ratio is InMemorySeconds / BlockSeconds: the block path's relative
	// throughput (1.0 = parity with the in-memory path).
	Ratio float64 `json:"ratio"`
	// ThroughputMBs is the block path's expanded-trace bandwidth
	// (TraceBytes / BlockSeconds, in MB/s).
	ThroughputMBs float64 `json:"throughput_mbs"`
	// HeapGrowthBytes is the peak HeapInuse growth observed while replaying
	// from disk; FlatRSS reports it stayed under the RAM budget the trace
	// itself exceeds tenfold.
	HeapGrowthBytes int64 `json:"heap_growth_bytes"`
	FlatRSS         bool  `json:"flat_rss"`
	// OverBudget confirms the capped store rejects the in-memory tiers for
	// this trace (the scenario the columnar tier exists for) while admitting
	// the columnar file.
	OverBudget bool `json:"over_budget"`
	// Identical reports both paths produced bit-identical engine results — a
	// hard requirement.
	Identical bool `json:"identical"`
	// Passed is the stage verdict: identity, flat RSS, and budget behavior
	// always, plus (at golden scale) no more than a 20% relative-throughput
	// regression against the recorded baseline.
	Passed bool `json:"passed"`
	// Detail summarizes the comparison.
	Detail string `json:"detail"`
}

// columnarRegressionFraction gates relative-throughput regressions at the
// pinned golden scale, in the same ratio-of-ratios form as the other bench
// stages: fail if the measured ratio falls below 80% of
// columnarGoldenRatio.
const columnarRegressionFraction = 0.8

// columnarBenchIters is how many times each path is timed (interleaved);
// the reported time per path is the minimum.
const columnarBenchIters = 2

// columnarBenchBlockBytes is the bench file's block size: small enough that
// the pinned-scale trace (~0.4 encoded bytes per instruction) spans dozens
// of blocks — so the per-block loop and the RSS probe are actually
// exercised — large enough that frame overhead stays negligible.
const columnarBenchBlockBytes = 2048

// columnarRefBytes is what the synth store charges per materialized
// trace.Ref, mirrored here to size the bench budget.
const columnarRefBytes = 16

// RunColumnarBench builds a columnar trace whose expanded form is 10x a
// hard RAM budget, proves the capped store rejects the in-memory tiers but
// admits the file, then replays an engine bank through both the in-memory
// and the block-granular drivers: results must be bit-identical, heap
// growth during the disk replay must stay under the budget, and the block
// path's throughput is gated against the recorded baseline.
func RunColumnarBench(opt Options) (*ColumnarBench, error) {
	opt = opt.withDefaults()
	p := opt.Workloads[0]
	cb := &ColumnarBench{Instructions: opt.Instructions}
	ctx := context.Background()

	refs, err := synth.InstrTrace(p, opt.Seed, opt.Instructions)
	if err != nil {
		return nil, fmt.Errorf("check: columnar bench: generating %s: %w", p.Name, err)
	}
	runs := trace.Compact(refs)
	refs = nil
	cb.TraceBytes = opt.Instructions * columnarRefBytes
	cb.BudgetBytes = cb.TraceBytes / 10

	// The capped store must reject both in-memory tiers for this trace and
	// admit its columnar file — the admission ordering the service's
	// columnar-disk degradation tier stands on.
	capped := synth.NewStoreLimits(0, cb.BudgetBytes)
	_, relRefs, errRefs := capped.Instr(p, opt.Seed, opt.Instructions)
	if errRefs == nil {
		relRefs()
	}
	_, relRuns, errRuns := capped.RunsOnly(ctx, p, opt.Seed, opt.Instructions)
	if errRuns == nil {
		relRuns()
	}
	cf, release, err := capped.Columnar(ctx, p, opt.Seed, opt.Instructions)
	if err != nil {
		return nil, fmt.Errorf("check: columnar bench: columnar tier under budget %d: %w", cb.BudgetBytes, err)
	}
	defer capped.Purge()
	defer release()
	cb.OverBudget = errors.Is(errRefs, synth.ErrOverBudget) && errors.Is(errRuns, synth.ErrOverBudget)
	if spilled := cf.Size(); spilled > cb.BudgetBytes {
		return nil, fmt.Errorf("check: columnar bench: spilled file %d bytes exceeds budget %d", spilled, cb.BudgetBytes)
	}

	// The store spills at the default ~1MB block size; the bench replays a
	// re-blocked copy so the per-block loop runs dozens of times even at the
	// pinned scale.
	f, err := os.CreateTemp("", "ibscheck-bench-*.ibsc")
	if err != nil {
		return nil, fmt.Errorf("check: columnar bench: %w", err)
	}
	path := f.Name()
	defer os.Remove(path)
	if _, err := trace.EncodeColumnarSize(f, runs, columnarBenchBlockBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("check: columnar bench: encoding: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("check: columnar bench: %w", err)
	}
	bf, err := trace.OpenColumnar(path)
	if err != nil {
		return nil, fmt.Errorf("check: columnar bench: opening: %w", err)
	}
	defer bf.Close()
	cb.FileBytes = bf.Size()
	cb.Blocks = bf.NumBlocks()
	cb.Mapped = bf.Mapped()

	// Flat-RSS pass (untimed): replay from disk with HeapInuse sampled at
	// every block; the peak growth over the post-GC baseline must stay under
	// the RAM budget the expanded trace exceeds tenfold. The one decode
	// buffer the replay reuses is sized for the largest block and allocated
	// before the baseline: it is O(block) by construction, and HeapInuse
	// moves in whole spans, so whether one block's runs needed a fresh span
	// (40KB for the ~20KB buffer at -n 8000) or found a free slot would
	// otherwise decide the verdict. What the probe sees is what grows with
	// the trace.
	bank, err := columnarBank()
	if err != nil {
		return nil, fmt.Errorf("check: columnar bench: %w", err)
	}
	maxRuns := 0
	for i := 0; i < bf.NumBlocks(); i++ {
		maxRuns = max(maxRuns, bf.BlockMeta(i).Runs)
	}
	buf := make([]trace.Run, 0, maxRuns)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	probe := &memProbe{BlockSource: bf, buf: buf, peak: ms.HeapInuse}
	base := ms.HeapInuse
	if _, err := replay.Blocks(ctx, probe, bank); err != nil {
		return nil, fmt.Errorf("check: columnar bench: probed replay: %w", err)
	}
	cb.HeapGrowthBytes = int64(probe.peak - base)
	cb.FlatRSS = cb.HeapGrowthBytes < cb.BudgetBytes

	// Timed interleaved replays of the same bank through both drivers.
	cb.Identical = true
	var want []fetch.Result
	for i := 0; i < columnarBenchIters; i++ {
		memBank, err := columnarBank()
		if err != nil {
			return nil, fmt.Errorf("check: columnar bench: %w", err)
		}
		start := time.Now()
		ref, err := replay.Replay(ctx, runs, memBank)
		if err != nil {
			return nil, fmt.Errorf("check: columnar bench: in-memory replay: %w", err)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < cb.InMemorySeconds {
			cb.InMemorySeconds = t
		}

		blkBank, err := columnarBank()
		if err != nil {
			return nil, fmt.Errorf("check: columnar bench: %w", err)
		}
		start = time.Now()
		got, err := replay.Blocks(ctx, bf, blkBank)
		if err != nil {
			return nil, fmt.Errorf("check: columnar bench: block replay: %w", err)
		}
		if t := time.Since(start).Seconds(); i == 0 || t < cb.BlockSeconds {
			cb.BlockSeconds = t
		}

		if i == 0 {
			want = ref
		}
		for j := range got {
			cb.Identical = cb.Identical && got[j] == want[j] && ref[j] == want[j]
		}
	}
	if cb.BlockSeconds > 0 {
		cb.Ratio = cb.InMemorySeconds / cb.BlockSeconds
		cb.ThroughputMBs = float64(cb.TraceBytes) / 1e6 / cb.BlockSeconds
	}

	mode := "ReaderAt"
	if cb.Mapped {
		mode = "mmap"
	}
	goldenScale := opt.Instructions == PinnedInstructions && opt.Seed == 0
	perf := fmt.Sprintf("trace 10.0x the %dKB budget replayed from disk (%s, %d blocks) at %.0f MB/s, %.2fx in-memory throughput, peak heap growth %dKB",
		cb.BudgetBytes>>10, mode, cb.Blocks, cb.ThroughputMBs, cb.Ratio, cb.HeapGrowthBytes>>10)
	switch {
	case !cb.Identical:
		cb.Passed = false
		cb.Detail = perf + "; block and in-memory results DIFFER"
	case !cb.OverBudget:
		cb.Passed = false
		cb.Detail = perf + "; store did not reject the in-memory tiers (bench budget no longer binding)"
	case !cb.FlatRSS:
		cb.Passed = false
		cb.Detail = perf + "; heap growth exceeded the RAM budget"
	case !goldenScale:
		cb.Passed = true
		cb.Detail = perf + "; off golden scale, no regression gate"
	default:
		floor := columnarRegressionFraction * columnarGoldenRatio
		cb.Passed = cb.Ratio >= floor
		cb.Detail = fmt.Sprintf("%s; baseline %.2fx, floor %.2fx", perf, columnarGoldenRatio, floor)
	}
	return cb, nil
}

// memProbe wraps a BlockSource, sampling HeapInuse before every block read
// to catch the replay's peak residency, and hands the reader buf, the decode
// buffer sized before the baseline, in place of a smaller one.
type memProbe struct {
	trace.BlockSource
	buf  []trace.Run
	peak uint64
}

func (p *memProbe) BlockRuns(i int, dst []trace.Run) ([]trace.Run, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > p.peak {
		p.peak = ms.HeapInuse
	}
	if cap(dst) < cap(p.buf) {
		dst = p.buf
	}
	return p.BlockSource.BlockRuns(i, dst)
}
