// Package replay is the single-pass fan-out driver for the timing-accurate
// fetch engines: it replays one workload's run-compacted instruction trace
// through a whole bank of engine configurations, feeding every grid cell of
// the paper's Tables 5-8 and Figures 6/7 from one pass over the trace per
// engine — and often much less.
//
// The package has two drivers, both over a trace.Chunks source, so one loop
// serves every shape a trace is held in: an in-memory []trace.Run, a
// columnar file read block by block, or a per-reference (possibly
// checkpoint-seekable) generator compacted on the fly. Chunks is the exact
// fan-out; SampledChunks feeds a statistical sample (sampled.go). Replay,
// Blocks, BlocksParallel, Sampled, SampledBlocks and SampledSeek wrap a
// trace in the matching adapter and call one of the two.
//
// Two accelerations stack:
//
//  1. Bulk replay. Each engine consumes the trace as sequential runs via its
//     FetchRun fast path (O(resident lines) per run instead of
//     O(instructions); see internal/fetch), which is where compaction pays.
//
//  2. Analytic dedup. Prefetch-free, non-sector blocking engines that share
//     a cache geometry have identical miss streams — the memory link never
//     influences cache contents — so the bank simulates one representative
//     per geometry and reconstructs every other such engine's Result with
//     fetch.BlockingResult (StallCycles = Misses x FillCycles). Figure 6's
//     bandwidth sweep (5 links x 7 line sizes) collapses from 35 replays to
//     7; the equivalence is exact (pinned by fetch's tests and the
//     differential/fanout-tables check), so results stay byte-identical to
//     the per-config path.
//
// Results are positional: results[i] is what fetch.Run(engines[i], refs)
// would have produced on the expanded trace.
package replay

import (
	"context"
	"sync"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/trace"
)

// runChunk is the batch size handed to FetchRuns between context polls:
// large enough to amortize dispatch, small enough to keep cancellation
// latency well under a millisecond.
const runChunk = 256

// analyticKey groups engines whose miss behavior is fully determined by
// cache geometry. cache.Config is comparable, so it can key a map directly.
type analyticKey struct{ geom cache.Config }

// planBank groups the analytic blocking engines by geometry: the first
// engine of each group is its representative and is simulated for real;
// repOf maps every other group member to it, and derived lists them in bank
// order.
func planBank(engines []fetch.Engine) (repOf map[int]int, derived []int) {
	reps := make(map[analyticKey]int) // geometry -> representative engine index
	repOf = make(map[int]int)
	for i, e := range engines {
		b, ok := e.(*fetch.Blocking)
		if !ok {
			continue
		}
		geom, _, analytic := b.AnalyticConfig()
		if !analytic {
			continue
		}
		key := analyticKey{geom: geom}
		if rep, seen := reps[key]; seen {
			derived = append(derived, i)
			repOf[i] = rep
		} else {
			reps[key] = i
		}
	}
	return repOf, derived
}

// Chunks runs every engine in the bank over the trace src yields and returns
// their Results in bank order. Each chunk is read once and fed to every
// simulated engine while it is hot, so a columnar file far beyond the RAM
// budget replays with one block of live memory. ctx is honored between
// chunks and periodically within each; on cancellation the partial results
// are discarded and ctx.Err() is returned.
//
// With workers > 1 and a multi-block trace.BlockChunks source, the simulated
// engines are partitioned across up to workers goroutines, each opening its
// own block reader (BlockSource allows concurrent decodes into distinct
// buffers). An engine's state is sequential across blocks, so the parallel
// axis is the bank. Results are identical to the serial path, pinned by the
// differential/blocks-parallel check; memory is O(workers × block). Any
// other source replays serially.
func Chunks(ctx context.Context, src trace.Chunks, engines []fetch.Engine, workers int) ([]fetch.Result, error) {
	repOf, derived := planBank(engines)
	var simulated []int
	for i := range engines {
		if _, isDerived := repOf[i]; !isDerived {
			simulated = append(simulated, i)
		}
	}
	if err := fan(ctx, src, engines, simulated, workers); err != nil {
		return nil, err
	}
	results := make([]fetch.Result, len(engines))
	for _, i := range simulated {
		results[i] = engines[i].Result()
	}
	// Reconstruct the derived cells from their representatives' results
	// (StallCycles = Misses x FillCycles, exactly).
	for _, i := range derived {
		rep := results[repOf[i]]
		geom, link, _ := engines[i].(*fetch.Blocking).AnalyticConfig()
		results[i] = fetch.BlockingResult(rep.Instructions, rep.Misses, geom.LineSize, link)
	}
	return results, nil
}

// fan drains src through the simulated engines, splitting them across
// goroutines when src is a multi-block source and workers allow.
func fan(ctx context.Context, src trace.Chunks, engines []fetch.Engine, simulated []int, workers int) error {
	bc, ok := src.(*trace.BlockChunks)
	workers = min(workers, len(simulated))
	if !ok || workers <= 1 || bc.Blocks().NumBlocks() <= 1 {
		return feed(ctx, src, engines, simulated)
	}
	// Strided partition: engine i goes to worker i%workers, so banks built
	// as homogeneous sweeps (the common case) spread their heavy engines
	// evenly instead of handing one worker a contiguous expensive stripe.
	groups := make([][]int, workers)
	for pos, idx := range simulated {
		groups[pos%workers] = append(groups[pos%workers], idx)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, group := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := feed(ctx, trace.NewBlockChunks(bc.Blocks()), engines, group); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel() // stop sibling workers promptly
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// feed drains src through the engines at the given bank indices, replaying
// each chunk through all of them before reading the next.
func feed(ctx context.Context, src trace.Chunks, engines []fetch.Engine, idx []int) error {
	return trace.EachChunk(ctx, src, func(runs []trace.Run) error {
		for _, i := range idx {
			if err := replayOne(ctx, runs, engines[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// replayOne drains runs through one engine with periodic context polls.
// Bulk engines consume the runs in batches (one dynamic dispatch per batch);
// plain engines fall back to per-instruction Fetch.
func replayOne(ctx context.Context, runs []trace.Run, e fetch.Engine) error {
	re, bulk := e.(fetch.RunEngine)
	for start := 0; start < len(runs); start += runChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := runs[start:min(start+runChunk, len(runs))]
		if bulk {
			re.FetchRuns(batch)
			continue
		}
		for _, r := range batch {
			feedSpan(e, nil, r.Start, r.Len)
		}
	}
	return nil
}

// Replay is Chunks over an in-memory run-compacted trace (for example
// synth.DefaultStore.InstrRuns), serially.
func Replay(ctx context.Context, runs []trace.Run, engines []fetch.Engine) ([]fetch.Result, error) {
	return Chunks(ctx, trace.RunChunks(runs), engines, 1)
}

// Blocks is Chunks over a block-granular trace (a columnar file), serially:
// each block is decoded once, not once per engine.
func Blocks(ctx context.Context, bs trace.BlockSource, engines []fetch.Engine) ([]fetch.Result, error) {
	return Chunks(ctx, trace.NewBlockChunks(bs), engines, 1)
}

// BlocksParallel is Blocks with the bank split across up to workers
// goroutines, each decoding the blocks independently.
func BlocksParallel(ctx context.Context, bs trace.BlockSource, engines []fetch.Engine, workers int) ([]fetch.Result, error) {
	return Chunks(ctx, trace.NewBlockChunks(bs), engines, workers)
}
