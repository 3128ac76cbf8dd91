package check

import (
	"context"
	"os"
	"reflect"

	"ibsim/internal/fetch"
	"ibsim/internal/replay"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// columnarCheckBlockBytes is the block size the differential checks encode
// at: small enough that even the smallest CLI-test fixture (~10K
// instructions at ~0.4 encoded bytes each) spans several blocks, so the
// block-granular loops actually iterate.
const columnarCheckBlockBytes = 512

// columnarBankSpec builds the mixed engine bank the columnar differentials
// replay: two same-geometry blocking engines (the second is analytically
// derived, exercising the dedup plan on both paths), a prefetcher, a bypass
// engine, and a stream buffer. Engines are stateful, so callers get a fresh
// bank per replay.
func columnarBank() ([]fetch.Engine, error) {
	link := checkLink()
	cfg := baseL1()
	var bank []fetch.Engine
	for _, mk := range []func() (fetch.Engine, error){
		func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 0) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 0) },
		func() (fetch.Engine, error) { return fetch.NewBlocking(cfg, link, 3) },
		func() (fetch.Engine, error) { return fetch.NewBypass(cfg, link, 3) },
		func() (fetch.Engine, error) { return fetch.NewStream(cfg, link, 6) },
	} {
		e, err := mk()
		if err != nil {
			return nil, err
		}
		bank = append(bank, e)
	}
	return bank, nil
}

// ColumnarReplay is the columnar-format differential: a workload's trace is
// written to an on-disk IBSTRACE/v3 columnar file and replayed block by
// block — through the fan-out replay driver and the sweep engine — and every
// result must be bit-identical to the in-memory path over the same trace.
// Both the mmap and the ReaderAt (sequential fallback) access modes are
// exercised, so the zero-copy path can never drift from the portable one.
func ColumnarReplay(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	p := opt.Workloads[0]
	ctx := context.Background()

	refs, err := synth.InstrTrace(p, opt.Seed, opt.Instructions)
	if err != nil {
		return nil, err
	}
	runs := trace.Compact(refs)

	f, err := os.CreateTemp("", "ibscheck-*.ibsc")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	defer os.Remove(path)
	if _, err := trace.EncodeColumnarSize(f, runs, columnarCheckBlockBytes); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	cf, err := trace.OpenColumnar(path)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	mode := "sequential"
	if cf.Mapped() {
		mode = "mmap"
	}

	var harnessErr error
	var out []Result

	out = append(out, timed(func() Result {
		const name = "differential/columnar-replay"
		if cf.NumBlocks() < 2 {
			return fail(name, "fixture spans %d block(s); block iteration not exercised", cf.NumBlocks())
		}
		if cf.Refs() != int64(len(refs)) {
			return fail(name, "columnar file indexes %d refs, trace has %d", cf.Refs(), len(refs))
		}
		memBank, err := columnarBank()
		if err != nil {
			harnessErr = err
			return fail(name, "building bank: %v", err)
		}
		want, err := replay.Replay(ctx, runs, memBank)
		if err != nil {
			return fail(name, "in-memory replay: %v", err)
		}
		blkBank, err := columnarBank()
		if err != nil {
			harnessErr = err
			return fail(name, "building bank: %v", err)
		}
		got, err := replay.Blocks(ctx, cf, blkBank)
		if err != nil {
			return fail(name, "block replay (%s): %v", mode, err)
		}
		for i := range want {
			if got[i] != want[i] {
				return fail(name, "engine %d diverges over %s blocks: %+v vs %+v", i, mode, got[i], want[i])
			}
		}

		// The non-mapped ReaderAt path must agree byte for byte too.
		rf, err := os.Open(path)
		if err != nil {
			harnessErr = err
			return fail(name, "reopening fixture: %v", err)
		}
		defer rf.Close()
		fi, err := rf.Stat()
		if err != nil {
			harnessErr = err
			return fail(name, "stat fixture: %v", err)
		}
		seq, err := trace.NewColumnarReaderAt(rf, fi.Size())
		if err != nil {
			return fail(name, "ReaderAt open: %v", err)
		}
		seqBank, err := columnarBank()
		if err != nil {
			harnessErr = err
			return fail(name, "building bank: %v", err)
		}
		seqGot, err := replay.Blocks(ctx, seq, seqBank)
		if err != nil {
			return fail(name, "block replay (ReaderAt): %v", err)
		}
		for i := range want {
			if seqGot[i] != want[i] {
				return fail(name, "engine %d diverges on the ReaderAt path: %+v vs %+v", i, seqGot[i], want[i])
			}
		}
		return pass(name, "%s: %d engines x %d blocks (%s + ReaderAt) == in-memory replay, bit-exact",
			p.Name, len(want), cf.NumBlocks(), mode)
	}))
	if harnessErr != nil {
		return out, harnessErr
	}

	out = append(out, timed(func() Result {
		const name = "differential/blocks-parallel"
		serialBank, err := columnarBank()
		if err != nil {
			harnessErr = err
			return fail(name, "building bank: %v", err)
		}
		want, err := replay.Blocks(ctx, cf, serialBank)
		if err != nil {
			return fail(name, "serial block replay: %v", err)
		}
		for _, workers := range []int{2, 3, 8} {
			parBank, err := columnarBank()
			if err != nil {
				harnessErr = err
				return fail(name, "building bank: %v", err)
			}
			got, err := replay.Chunks(ctx, trace.NewBlockChunks(cf), parBank, workers)
			if err != nil {
				return fail(name, "parallel block replay (workers=%d): %v", workers, err)
			}
			for i := range want {
				if got[i] != want[i] {
					return fail(name, "workers=%d engine %d diverges: %+v vs %+v", workers, i, got[i], want[i])
				}
			}
		}
		return pass(name, "%s: block-parallel fan-out == serial over %d blocks at 3 worker counts, bit-exact",
			p.Name, cf.NumBlocks())
	}))
	if harnessErr != nil {
		return out, harnessErr
	}

	out = append(out, timed(func() Result {
		const name = "differential/columnar-sweep"
		cells := []sweep.Cell{
			{Sets: 128, Assoc: 1}, {Sets: 256, Assoc: 2}, {Sets: 512, Assoc: 1}, {Sets: 1024, Assoc: 4},
		}
		pass1 := sweep.Pass{LineSize: 32, Cells: cells, CountDistinct: true}
		want, err := pass1.Run(refs)
		if err != nil {
			return fail(name, "in-memory sweep: %v", err)
		}
		got, err := pass1.RunBlocks(cf)
		if err != nil {
			return fail(name, "block sweep (%s): %v", mode, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fail(name, "block sweep matrix diverges from in-memory over %s", mode)
		}

		sp := sweep.SampledPass{LineSize: 32, Cells: cells, Window: 2000, Period: 8000}
		sWant, err := sp.Run(runs)
		if err != nil {
			return fail(name, "in-memory sampled sweep: %v", err)
		}
		sGot, err := sp.RunChunks(trace.NewBlockChunks(cf))
		if err != nil {
			return fail(name, "block sampled sweep: %v", err)
		}
		if !reflect.DeepEqual(sGot, sWant) {
			return fail(name, "sampled block sweep diverges from in-memory")
		}
		return pass(name, "%s: exact + sampled sweeps over %d blocks == in-memory, bit-exact",
			p.Name, cf.NumBlocks())
	}))
	return out, harnessErr
}
