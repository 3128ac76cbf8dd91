package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/replay"
	"ibsim/internal/sweep"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// The traced runs' layer probes: direct calls into one layer at a time, on
// the same inputs the workload just ran, each recorded as a span whose work
// is the instructions it processed.

// fetchProbes is one engine of each kind on the 8-KB direct-mapped base L1
// behind the on-chip L2 link.
var fetchProbes = []struct {
	name string
	mk   func() (fetch.Engine, error)
}{
	{"fetch.blocking", func() (fetch.Engine, error) { return fetch.NewBlocking(l1(8192, 32, 1), memsys.L1L2Link(), 0) }},
	{"fetch.prefetch", func() (fetch.Engine, error) { return fetch.NewBlocking(l1(8192, 32, 1), memsys.L1L2Link(), 1) }},
	{"fetch.bypass", func() (fetch.Engine, error) { return fetch.NewBypass(l1(8192, 32, 1), memsys.L1L2Link(), 1) }},
	{"fetch.stream", func() (fetch.Engine, error) { return fetch.NewStream(l1(8192, 32, 1), memsys.L1L2Link(), 6) }},
}

// figure34Passes are the sweep passes Figures 3 and 4 make per workload:
// one direct-mapped pass per L2 line size over 16-256 KB (the 32-byte pass
// carrying the 8-KB base L1), the 64-KB L2 at 1-8 ways, and the base L1.
func figure34Passes() []sweep.Pass {
	var passes []sweep.Pass
	for _, line := range []int{8, 16, 32, 64, 128, 256} {
		var cells []sweep.Cell
		for kb := 16; kb <= 256; kb *= 2 {
			cells = append(cells, sweep.Cell{Sets: kb * 1024 / line, Assoc: 1})
		}
		if line == 32 {
			cells = append(cells, sweep.Cell{Sets: 8192 / 32, Assoc: 1})
		}
		passes = append(passes, sweep.Pass{LineSize: line, Cells: cells})
	}
	var l2 []sweep.Cell
	for _, a := range []int{1, 2, 4, 8} {
		l2 = append(l2, sweep.Cell{Sets: 64 * 1024 / 64 / a, Assoc: a})
	}
	return append(passes,
		sweep.Pass{LineSize: 64, Cells: l2},
		sweep.Pass{LineSize: 32, Cells: []sweep.Cell{{Sets: 8192 / 32, Assoc: 1}}})
}

// tableBanks builds the Table 6-8 engine banks: prefetching blocking and
// bypass L1s over 16-64-byte lines and 0-3 prefetched lines, and stream
// buffers of depth 0-18 at 16- and 32-byte lines.
func tableBanks() ([][]fetch.Engine, error) {
	var blocking, bypass, stream []fetch.Engine
	for _, depth := range []int{0, 1, 2, 3} {
		for _, line := range []int{16, 32, 64} {
			b, err := fetch.NewBlocking(l1(8192, line, 1), memsys.L1L2Link(), depth)
			if err != nil {
				return nil, err
			}
			y, err := fetch.NewBypass(l1(8192, line, 1), memsys.L1L2Link(), depth)
			if err != nil {
				return nil, err
			}
			blocking, bypass = append(blocking, b), append(bypass, y)
		}
	}
	for _, depth := range []int{0, 1, 3, 6, 12, 18} {
		for _, line := range []int{16, 32} {
			s, err := fetch.NewStream(cache.Config{Size: 8192, LineSize: line, Assoc: 1}, memsys.Transfer{Latency: 6, BytesPerCycle: line}, depth)
			if err != nil {
				return nil, err
			}
			stream = append(stream, s)
		}
	}
	return [][]fetch.Engine{blocking, bypass, stream}, nil
}

// paperTablesProbes times compaction, each fetch engine kind, the Figure 3/4
// sweep passes and the Table 6-8 replay banks on every IBS trace the pass
// held.
func paperTablesProbes(e *env, parent int, h *held, _ map[string]string, _ *outcome) error {
	ctx := context.Background()
	for _, p := range synth.IBSMach() {
		refs, runs := h.refs[p.Name], h.runs[p.Name]
		n := int64(len(refs))
		e.rec.timed("trace.compact", parent, 0, n, func() error { trace.Compact(refs); return nil })
		for _, fp := range fetchProbes {
			eng, err := fp.mk()
			if err != nil {
				return err
			}
			re, ok := eng.(fetch.RunEngine)
			if !ok {
				return fmt.Errorf("%s: engine has no run fast path", fp.name)
			}
			e.rec.timed(fp.name, parent, 0, n, func() error { re.FetchRuns(runs); return nil })
		}
		for _, pass := range figure34Passes() {
			if err := e.rec.timed("sweep.exact", parent, 0, n, func() error { _, err := pass.Run(refs); return err }); err != nil {
				return err
			}
		}
		banks, err := tableBanks()
		if err != nil {
			return err
		}
		for _, bank := range banks {
			if err := e.rec.timed("replay.bank", parent, 0, n, func() error { _, err := replay.Replay(ctx, runs, bank); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillProbes times the serve-spill tiers' layers on every hot-pool trace,
// from a store of its own with the same budget: the columnar spill (cold
// key), block decode, the block-granular sweep and replay drivers, and the
// checkpoint-seek source with the seek drivers on the long traces.
func spillProbes(e *env, t traffic, dir string, o *outcome) error {
	ctx := context.Background()
	pdir := filepath.Join(dir, "probe")
	st := synth.NewStoreLimits(synth.DefaultIdleBudget, spillBudget)
	if err := st.SetSpillDir(pdir); err != nil {
		return err
	}
	defer os.RemoveAll(pdir)
	defer st.Purge()
	cells := make([]sweep.Cell, len(sweepCells))
	for i, c := range sweepCells {
		cells[i] = sweep.Cell{Sets: c.Sets, Assoc: c.Assoc}
	}
	root := e.rec.start("probes", 0, 0)
	defer e.rec.end(root, 0)
	var bytes, refs int64
	for _, p := range t.profiles {
		id := e.rec.start("synth.spill", root, 0)
		cf, release, err := st.Columnar(ctx, p, t.hotSeed(), instructions)
		if err != nil {
			return err
		}
		e.rec.end(id, cf.Size())
		bytes, refs = bytes+cf.Size(), refs+cf.Refs()
		err = e.rec.timed("trace.columnar.decode", root, 0, cf.Refs(), func() error {
			var buf []trace.Run
			for b := 0; b < cf.NumBlocks(); b++ {
				var err error
				if buf, err = cf.BlockRuns(b, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = e.rec.timed("sweep.blocks", root, 0, cf.Refs(), func() error {
				_, err := sweep.Pass{LineSize: sweepLine, Cells: cells, CountDistinct: true}.RunBlocks(cf)
				return err
			})
		}
		if err == nil {
			err = e.rec.timed("replay.blocks", root, 0, cf.Refs(), func() error {
				bank, err := newBank()
				if err == nil {
					_, err = replay.Blocks(ctx, cf, bank)
				}
				return err
			})
		}
		release()
		if err != nil {
			return err
		}

		src, release, err := st.SeekSource(p, t.hotSeed(), longInstructions)
		if err != nil {
			return err
		}
		err = e.rec.timed("synth.seek", root, 0, 0, func() error {
			for pos := int64(0); pos < longInstructions; pos += skipPeriod {
				if err := src.SeekTo(pos); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = e.rec.timed("sweep.seek", root, 0, longInstructions, func() error {
				_, err := sweep.SampledPass{LineSize: sweepLine, Cells: cells, Window: skipWindow, Period: skipPeriod}.RunSeek(src)
				return err
			})
		}
		if err == nil {
			err = e.rec.timed("replay.seek", root, 0, longInstructions, func() error {
				bank, err := newBank()
				if err == nil {
					_, err = replay.SampledSeek(ctx, src, bank, replay.SamplePlan{Window: skipWindow, Period: skipPeriod})
				}
				return err
			})
		}
		release()
		if err != nil {
			return err
		}
	}
	o.metrics["trace.columnar.bytes_per_instr"] = float64(bytes) / float64(refs)
	return nil
}
