package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Every pass mode must give bit-identical matrices whatever shape the trace
// is held in — the exact pass the matrix of Pass.Run over the expanded refs,
// each sampled pass the matrix of SampledPass.Run: an in-memory slice,
// RunsBlocks at 1, 7 and all runs per block, an on-disk columnar file, a
// per-reference SliceSource, and a checkpointed synth Seeker. Every source
// but the SliceSource serves skip passes through its windows; the
// SliceSource has none, so it keeps the streamed skip path compared with
// the windowed one.
func TestSourceInvariance(t *testing.T) {
	const n = 60_000
	prof, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(prof, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	runs := trace.Compact(refs)
	path := filepath.Join(t.TempDir(), "trace.ibstrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.EncodeColumnarSize(f, runs, 1024); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cf, err := trace.OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks", cf.NumBlocks())
	}

	sources := []struct {
		name string
		open func() trace.Chunks
	}{
		{"runs", func() trace.Chunks { return trace.RunChunks(runs) }},
		{"blocks-1", func() trace.Chunks { return trace.NewBlockChunks(trace.NewRunsBlocks(runs, 1)) }},
		{"blocks-7", func() trace.Chunks { return trace.NewBlockChunks(trace.NewRunsBlocks(runs, 7)) }},
		{"blocks-all", func() trace.Chunks { return trace.NewBlockChunks(trace.NewRunsBlocks(runs, 0)) }},
		{"columnar-file", func() trace.Chunks { return trace.NewBlockChunks(cf) }},
		{"refs", func() trace.Chunks { return trace.SourceChunks(trace.NewSliceSource(refs)) }},
		{"seeker", func() trace.Chunks {
			ss, err := synth.NewSeekSource(prof, 4, n, synth.NewCheckpointIndex(4096))
			if err != nil {
				t.Fatal(err)
			}
			return trace.SeekChunks(ss)
		}},
	}
	grid := sampledGrid()
	passes := []struct {
		name string
		p    SampledPass
		skip bool
	}{
		{"time-warm", SampledPass{Window: 1500, Period: 9000, Warm: true}, false},
		{"time-skip", SampledPass{Window: 1500, Period: 9000}, true},
		{"window-eq-period", SampledPass{Window: 7000, Period: 7000}, false},
		{"set", SampledPass{SetMod: 16, SetMatch: 5, CountDistinct: true}, false},
		{"set+skip", SampledPass{SetMod: 8, SetMatch: 2, Window: 1500, Period: 9000}, true},
	}
	exact := Pass{LineSize: 32, Cells: grid, CountDistinct: true}
	wantExact, err := exact.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected block decode failure")
	rb := trace.NewRunsBlocks(runs, 50)
	failAt, _, _ := rb.SeekRef(9000 + 750) // inside the second measured window
	failing := func() trace.Chunks {
		return trace.NewBlockChunks(&failingBlocks{RunsBlocks: rb, failAt: failAt, err: boom})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, s := range sources {
		got, err := exact.RunChunks(s.open())
		if err != nil {
			t.Fatalf("exact over %s: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, wantExact) {
			t.Errorf("exact over %s:\n got %+v\nwant %+v", s.name, got, wantExact)
		}
	}
	if _, err := exact.RunChunks(failing()); !errors.Is(err, boom) {
		t.Errorf("exact over a failing source: err = %v, want the injected failure", err)
	}
	cancelled := exact
	cancelled.Ctx = ctx
	if _, err := cancelled.RunChunks(sources[4].open()); !errors.Is(err, context.Canceled) {
		t.Errorf("exact under a cancelled context: err = %v, want context.Canceled", err)
	}

	for _, pc := range passes {
		p := pc.p
		p.LineSize, p.Cells = 32, grid
		want, err := p.Run(runs)
		if err != nil {
			t.Fatalf("%s over runs: %v", pc.name, err)
		}
		for _, s := range sources {
			if s.name == "seeker" && !pc.skip {
				continue
			}
			got, err := p.RunChunks(s.open())
			if err != nil {
				t.Fatalf("%s over %s: %v", pc.name, s.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s:\n got %+v\nwant %+v", pc.name, s.name, got, want)
			}
		}
		if _, err := p.RunChunks(failing()); !errors.Is(err, boom) {
			t.Errorf("%s over a failing source: err = %v, want the injected failure", pc.name, err)
		}
		p.Ctx = ctx
		if _, err := p.RunChunks(sources[4].open()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", pc.name, err)
		}
	}
}

// failingBlocks wraps a BlockSource, failing one block's decode.
type failingBlocks struct {
	*trace.RunsBlocks
	failAt int
	err    error
}

func (f *failingBlocks) BlockRuns(i int, dst []trace.Run) ([]trace.Run, error) {
	if i == f.failAt {
		return dst[:0], f.err
	}
	return f.RunsBlocks.BlockRuns(i, dst)
}
