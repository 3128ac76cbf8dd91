package replay

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
)

// Every driver mode must give bit-identical results whatever shape the trace
// is held in: an in-memory slice, RunsBlocks at 1, 7 and all runs per block,
// an on-disk columnar file, a per-reference SliceSource, and a checkpointed
// synth Seeker. Every source but the SliceSource serves skip plans through
// its windows; the SliceSource has none, so it keeps the streamed skip path
// compared with the windowed one.
func TestSourceInvariance(t *testing.T) {
	const n = 60_000
	prof, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(prof, 3, n)
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
			ss, err := synth.NewSeekSource(prof, 3, n, synth.NewCheckpointIndex(4096))
			if err != nil {
				t.Fatal(err)
			}
			return trace.SeekChunks(ss)
		}},
	}
	skip := SamplePlan{Window: 1500, Period: 9000}
	modes := []struct {
		name    string
		plan    *SamplePlan // nil: exact fan-out
		workers int
	}{
		{"exact", nil, 1},
		{"exact-parallel", nil, 3},
		{"time-warm", &SamplePlan{Window: 1500, Period: 9000, Warm: true}, 0},
		{"time-skip", &skip, 0},
		{"window-eq-period", &SamplePlan{Window: 7000, Period: 7000}, 0},
		{"set", &SamplePlan{SetMod: 16, SetMatch: 5, LineSize: 32}, 0},
	}
	run := func(ctx context.Context, src trace.Chunks, plan *SamplePlan, workers int) (any, error) {
		if plan == nil {
			return Chunks(ctx, src, bank(t), workers)
		}
		return SampledChunks(ctx, src, bank(t), *plan)
	}
	for _, m := range modes {
		want, err := run(context.Background(), sources[0].open(), m.plan, m.workers)
		if err != nil {
			t.Fatalf("%s over runs: %v", m.name, err)
		}
		for _, s := range sources[1:] {
			if s.name == "seeker" && m.plan != &skip {
				continue
			}
			got, err := run(context.Background(), s.open(), m.plan, m.workers)
			if err != nil {
				t.Fatalf("%s over %s: %v", m.name, s.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s:\n got %+v\nwant %+v", m.name, s.name, got, want)
			}
		}

		// A source failing mid-stream fails every mode with its error, and
		// a cancelled context stops every mode with ctx.Err().
		// The failing block lies inside the second measured window, so the
		// skip plan reads it too.
		boom := errors.New("injected block decode failure")
		rb := trace.NewRunsBlocks(runs, 50)
		failAt, _, _ := rb.SeekRef(skip.Period + skip.Window/2)
		failing := trace.NewBlockChunks(&failingBlocks{RunsBlocks: rb, failAt: failAt, err: boom})
		if _, err := run(context.Background(), failing, m.plan, m.workers); !errors.Is(err, boom) {
			t.Errorf("%s over a failing source: err = %v, want the injected failure", m.name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := run(ctx, sources[4].open(), m.plan, m.workers); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", m.name, err)
		}
	}
}

// Replay over in-memory runs must not copy the trace: the bytes it
// allocates are the same for 10K runs as for 1M runs (~24 MB of Run values).
func TestReplayDoesNotCopyRuns(t *testing.T) {
	allocated := func(nruns int) uint64 {
		runs := make([]trace.Run, nruns)
		for i := range runs {
			runs[i] = trace.Run{Start: uint64(0x10000 + 64*(i%4096)), Len: 5}
		}
		e, err := fetch.NewBlocking(cache.Config{Size: 8192, LineSize: 32, Assoc: 1},
			memsys.Transfer{Latency: 6, BytesPerCycle: 8}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Replay(context.Background(), runs, []fetch.Engine{e}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(10_000), allocated(1_000_000)
	if large > small+4096 {
		t.Fatalf("Replay allocated %d bytes over 1M runs vs %d over 10K: the in-memory trace is being copied", large, small)
	}
}
