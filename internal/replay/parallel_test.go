package replay

import (
	"context"
	"errors"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/fetch"
	"ibsim/internal/memsys"
	"ibsim/internal/trace"
)

// Chunks over a columnar trace with the bank split across workers must be
// bit-identical to the serial Blocks path for every worker count, including
// degenerate ones, across the mixed bank with its analytically derived
// cells.
func TestBlocksParallelMatchesSerial(t *testing.T) {
	runs := trace.Compact(testTrace(23, 80000))
	cf := columnarSource(t, runs, 512)
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks; fixture too small", cf.NumBlocks())
	}
	want, err := Blocks(context.Background(), cf, bank(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 4, 16} {
		got, err := Chunks(context.Background(), trace.NewBlockChunks(cf), bank(t), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d engine %d: parallel %+v != serial %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// A single-engine bank or a single-block trace must take the serial path and
// still answer correctly.
func TestBlocksParallelDegenerate(t *testing.T) {
	runs := trace.Compact(testTrace(5, 20000))
	one := columnarSource(t, runs, 1<<20) // one huge block
	if one.NumBlocks() != 1 {
		t.Fatalf("fixture has %d blocks, want 1", one.NumBlocks())
	}
	mk := func() fetch.Engine {
		e, err := fetch.NewBlocking(cache.Config{Size: 16384, LineSize: 32, Assoc: 1},
			memsys.Transfer{Latency: 6, BytesPerCycle: 16}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	wantRes, err := Replay(context.Background(), runs, []fetch.Engine{mk()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Chunks(context.Background(), trace.NewBlockChunks(one), []fetch.Engine{mk()}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != wantRes[0] {
		t.Fatalf("degenerate parallel %+v != serial %+v", got[0], wantRes[0])
	}
}

func TestBlocksParallelCancel(t *testing.T) {
	runs := trace.Compact(testTrace(3, 40000))
	cf := columnarSource(t, runs, 512)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Chunks(ctx, trace.NewBlockChunks(cf), bank(t), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A decode failure in one worker must surface as the call's error and stop
// the siblings instead of deadlocking.
func TestBlocksParallelErrorPropagates(t *testing.T) {
	runs := trace.Compact(testTrace(9, 40000))
	boom := errors.New("injected block decode failure")
	bs := &failingBlocks{RunsBlocks: trace.NewRunsBlocks(runs, 5), failAt: 3, err: boom}
	if _, err := Chunks(context.Background(), trace.NewBlockChunks(bs), bank(t), 3); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
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
