package replay

import (
	"bytes"
	"context"
	"testing"

	"ibsim/internal/fetch"
	"ibsim/internal/trace"
)

// columnarSource encodes runs into an in-memory columnar image at a block
// size small enough to force many blocks and opens it as a BlockSource.
func columnarSource(t testing.TB, runs []trace.Run, blockBytes int) *trace.ColumnarFile {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.EncodeColumnarSize(&buf, runs, blockBytes); err != nil {
		t.Fatal(err)
	}
	cf, err := trace.NewColumnarBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// Blocks over a multi-block columnar trace must be bit-identical to Replay
// over the materialized runs, across the whole mixed bank including the
// analytically derived cells.
func TestBlocksMatchesReplay(t *testing.T) {
	runs := trace.Compact(testTrace(21, 80000))
	want, err := Replay(context.Background(), runs, bank(t))
	if err != nil {
		t.Fatal(err)
	}

	cf := columnarSource(t, runs, 512)
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks; trace too small to exercise block iteration", cf.NumBlocks())
	}
	got, err := Blocks(context.Background(), cf, bank(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("engine %d: blocks %+v != replay %+v", i, got[i], want[i])
		}
	}

	// The in-memory reference BlockSource must agree too.
	rb := trace.NewRunsBlocks(runs, 7)
	got2, err := Blocks(context.Background(), rb, bank(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Errorf("engine %d: runs-blocks %+v != replay %+v", i, got2[i], want[i])
		}
	}
}

func TestBlocksCancel(t *testing.T) {
	runs := trace.Compact(testTrace(3, 20000))
	cf := columnarSource(t, runs, 512)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Blocks(ctx, cf, bank(t)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// SampledChunks over a columnar trace must reproduce Sampled bit for bit —
// Measured counters and every Estimate field — for every plan shape: warm
// time, skip time (the seeking path), degenerate full-coverage, and set
// sampling.
func TestSampledBlocksMatchesSampled(t *testing.T) {
	runs := trace.Compact(testTrace(22, 120000))
	cf := columnarSource(t, runs, 512)
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks", cf.NumBlocks())
	}
	plans := map[string]SamplePlan{
		"time-warm":     {Window: 2000, Period: 8000, Warm: true},
		"time-skip":     {Window: 2000, Period: 8000},
		"time-tiny-win": {Window: 64, Period: 4096},
		"full-coverage": {Window: 5000, Period: 5000},
		"set":           {SetMod: 16, SetMatch: 9, LineSize: 32},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			want, err := Sampled(context.Background(), runs, bank(t), plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SampledChunks(context.Background(), trace.NewBlockChunks(cf), bank(t), plan)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("engine %d: blocks %+v != in-memory %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSampledBlocksRejectsBadPlan(t *testing.T) {
	cf := columnarSource(t, trace.Compact(testTrace(1, 100)), 512)
	if _, err := SampledChunks(context.Background(), trace.NewBlockChunks(cf), bank(t), SamplePlan{}); err == nil {
		t.Fatal("empty plan accepted")
	}
}

// A trace much larger than one block must replay through Blocks without the
// driver ever materializing it: spot-check via a single blocking engine
// against fetch.Run on the expanded refs.
func TestBlocksPerEngineExact(t *testing.T) {
	refs := testTrace(24, 60000)
	runs := trace.Compact(refs)
	cf := columnarSource(t, runs, 1024)
	engines := bank(t)
	got, err := Blocks(context.Background(), cf, engines)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range bank(t) {
		want := fetch.Run(e, refs)
		if got[i] != want {
			t.Errorf("engine %d: blocks %+v != fetch.Run %+v", i, got[i], want)
		}
	}
}
