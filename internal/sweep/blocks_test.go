package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ibsim/internal/trace"
)

// columnarOf encodes runs into an in-memory columnar image at a small block
// size and opens it as a BlockSource.
func columnarOf(t testing.TB, runs []trace.Run, blockBytes int) *trace.ColumnarFile {
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

func sweepCells() []Cell {
	return []Cell{
		{Sets: 128, Assoc: 1}, {Sets: 64, Assoc: 2}, {Sets: 512, Assoc: 1},
		{Sets: 256, Assoc: 4}, {Sets: 1024, Assoc: 2},
	}
}

// Pass.RunBlocks over a multi-block columnar trace must reproduce Pass.Run
// over the equivalent expanded refs exactly, including first-touch counts.
func TestRunBlocksMatchesRun(t *testing.T) {
	refs := testRefs(t, 150_000)
	runs := trace.Compact(refs)
	p := Pass{LineSize: 32, Cells: sweepCells(), CountDistinct: true, Ctx: context.Background()}
	want, err := p.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	cf := columnarOf(t, runs, 512)
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks; trace too small to exercise block iteration", cf.NumBlocks())
	}
	got, err := p.RunBlocks(cf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("block matrix %+v != in-memory %+v", got, want)
	}
}

func TestRunBlocksCancel(t *testing.T) {
	refs := testRefs(t, 20_000)
	cf := columnarOf(t, trace.Compact(refs), 512)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Pass{LineSize: 32, Cells: sweepCells(), Ctx: ctx}
	if _, err := p.RunBlocks(cf); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// SampledPass.RunChunks over a columnar trace must be bit-identical to
// SampledPass.Run — matrices, estimates, clusters — for every sampling
// shape, including the set-only fast path fed one block at a time.
func TestSampledRunBlocksMatchesRun(t *testing.T) {
	refs := testRefs(t, 200_000)
	runs := trace.Compact(refs)
	cf := columnarOf(t, runs, 512)
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks", cf.NumBlocks())
	}
	passes := map[string]SampledPass{
		"set-only":   {LineSize: 32, Cells: sweepCells(), SetMod: 16, SetMatch: 5},
		"time-warm":  {LineSize: 32, Cells: sweepCells(), Window: 2000, Period: 8000, Warm: true},
		"time-skip":  {LineSize: 32, Cells: sweepCells(), Window: 2000, Period: 8000},
		"set+time":   {LineSize: 32, Cells: sweepCells(), SetMod: 8, SetMatch: 3, Window: 4000, Period: 16000, Warm: true},
		"exhaustive": {LineSize: 32, Cells: sweepCells(), Window: 5000, Period: 5000},
		"distinct":   {LineSize: 32, Cells: sweepCells(), SetMod: 16, SetMatch: 5, CountDistinct: true},
	}
	for name, p := range passes {
		t.Run(name, func(t *testing.T) {
			p.Ctx = context.Background()
			want, err := p.Run(runs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.RunChunks(trace.NewBlockChunks(cf))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("block matrix differs from in-memory:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestSampledRunBlocksRejectsBadPass(t *testing.T) {
	cf := columnarOf(t, trace.Compact(testRefs(t, 100)), 512)
	p := SampledPass{LineSize: 3, Cells: sweepCells()}
	if _, err := p.RunChunks(trace.NewBlockChunks(cf)); err == nil {
		t.Fatal("invalid line size accepted")
	}
}
