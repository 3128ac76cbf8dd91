package trace

import (
	"errors"
	"io"
	"testing"

	"ibsim/internal/xrand"
)

// drainChunks concatenates every chunk src yields.
func drainChunks(t *testing.T, src Chunks) []Run {
	t.Helper()
	var out []Run
	if err := EachChunk(nil, src, func(runs []Run) error {
		out = append(out, runs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// sliceSeeker is a Seeker over an instruction-only slice, for the Source
// adapter's windows.
type sliceSeeker struct{ SliceSource }

func (s *sliceSeeker) SeekTo(i int64) error { s.pos = int(i); return nil }
func (s *sliceSeeker) Pos() int64           { return int64(s.pos) }
func (s *sliceSeeker) Total() int64         { return int64(len(s.refs)) }

// Every adapter must yield exactly the run-compacted trace: the in-memory
// slice itself, the blocks in order, and the Source adapter's chunks merged
// back into Compact's runs (the Compactor keeps the open run across chunk
// boundaries).
func TestChunksAdaptersYieldTheTrace(t *testing.T) {
	refs := randomInstrTrace(xrand.New(5), 40_000)
	runs := Compact(refs)
	if len(runs) < 3*sourceChunkRuns {
		t.Fatalf("only %d runs; too few to span several source chunks", len(runs))
	}
	cf, err := NewColumnarBytes(encodeColumnarBytes(t, runs, 512))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Chunks{
		"runs":        RunChunks(runs),
		"runs-blocks": NewBlockChunks(NewRunsBlocks(runs, 7)),
		"columnar":    NewBlockChunks(cf),
		"source":      SourceChunks(NewSliceSource(refs)),
		"seeker":      SeekChunks(&sliceSeeker{*NewSliceSource(instrOnly(refs))}),
	} {
		got := drainChunks(t, src)
		if len(got) != len(runs) {
			t.Fatalf("%s: %d runs, want %d", name, len(got), len(runs))
		}
		for i := range runs {
			if got[i] != runs[i] {
				t.Fatalf("%s: run %d = %+v, want %+v", name, i, got[i], runs[i])
			}
		}
		if _, err := src.Next(); err != io.EOF {
			t.Errorf("%s: Next after the end = %v, want io.EOF", name, err)
		}
	}
	// The in-memory adapter hands out the caller's slice, not a copy.
	chunk, err := RunChunks(runs).Next()
	if err != nil || &chunk[0] != &runs[0] || len(chunk) != len(runs) {
		t.Fatalf("RunChunks copied or truncated the trace (err %v)", err)
	}
}

// A source that fails mid-stream fails the read with its error.
func TestSourceChunksPropagatesError(t *testing.T) {
	boom := errors.New("injected source failure")
	refs := randomInstrTrace(xrand.New(6), 20_000)
	src := SourceChunks(&failAfter{src: NewSliceSource(refs), n: 15_000, err: boom})
	err := EachChunk(nil, src, func([]Run) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
}

// failAfter yields n references of src, then fails.
type failAfter struct {
	src Source
	n   int
	err error
}

func (f *failAfter) Next() (Ref, bool) {
	if f.n == 0 {
		return Ref{}, false
	}
	f.n--
	return f.src.Next()
}

func (f *failAfter) Err() error {
	if f.n == 0 {
		return f.err
	}
	return f.src.Err()
}

// Window must reconstruct exactly the instructions of [pos, pos+n) for
// arbitrary positions, including across block boundaries, backward seeks,
// and clipping at the trace end — over in-memory runs, the columnar block
// index and a Seeker alike.
func TestChunksWindow(t *testing.T) {
	refs := instrOnly(randomInstrTrace(xrand.New(23), 30_000))
	runs := Compact(refs)
	cf, err := NewColumnarBytes(encodeColumnarBytes(t, runs, 512))
	if err != nil {
		t.Fatal(err)
	}
	if cf.NumBlocks() < 8 {
		t.Fatalf("only %d blocks", cf.NumBlocks())
	}
	total := int64(len(refs))
	windows := []struct{ pos, n int64 }{
		{0, 1}, {0, 100}, {500, 3000}, {total - 10, 100},
		{total, 50}, {7, 1}, {2, 9000}, // backward seek after a long walk
		{total / 2, 1},
	}
	for name, src := range map[string]Chunks{
		"runs":        RunChunks(runs),
		"columnar":    NewBlockChunks(cf),
		"runs-blocks": NewBlockChunks(NewRunsBlocks(runs, 5)),
		"seeker":      SeekChunks(&sliceSeeker{*NewSliceSource(refs)}),
	} {
		w, ok := src.(Windows)
		if !ok {
			t.Fatalf("%s: no Windows capability", name)
		}
		if w.Total() != total {
			t.Fatalf("%s: Total %d, want %d", name, w.Total(), total)
		}
		var spans []Run
		for _, win := range windows {
			if spans, err = w.Window(win.pos, win.n, spans); err != nil {
				t.Fatalf("%s: Window(%d,%d): %v", name, win.pos, win.n, err)
			}
			got := Expand(spans)
			want := refs[win.pos:min(win.pos+win.n, total)]
			if len(got) != len(want) {
				t.Fatalf("%s: Window(%d,%d) yielded %d instructions, want %d", name, win.pos, win.n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Window(%d,%d) instruction %d = %+v, want %+v", name, win.pos, win.n, i, got[i], want[i])
				}
			}
		}
	}
	if _, ok := SourceChunks(&sliceSeeker{*NewSliceSource(refs)}).(Windows); ok {
		t.Error("SourceChunks over a Seeker claims the Windows capability; it must read every reference")
	}

	// RunChunks' cursor over two known runs: a window inside one run, one
	// across both, one clipped at Total, a backward seek, and one past the
	// end; then an empty trace.
	two, ok := RunChunks([]Run{{Start: 0x1000, Len: 100}, {Start: 0x9000, Len: 25, Domain: Kernel}}).(Windows)
	if !ok || two.Total() != 125 {
		t.Fatalf("RunChunks over two runs: Windows %v", ok)
	}
	for _, tc := range []struct {
		pos, n int64
		want   []Run
	}{
		{10, 20, []Run{{Start: 0x1000 + 10*InstrBytes, Len: 20}}},
		{95, 10, []Run{{Start: 0x1000 + 95*InstrBytes, Len: 5}, {Start: 0x9000, Len: 5, Domain: Kernel}}},
		{120, 50, []Run{{Start: 0x9000 + 20*InstrBytes, Len: 5, Domain: Kernel}}},
		{3, 2, []Run{{Start: 0x1000 + 3*InstrBytes, Len: 2}}},
		{125, 10, nil},
	} {
		spans, err := two.Window(tc.pos, tc.n, nil)
		if err != nil || len(spans) != len(tc.want) {
			t.Fatalf("RunChunks Window(%d,%d) = %+v, %v; want %+v", tc.pos, tc.n, spans, err, tc.want)
		}
		for i := range spans {
			if spans[i] != tc.want[i] {
				t.Errorf("RunChunks Window(%d,%d) span %d = %+v, want %+v", tc.pos, tc.n, i, spans[i], tc.want[i])
			}
		}
	}
	empty, ok := RunChunks(nil).(Windows)
	if !ok {
		t.Fatal("RunChunks(nil) has no Windows capability")
	}
	if spans, err := empty.Window(0, 10, nil); empty.Total() != 0 || err != nil || len(spans) != 0 {
		t.Errorf("empty RunChunks: Total %d, Window(0,10) = %+v, %v", empty.Total(), spans, err)
	}
}

// EachWindow visits [k*period, k*period+window) for every k, the last one
// clipped to the trace end.
func TestEachWindow(t *testing.T) {
	runs := []Run{{Start: 0x1000, Len: 100}, {Start: 0x9000, Len: 25}}
	var got [][]Run
	err := EachWindow(nil, NewBlockChunks(NewRunsBlocks(runs, 1)), 10, 40, func(spans []Run) {
		got = append(got, append([]Run(nil), spans...))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Run{
		{{Start: 0x1000, Len: 10}},
		{{Start: 0x1000 + 40*InstrBytes, Len: 10}},
		{{Start: 0x1000 + 80*InstrBytes, Len: 10}},
		{{Start: 0x9000 + 20*InstrBytes, Len: 5}},
	}
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d: %+v", len(got), len(want), got)
	}
	for k := range want {
		if len(got[k]) != len(want[k]) || got[k][0] != want[k][0] {
			t.Errorf("window %d = %+v, want %+v", k, got[k], want[k])
		}
	}
}
