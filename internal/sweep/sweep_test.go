package sweep

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ibsim/internal/cache"
	"ibsim/internal/synth"
	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// replayMisses simulates one configuration through the trusted cache model.
func replayMisses(t *testing.T, cfg cache.Config, refs []trace.Ref) int64 {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		c.Access(r.Addr)
	}
	return c.Stats().Misses
}

func testRefs(t *testing.T, n int64) []trace.Ref {
	t.Helper()
	p, err := synth.Lookup("gs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// bothPaths runs p through Run over refs and through the line-granular
// RunChunks over their run compaction, and fails unless the two matrices
// agree on every count.
func bothPaths(t *testing.T, p Pass, refs []trace.Ref) *Matrix {
	t.Helper()
	m, err := p.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := p.RunChunks(trace.RunChunks(trace.Compact(refs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mc, m) {
		t.Fatalf("line %d: RunChunks over runs %+v != Run over refs %+v", p.LineSize, mc, m)
	}
	return m
}

func TestMatrixMatchesPerConfigReplay(t *testing.T) {
	refs := testRefs(t, 200_000)
	for _, lineSize := range []int{4, 8, 32, 256} {
		var cells []Cell
		for _, kb := range []int{4, 16, 64} {
			for _, a := range []int{1, 2, 8} {
				lines := kb * 1024 / lineSize
				cells = append(cells, Cell{Sets: lines / a, Assoc: a})
			}
		}
		// One fully-associative 1-KB cell.
		cells = append(cells, Cell{Sets: 1, Assoc: 1024 / lineSize})
		m := bothPaths(t, Pass{LineSize: lineSize, Cells: cells, CountDistinct: true}, refs)
		if m.Accesses != int64(len(refs)) {
			t.Fatalf("accesses %d, want %d", m.Accesses, len(refs))
		}
		for i, c := range cells {
			cfg := cache.Config{Size: c.Size(lineSize), LineSize: lineSize, Assoc: c.Assoc}
			want := replayMisses(t, cfg, refs)
			if m.Misses[i] != want {
				t.Errorf("line %d cell %+v: sweep %d misses, cache replay %d", lineSize, c, m.Misses[i], want)
			}
		}
	}
}

func TestFullyAssociativeCell(t *testing.T) {
	refs := testRefs(t, 50_000)
	const lineSize = 32
	lines := 2048 / lineSize
	m, err := Run(lineSize, []Cell{{Sets: 1, Assoc: lines}}, refs)
	if err != nil {
		t.Fatal(err)
	}
	want := replayMisses(t, cache.Config{Size: 2048, LineSize: lineSize, Assoc: 0}, refs)
	if m.Misses[0] != want {
		t.Fatalf("fully-associative: sweep %d, replay %d", m.Misses[0], want)
	}
}

func TestCountDistinct(t *testing.T) {
	refs := testRefs(t, 100_000)
	const lineSize = 32
	p := Pass{LineSize: lineSize, Cells: []Cell{{Sets: 256, Assoc: 1}}, CountDistinct: true}
	m, err := p.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]struct{}{}
	for _, r := range refs {
		seen[r.Addr>>5] = struct{}{}
	}
	if m.Distinct != int64(len(seen)) {
		t.Fatalf("distinct %d, want %d", m.Distinct, len(seen))
	}
	// Compulsory misses are a lower bound for every cell.
	if m.Misses[0] < m.Distinct {
		t.Fatalf("misses %d below compulsory floor %d", m.Misses[0], m.Distinct)
	}
}

func TestMissesFor(t *testing.T) {
	refs := testRefs(t, 10_000)
	cells := []Cell{{Sets: 256, Assoc: 1}, {Sets: 128, Assoc: 8}}
	m, err := Run(32, cells, refs)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.MissesFor(8192, 1); !ok || got != m.Misses[0] {
		t.Fatalf("MissesFor(8192,1) = %d,%v", got, ok)
	}
	if got, ok := m.MissesFor(32768, 8); !ok || got != m.Misses[1] {
		t.Fatalf("MissesFor(32768,8) = %d,%v", got, ok)
	}
	if _, ok := m.MissesFor(4096, 1); ok {
		t.Fatal("MissesFor reported a cell the grid does not contain")
	}
}

func TestRunValidation(t *testing.T) {
	refs := testRefs(t, 10)
	for _, tc := range []struct {
		name string
		pass Pass
	}{
		{"line not power of two", Pass{LineSize: 24, Cells: []Cell{{Sets: 4, Assoc: 1}}}},
		{"zero line", Pass{LineSize: 0, Cells: []Cell{{Sets: 4, Assoc: 1}}}},
		{"line below instruction size", Pass{LineSize: 2, Cells: []Cell{{Sets: 4, Assoc: 1}}}},
		{"no cells", Pass{LineSize: 32}},
		{"sets not power of two", Pass{LineSize: 32, Cells: []Cell{{Sets: 3, Assoc: 1}}}},
		{"zero assoc", Pass{LineSize: 32, Cells: []Cell{{Sets: 4, Assoc: 0}}}},
	} {
		if _, err := tc.pass.Run(refs); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if _, err := tc.pass.RunChunks(trace.RunChunks(trace.Compact(refs))); err == nil {
			t.Errorf("%s: RunChunks: no error", tc.name)
		}
	}
}

// TestRandomizedGrids cross-checks random geometries on random synthetic
// address streams (not just instruction traces): jump targets land on any
// byte, so runs start mid-line and off the 4-byte instruction grid.
func TestRandomizedGrids(t *testing.T) {
	rng := xrand.New(7)
	refs := make([]trace.Ref, 60_000)
	for i := range refs {
		// A mix of sequential runs and jumps keeps all distances exercised.
		if i > 0 && rng.Intn(4) != 0 {
			refs[i].Addr = refs[i-1].Addr + 4
		} else {
			refs[i].Addr = uint64(rng.Intn(1 << 18))
		}
		refs[i].Kind = trace.IFetch
	}
	lineSizes := []int{4, 8, 16, 32, 64, 128, 256}
	for trial := 0; trial < 2*len(lineSizes); trial++ {
		lineSize := lineSizes[trial%len(lineSizes)]
		var cells []Cell
		for len(cells) < 5 {
			sets := 1 << rng.Intn(10)
			assoc := 1 << rng.Intn(4)
			cells = append(cells, Cell{Sets: sets, Assoc: assoc})
		}
		// A fully-associative cell of up to 64 lines.
		cells = append(cells, Cell{Sets: 1, Assoc: 1 + rng.Intn(64)})
		m := bothPaths(t, Pass{LineSize: lineSize, Cells: cells, CountDistinct: true}, refs)
		for i, c := range cells {
			cfg := cache.Config{Size: c.Size(lineSize), LineSize: lineSize, Assoc: c.Assoc}
			want := replayMisses(t, cfg, refs)
			if m.Misses[i] != want {
				t.Errorf("trial %d line %d cell %+v: sweep %d, replay %d", trial, lineSize, c, m.Misses[i], want)
			}
		}
	}
}

func BenchmarkSweepFigure3Grid(b *testing.B) {
	p, err := synth.Lookup("gs")
	if err != nil {
		b.Fatal(err)
	}
	refs, err := synth.InstrTrace(p, 0, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	var cells []Cell
	for _, kb := range []int{16, 32, 64, 128, 256} {
		cells = append(cells, Cell{Sets: kb * 1024 / 64, Assoc: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(64, cells, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// A cancelled pass context stops Run promptly with the context error; a
// live context changes nothing about the result.
func TestRunHonorsContext(t *testing.T) {
	refs := testRefs(t, 200_000)
	cells := []Cell{{Sets: 256, Assoc: 1}, {Sets: 64, Assoc: 4}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Pass{LineSize: 32, Cells: cells, Ctx: ctx}.Run(refs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: err = %v, want context.Canceled", err)
	}

	want, err := Run(32, cells, refs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Pass{LineSize: 32, Cells: cells, Ctx: context.Background()}.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Misses {
		if got.Misses[i] != want.Misses[i] {
			t.Fatalf("cell %d: ctx run %d misses, plain run %d", i, got.Misses[i], want.Misses[i])
		}
	}
}

// RunChunks over a streaming Source must agree exactly with Run on the same
// stream: the streaming path is the degraded-mode fallback and may not
// change any number.
func TestRunSourceMatchesRun(t *testing.T) {
	refs := testRefs(t, 150_000)
	p := Pass{
		LineSize:      32,
		Cells:         []Cell{{Sets: 64, Assoc: 1}, {Sets: 256, Assoc: 2}, {Sets: 1024, Assoc: 4}},
		CountDistinct: true,
	}
	want, err := p.Run(refs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RunChunks(trace.SourceChunks(trace.NewSliceSource(refs)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Accesses != want.Accesses || got.Distinct != want.Distinct {
		t.Fatalf("totals differ: %d/%d vs %d/%d", got.Accesses, got.Distinct, want.Accesses, want.Distinct)
	}
	for i := range want.Misses {
		if got.Misses[i] != want.Misses[i] {
			t.Errorf("cell %d: streamed %d misses, materialized %d", i, got.Misses[i], want.Misses[i])
		}
	}
}

// errAfterSource fails the stream after n refs.
type errAfterSource struct {
	refs []trace.Ref
	n    int
	i    int
	err  error
}

func (s *errAfterSource) Next() (trace.Ref, bool) {
	if s.i >= s.n {
		return trace.Ref{}, false
	}
	r := s.refs[s.i]
	s.i++
	return r, true
}

func (s *errAfterSource) Err() error {
	if s.i >= s.n {
		return s.err
	}
	return nil
}

// A source error must abort a streamed RunChunks with that error, not a
// silent partial matrix.
func TestRunSourcePropagatesSourceError(t *testing.T) {
	refs := testRefs(t, 10_000)
	boom := errors.New("sweep test: injected stream failure")
	p := Pass{LineSize: 32, Cells: []Cell{{Sets: 64, Assoc: 1}}}
	_, err := p.RunChunks(trace.SourceChunks(&errAfterSource{refs: refs, n: 5_000, err: boom}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected cause", err)
	}
}

// Cancellation mid-stream aborts a streamed RunChunks with the context's
// error.
func TestRunSourceCancellation(t *testing.T) {
	refs := testRefs(t, 400_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Pass{LineSize: 32, Cells: []Cell{{Sets: 64, Assoc: 1}}, Ctx: ctx}
	if _, err := p.RunChunks(trace.SourceChunks(trace.NewSliceSource(refs))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// RunChunks applies the same validation as Run.
func TestRunSourceValidation(t *testing.T) {
	p := Pass{LineSize: 33, Cells: []Cell{{Sets: 64, Assoc: 1}}}
	if _, err := p.RunChunks(trace.SourceChunks(trace.NewSliceSource(nil))); err == nil {
		t.Fatal("line size 33 accepted")
	}
	p = Pass{LineSize: 32}
	if _, err := p.RunChunks(trace.SourceChunks(trace.NewSliceSource(nil))); err == nil {
		t.Fatal("empty grid accepted")
	}
}
