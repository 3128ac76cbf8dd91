package vm

import (
	"testing"

	"ibsim/internal/trace"
	"ibsim/internal/xrand"
)

// randomRuns builds n sequential runs over a handful of virtual pages, in
// all four domains, so the same vpn recurs in several address spaces. Runs
// start anywhere in a page and are long enough to cross one or two page
// boundaries. The last run ends exactly at the top of the address space.
func randomRuns(rng *xrand.Source, n int) []trace.Run {
	runs := make([]trace.Run, 0, n+1)
	for i := 0; i < n; i++ {
		runs = append(runs, trace.Run{
			Start:  uint64(rng.Intn(24))<<12 | uint64(rng.Intn(1024))*trace.InstrBytes,
			Len:    int64(1 + rng.Intn(2500)),
			Domain: trace.Domain(rng.Intn(trace.NumDomains)),
		})
	}
	const topLen = 1500 // crosses from the second-highest page into the top one
	return append(runs, trace.Run{Start: ^uint64(0) - topLen*trace.InstrBytes + 1, Len: topLen, Domain: trace.Kernel})
}

// TestFramesMatchTranslate is the page-segment equivalence property: for
// every policy, bounded and unbounded frame pools, and several trials,
// translating Split's segments through Frames yields, instruction for
// instruction, the physical address per-reference Translate gives on a
// twin mapper — and both mappers end holding the same allocations.
func TestFramesMatchTranslate(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runs := randomRuns(xrand.New(seed), 60)
		paged, err := Split(runs, DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{RandomAlloc, Sequential, PageColoring, BinHopping} {
			for _, frames := range []int{0, 16} {
				for trial := uint64(0); trial < 3; trial++ {
					cfg := Config{Policy: pol, Frames: frames, Colors: 8, Seed: seed}
					ref, seg := MustNewMapper(cfg), MustNewMapper(cfg)
					ref.ResetTrial(trial)
					seg.ResetTrial(trial)
					var want []uint64
					for _, r := range runs {
						for k := int64(0); k < r.Len; k++ {
							want = append(want, ref.Translate(r.Start+uint64(k)*trace.InstrBytes, r.Domain))
						}
					}
					base := seg.Frames(paged, nil)
					i := 0
					for _, s := range paged.Segments {
						for k := uint32(0); k < s.Len; k++ {
							if i == len(want) {
								t.Fatalf("segments hold more than the runs' %d instructions", i)
							}
							got := (base[s.Page] | uint64(s.Offset)) + uint64(k)*trace.InstrBytes
							if got != want[i] {
								t.Fatalf("seed %d %v frames %d trial %d: instruction %d at %#x, per-reference %#x",
									seed, pol, frames, trial, i, got, want[i])
							}
							i++
						}
					}
					if i != len(want) {
						t.Fatalf("segments hold %d instructions, runs %d", i, len(want))
					}
					if ref.Allocated() != seg.Allocated() || seg.Allocated() != len(paged.Pages) {
						t.Fatalf("allocated %d per reference, %d via Frames, %d pages",
							ref.Allocated(), seg.Allocated(), len(paged.Pages))
					}
				}
			}
		}
	}
}

func TestSplitSegments(t *testing.T) {
	top := ^uint64(DefaultPageSize - 1) // base of the top page
	runs := []trace.Run{
		{Start: 0x1ff8, Len: 4, Domain: trace.User},      // crosses 0x2000
		{Start: 0x1000, Len: 1, Domain: trace.Kernel},    // same vpn, other domain
		{Start: 0x1ffc, Len: 1, Domain: trace.User},      // back in the first page
		{Start: top - 8, Len: 4, Domain: trace.User},     // ends at 2^64
		{Start: top + 0xff0, Len: 4, Domain: trace.User}, // top line only
	}
	p, err := Split(runs, DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	wantPages := []Page{
		{trace.User, 1}, {trace.User, 2}, {trace.Kernel, 1},
		{trace.User, top>>12 - 1}, {trace.User, top >> 12},
	}
	wantSegs := []Segment{
		{0, 0xff8, 2}, {1, 0, 2}, {2, 0, 1}, {0, 0xffc, 1},
		{3, 0xff8, 2}, {4, 0, 2}, {4, 0xff0, 4},
	}
	if len(p.Pages) != len(wantPages) || len(p.Segments) != len(wantSegs) {
		t.Fatalf("pages %+v segments %+v", p.Pages, p.Segments)
	}
	for i := range wantPages {
		if p.Pages[i] != wantPages[i] {
			t.Errorf("page %d = %+v, want %+v", i, p.Pages[i], wantPages[i])
		}
	}
	for i := range wantSegs {
		if p.Segments[i] != wantSegs[i] {
			t.Errorf("segment %d = %+v, want %+v", i, p.Segments[i], wantSegs[i])
		}
	}
}

func TestSplitAndFramesRejectPageSizes(t *testing.T) {
	for _, size := range []int{0, -4096, 3000} {
		if _, err := Split(nil, size); err == nil {
			t.Errorf("Split accepted page size %d", size)
		}
	}
	p, err := Split([]trace.Run{{Start: 0x1000, Len: 1}}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Frames accepted a trace split at another page size")
		}
	}()
	MustNewMapper(Config{}).Frames(p, nil)
}
