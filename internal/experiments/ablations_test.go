package experiments

import (
	"strings"
	"testing"

	"ibsim/internal/vm"
)

func TestAblationSubBlock(t *testing.T) {
	res, err := AblationSubBlock(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's footnote: 64-B sub-blocked performs "almost as well as" a
	// 16-B line with 3-line prefetch, and both beat... the precise ordering
	// depends on pollution; assert the sub-block config lands between the
	// plain 64-B line and a 2x band of the prefetch config.
	if res.Line64SubBlock16 <= 0 || res.Line16Prefetch3 <= 0 || res.Line64Plain <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Line64SubBlock16 > 2*res.Line16Prefetch3 {
		t.Errorf("sub-block CPI %.3f not within 2x of prefetch CPI %.3f",
			res.Line64SubBlock16, res.Line16Prefetch3)
	}
	if !strings.Contains(res.Render(), "sub-block") {
		t.Error("render missing rows")
	}
}

func TestAblationPagePolicy(t *testing.T) {
	res, err := AblationPagePolicy(Options{Instructions: 200_000, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byPolicy := map[vm.Policy]PagePolicyRow{}
	for _, r := range res.Rows {
		byPolicy[r.Policy] = r
	}
	// Careful policies are deterministic across trials: zero variability.
	for _, pol := range []vm.Policy{vm.Sequential, vm.PageColoring, vm.BinHopping} {
		if sd := byPolicy[pol].StdDev; sd != 0 {
			t.Errorf("%v: deterministic policy has nonzero trial stddev %.4f", pol, sd)
		}
	}
	// Random allocation varies.
	if byPolicy[vm.RandomAlloc].StdDev == 0 {
		t.Error("random allocation shows no variability")
	}
	// Page coloring should not be worse than random allocation on average
	// (it reproduces virtual-index behavior).
	if byPolicy[vm.PageColoring].MeanMPI > byPolicy[vm.RandomAlloc].MeanMPI*1.15 {
		t.Errorf("page coloring (%.2f) much worse than random (%.2f)",
			byPolicy[vm.PageColoring].MeanMPI, byPolicy[vm.RandomAlloc].MeanMPI)
	}
	if !strings.Contains(res.Render(), "bin-hopping") {
		t.Error("render missing policy")
	}
}

// TestAblationPagePolicyPerConfig pins the ablation's page-segment path to
// the per-reference reference path for all four policies, row for row.
func TestAblationPagePolicyPerConfig(t *testing.T) {
	for _, seed := range []uint64{0, 3} {
		opt := Options{Instructions: 60_000, Trials: 2, Seed: seed}
		fast, err := AblationPagePolicy(opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.PerConfig = true
		ref, err := AblationPagePolicy(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast.Rows) != len(ref.Rows) {
			t.Fatalf("seed %d: %d rows, per-reference %d", seed, len(fast.Rows), len(ref.Rows))
		}
		for i := range fast.Rows {
			if fast.Rows[i] != ref.Rows[i] {
				t.Errorf("seed %d: row %+v, per-reference %+v", seed, fast.Rows[i], ref.Rows[i])
			}
		}
	}
}

func TestAblationReplacement(t *testing.T) {
	res, err := AblationReplacement(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// At every associativity LRU should not lose badly to FIFO or random
	// (within 10% — instruction streams are LRU-friendly).
	type key struct{ assoc, pol int }
	byKey := map[key]float64{}
	for _, r := range res.Rows {
		byKey[key{r.Assoc, int(r.Policy)}] = r.MPI
	}
	for _, a := range []int{2, 4, 8} {
		lru := byKey[key{a, 0}]
		if lru <= 0 {
			t.Fatalf("missing LRU value for %d-way", a)
		}
		for pol := 1; pol <= 2; pol++ {
			if byKey[key{a, pol}] < lru*0.9 {
				t.Errorf("%d-way policy %d (%.2f) beats LRU (%.2f) by >10%%",
					a, pol, byKey[key{a, pol}], lru)
			}
		}
	}
	if !strings.Contains(res.Render(), "FIFO") {
		t.Error("render missing columns")
	}
}
