package check

import (
	"ibsim/internal/experiments"
)

// Figure5Pages verifies Figure 5's page-segment path (one vm translation
// per page, cache.AccessRun per segment) against the Options.PerConfig
// reference path (Translate and Access once per reference). Every
// Figure5Point must be equal with ==, MeanCPI and StdDev included, not
// merely render the same text. It runs at the check scale under the run
// seed and the next one, so at least one generation seed is nonzero.
func Figure5Pages(opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	var harnessErr error
	r := timed(func() Result {
		const name = "differential/figure5-pages"
		seeds := []uint64{opt.Seed, opt.Seed + 1}
		points := 0
		for _, seed := range seeds {
			fastOpt := experiments.Options{Instructions: opt.Instructions, Seed: seed}
			refOpt := fastOpt
			refOpt.PerConfig = true
			fast, err := experiments.Figure5(fastOpt)
			if err != nil {
				harnessErr = err
				return fail(name, "seed %d page-segment path: %v", seed, err)
			}
			ref, err := experiments.Figure5(refOpt)
			if err != nil {
				harnessErr = err
				return fail(name, "seed %d per-reference path: %v", seed, err)
			}
			if len(fast.Points) != len(ref.Points) {
				return fail(name, "seed %d: %d points, per-reference %d", seed, len(fast.Points), len(ref.Points))
			}
			for i, p := range fast.Points {
				if p != ref.Points[i] {
					return fail(name, "seed %d: point %+v, per-reference %+v", seed, p, ref.Points[i])
				}
			}
			points += len(fast.Points)
		}
		return pass(name, "%d Figure 5 points at seeds %v: page-segment == per-reference (MeanCPI, StdDev exact)", points, seeds)
	})
	return []Result{r}, harnessErr
}
