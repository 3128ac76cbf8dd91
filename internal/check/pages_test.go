package check

import "testing"

func TestFigure5Pages(t *testing.T) {
	opt := testOpt(t)
	if testing.Short() {
		opt.Instructions = 20_000
	}
	rs, err := Figure5Pages(opt)
	requireAllPass(t, rs, err)
}
