package expt

import (
	"context"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/tso"
)

// Fig8Result holds both panels of Figure 8: the same litmus runs
// interpreted under an assumed bound of S=32 (the documented store-buffer
// capacity — panel a) and S=33 (the true observable bound — panel b).
type Fig8Result struct {
	Raw    []litmus.Result
	PanelA []litmus.GridPoint // assuming S = 32
	PanelB []litmus.GridPoint // assuming S = 33
}

// Figure8Ctx runs the litmus grid on the Westmere model (32 raw entries
// plus the coalescing drain stage → observable bound 33), cancellable
// through ctx. For each L of the paper's sweep it tests δ at the S=32
// prediction, the S=33 prediction, and one above; panel a should show
// failures exactly where ⌈32/(L+1)⌉ divides evenly (δ one too low), and
// panel b should be correct on and above the line δ = α except at L=0,
// where same-location coalescing breaks any bound. The grid runs on
// opts.Runner when set (nil: serially); parallel and serial runs produce
// identical panels because every litmus run carries its own seed and
// machine.
func Figure8Ctx(ctx context.Context, opts litmus.Options) (Fig8Result, error) {
	cfg := tso.Config{BufferSize: 32, DrainBuffer: true}
	deltasFor := func(l int) []int {
		set := map[int]bool{}
		for _, d := range []int{core.Delta(32, l), core.Delta(33, l), core.Delta(33, l) + 1} {
			set[d] = true
		}
		out := make([]int, 0, len(set))
		for d := range set {
			out = append(out, d)
		}
		// deterministic order
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	raw, err := litmus.RunPointsCtx(ctx, cfg, litmus.Figure8Ls(), deltasFor, opts)
	if err != nil {
		return Fig8Result{}, err
	}
	return Fig8Result{
		Raw:    raw,
		PanelA: litmus.Interpret(raw, 32),
		PanelB: litmus.Interpret(raw, 33),
	}, nil
}
