package expt

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/litmus"
	"repro/internal/litmusdsl"
	"repro/internal/runner"
)

// The runner retrofit's contract: parallel and serial execution render
// byte-identical figures, because every job owns its seeded RNG and
// machine and results are folded in submission order.

func TestFigure8ParallelMatchesSerial(t *testing.T) {
	opts := litmus.Options{Tasks: 48, Seeds: 6, DrainBiases: []float64{0.02, 0.2}}
	serial, err := Figure8Ctx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	popts := opts
	popts.Runner = runner.New(4)
	parallel, err := Figure8Ctx(context.Background(), popts)
	if err != nil {
		t.Fatal(err)
	}

	var bs, bp bytes.Buffer
	RenderFigure8Panel(&bs, "Figure 8a", 32, serial.PanelA)
	RenderFigure8Panel(&bs, "Figure 8b", 33, serial.PanelB)
	RenderFigure8Panel(&bp, "Figure 8a", 32, parallel.PanelA)
	RenderFigure8Panel(&bp, "Figure 8b", 33, parallel.PanelB)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Fatalf("parallel Figure 8 differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", bs.String(), bp.String())
	}
}

func TestFigure10ParallelMatchesSerial(t *testing.T) {
	p := HaswellP()
	serial, err := Figure10Ctx(context.Background(), nil, p, apps.SizeTest, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure10Ctx(context.Background(), runner.New(4), p, apps.SizeTest, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bs, bp bytes.Buffer
	RenderFigure10(&bs, serial)
	RenderFigure10(&bp, parallel)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Fatalf("parallel Figure 10 differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", bs.String(), bp.String())
	}
}

func TestFigure11ParallelMatchesSerial(t *testing.T) {
	p := HaswellP()
	serial, err := Figure11Ctx(context.Background(), nil, p, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure11Ctx(context.Background(), runner.New(4), p, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bs, bp bytes.Buffer
	RenderFigure11(&bs, serial)
	RenderFigure11(&bp, parallel)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Fatalf("parallel Figure 11 differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", bs.String(), bp.String())
	}
}

func TestLitmusMatrixParallelMatchesSerial(t *testing.T) {
	// The cheap half of the library; the full matrix (exhaustive, ~10s)
	// already runs once in litmusdsl's own suite and in reproduce -full.
	lib := litmusdsl.Library[:6]
	serial, err := litmusMatrix(context.Background(), nil, lib)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := litmusMatrix(context.Background(), runner.New(4), lib)
	if err != nil {
		t.Fatal(err)
	}
	var bs, bp bytes.Buffer
	RenderLitmusMatrix(&bs, serial)
	RenderLitmusMatrix(&bp, parallel)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Fatalf("parallel matrix differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", bs.String(), bp.String())
	}
	for _, row := range serial {
		if !row.Ok {
			t.Errorf("%s: verdict %s does not match expectation %s", row.Name, row.Verdict, row.Expect)
		}
	}
}

func TestFigure8CtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := litmus.Options{Tasks: 48, Seeds: 4, DrainBiases: []float64{0.02}, Runner: runner.New(2)}
	_, err := Figure8Ctx(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFigureCacheRoundTrip checks the property cmd/reproduce's cache
// depends on: a figure decoded from the on-disk cache renders the same
// bytes as the freshly computed one.
func TestFigureCacheRoundTrip(t *testing.T) {
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := litmus.Options{Tasks: 48, Seeds: 4, DrainBiases: []float64{0.02, 0.2}}
	compute := func() (Fig8Result, error) { return Figure8Ctx(context.Background(), opts) }

	fresh, hit, err := runner.Cached(c, "figure8", opts, compute)
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	cached, hit, err := runner.Cached(c, "figure8", opts, compute)
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	var bf, bc bytes.Buffer
	RenderFigure8Panel(&bf, "Figure 8a", 32, fresh.PanelA)
	RenderFigure8Panel(&bf, "Figure 8b", 33, fresh.PanelB)
	RenderFigure8Panel(&bc, "Figure 8a", 32, cached.PanelA)
	RenderFigure8Panel(&bc, "Figure 8b", 33, cached.PanelB)
	if !bytes.Equal(bf.Bytes(), bc.Bytes()) {
		t.Fatalf("cached render differs from fresh:\n--- fresh ---\n%s\n--- cached ---\n%s", bf.String(), bc.String())
	}
}
