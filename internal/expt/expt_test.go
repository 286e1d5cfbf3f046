package expt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/litmus"
	"repro/internal/tso"
)

func TestFigure1ShapeSmall(t *testing.T) {
	rows, err := Figure1(apps.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows want 7", len(rows))
	}
	byApp := map[string]Fig1Row{}
	for _, r := range rows {
		if r.NormalizedPct >= 100 {
			t.Errorf("%s: removing the fence did not speed up the run (%.1f%%)", r.App, r.NormalizedPct)
		}
		if r.NormalizedPct < 50 {
			t.Errorf("%s: implausibly large fence share (%.1f%%)", r.App, r.NormalizedPct)
		}
		byApp[r.App] = r
	}
	// The paper's ordering: fine-grained Fib gains far more than
	// coarse-grained cholesky.
	if byApp["Fib"].NormalizedPct >= byApp["cholesky"].NormalizedPct {
		t.Errorf("Fib (%.1f%%) should benefit more than cholesky (%.1f%%)",
			byApp["Fib"].NormalizedPct, byApp["cholesky"].NormalizedPct)
	}
}

func TestFigure7BothPlatforms(t *testing.T) {
	for _, p := range []Platform{Westmere(), HaswellP()} {
		res, err := Figure7(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want := p.Cfg.ObservableBound()
		if res.Measured != want {
			t.Errorf("%s: measured %d want %d", p.Name, res.Measured, want)
		}
		if res.SameMeasured != want {
			t.Errorf("%s: same-location measured %d want %d", p.Name, res.SameMeasured, want)
		}
	}
}

func TestFigure8Tiny(t *testing.T) {
	// A reduced grid: only the L values where the S=32 vs S=33 analysis
	// disagrees most sharply, few seeds. The full grid is reproduce's figure8
	// section.
	res, err := Figure8Ctx(context.Background(), litmus.Options{Tasks: 48, Seeds: 25, DrainBiases: []float64{0.02, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PanelA) == 0 || len(res.PanelB) == 0 {
		t.Fatal("empty panels")
	}
	// Panel B: every δ > α point with L > 0 must be correct.
	for _, gp := range res.PanelB {
		hasL0 := false
		for _, l := range gp.Ls {
			if l == 0 {
				hasL0 = true
			}
		}
		if hasL0 {
			continue
		}
		if gp.Delta > gp.Alpha && !gp.Correct {
			t.Errorf("panel b: α=%d δ=%d (no L=0) incorrect", gp.Alpha, gp.Delta)
		}
	}
	var buf bytes.Buffer
	RenderFigure8Panel(&buf, "Figure 8a", 32, res.PanelA)
	RenderFigure8Panel(&buf, "Figure 8b", 33, res.PanelB)
	if !strings.Contains(buf.String(), "alpha") {
		t.Fatal("render produced no grid")
	}
}

func TestFigure10SmallRun(t *testing.T) {
	// One fast platform pass at test size to exercise the whole driver.
	p := HaswellP()
	res, err := Figure10Ctx(context.Background(), nil, p, apps.SizeTest, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("got %d rows want 11", len(res.Rows))
	}
	if len(res.GeoMean) != 5 {
		t.Fatalf("got %d geomeans want 5", len(res.GeoMean))
	}
	for _, row := range res.Rows {
		if row.BaselineCycles <= 0 {
			t.Fatalf("%s: zero baseline", row.App)
		}
		for label, c := range row.Cells {
			if c.Median <= 0 {
				t.Fatalf("%s/%s: nonpositive normalized median", row.App, label)
			}
		}
	}
	var buf bytes.Buffer
	RenderFigure10(&buf, res)
	if !strings.Contains(buf.String(), "Geo mean") {
		t.Fatal("render missing geomean row")
	}
}

func TestFigure11SmallRun(t *testing.T) {
	res, err := Figure11Ctx(context.Background(), nil, HaswellP(), 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d workloads want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		cl := row.Cells["Chase-Lev"]
		if cl.NormalizedPct < 99 || cl.NormalizedPct > 101 {
			t.Fatalf("%s: baseline not ~100%% (%.1f)", row.Workload, cl.NormalizedPct)
		}
		for label, c := range row.Cells {
			if c.StolenPct < 0 || c.StolenPct > 100 {
				t.Fatalf("%s/%s: stolen%% %v", row.Workload, label, c.StolenPct)
			}
		}
	}
	var buf bytes.Buffer
	RenderFigure11(&buf, res)
	if !strings.Contains(buf.String(), "stolen work") {
		t.Fatal("render missing stolen-work panel")
	}
}

func TestWriteTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	WriteTable(&buf, []string{"a", "long-header"}, [][]string{{"xxxxx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Fatalf("missing separator: %q", lines[1])
	}
}

// TestStoreBufferingTallies: every sampled schedule lands in exactly one
// row of each tally, the fences rule out r0=0 r1=0, and no reader ever
// lags the writer by more than the observable bound.
func TestStoreBufferingTallies(t *testing.T) {
	for _, stage := range []bool{false, true} {
		cfg := tso.Config{Threads: 2, BufferSize: 2, DrainBuffer: stage, DrainBias: 0.1}
		res := sampleStoreBuffering(cfg, 200)
		sum := func(xs []int) int {
			n := 0
			for _, x := range xs {
				n += x
			}
			return n
		}
		if sum(res.Unfenced[:]) != 200 || sum(res.Fenced[:]) != 200 || sum(res.Lag) != 200 {
			t.Fatalf("stage=%v: tallies do not cover every schedule: %+v", stage, res)
		}
		if res.Fenced[0] != 0 {
			t.Errorf("stage=%v: %d fenced schedules reached r0=0 r1=0", stage, res.Fenced[0])
		}
		if res.Unfenced[0] == 0 {
			t.Errorf("stage=%v: no unfenced schedule reached the TSO outcome r0=0 r1=0", stage)
		}
		if n := res.Lag[res.Bound+1]; n != 0 {
			t.Errorf("stage=%v: %d schedules exceed the bound %d", stage, n, res.Bound)
		}
	}
}
