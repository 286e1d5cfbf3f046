package expt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/litmus"
	"repro/internal/measure"
	"repro/internal/tso"
)

// manifestEntry writes data as a one-entry manifest, checks the envelope
// and returns the entry's data as raw JSON.
func manifestEntry(t *testing.T, experiment string, data any) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteManifestJSON(&buf, []ManifestEntry{{Experiment: experiment, Data: data}}); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Experiment string `json:"experiment"`
		Schema     int    `json:"schema"`
		Data       []struct {
			Experiment string          `json:"experiment"`
			Data       json.RawMessage `json:"data"`
		} `json:"data"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if env.Experiment != "manifest" || env.Schema != 1 {
		t.Fatalf("envelope = %q schema %d", env.Experiment, env.Schema)
	}
	if len(env.Data) != 1 || env.Data[0].Experiment != experiment {
		t.Fatalf("entries = %+v want one %q", env.Data, experiment)
	}
	if raw := env.Data[0].Data; len(raw) == 0 || string(raw) == "null" {
		t.Fatal("no data")
	}
	return env.Data[0].Data
}

// roundTrip writes v as a manifest entry and requires it to decode back
// into an equal T.
func roundTrip[T any](t *testing.T, experiment string, v T) {
	t.Helper()
	var got T
	if err := json.Unmarshal(manifestEntry(t, experiment, v), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%s did not round-trip:\n got %+v\nwant %+v", experiment, got, v)
	}
}

func TestFigure1JSONRoundTrip(t *testing.T) {
	rows, err := Figure1(apps.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	var data []map[string]any
	if err := json.Unmarshal(manifestEntry(t, "figure1", rows), &data); err != nil {
		t.Fatal(err)
	}
	if len(data) != 7 {
		t.Fatalf("rows = %d", len(data))
	}
	if data[0]["App"] != "Fib" {
		t.Fatalf("first app = %v", data[0]["App"])
	}
	if data[0]["NormalizedPct"].(float64) <= 0 {
		t.Fatal("missing normalized value")
	}
	roundTrip(t, "figure1", rows)
}

func TestFigure7JSON(t *testing.T) {
	roundTrip(t, "figure7", []Fig7Result{{Platform: "x", RawCapacity: 8, Measured: 9,
		Points: []measure.Point{{Stores: 1, CyclesPerIter: 2}}}})
}

func TestFigure8JSON(t *testing.T) {
	roundTrip(t, "figure8", Fig8Result{
		Raw:    []litmus.Result{{L: 1, Delta: 2, Runs: 3}},
		PanelA: []litmus.GridPoint{{Alpha: 1, Delta: 1, Correct: false, Ls: []int{1}}},
	})
}

func TestFigure10And11JSON(t *testing.T) {
	roundTrip(t, "figure10", []Fig10Result{{Platform: "p", Threads: 2, DeltaS: 4,
		Variants: []string{"THEP"},
		Rows:     []Fig10Row{{App: "Fib", BaselineCycles: 10, Cells: map[string]Fig10Cell{"THEP": {Median: 90}}}},
		GeoMean:  map[string]float64{"THEP": 90},
	}})
	roundTrip(t, "figure11", Fig11Result{Platform: "p",
		Rows: []Fig11Row{{Workload: "t", Threads: 2, Baseline: 5,
			Cells: map[string]Fig11Cell{"FF-CL": {NormalizedPct: 80}}}}})
}

func TestMatrixAndAblationJSON(t *testing.T) {
	roundTrip(t, "litmus-matrix", []MatrixRow{{Name: "SB", Expect: "allowed", Verdict: "allowed",
		Schedules: 12, Complete: true, Ok: true}})
	roundTrip(t, "ablations", []AblationRow{{Label: "x=0", Cycles: 10, Steals: 1, Aborts: 2,
		Detail: "delta=14", Percent: 100}})
}

func TestStoreBufferingJSON(t *testing.T) {
	cfg := tso.Config{Threads: 2, BufferSize: 2, DrainBias: 0.1}
	roundTrip(t, "store-buffering", []StoreBufferingResult{sampleStoreBuffering(cfg, 20)})
}
