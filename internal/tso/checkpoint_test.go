package tso

import (
	"bytes"
	"strings"
	"testing"
)

// validCheckpoint returns a structurally sound checkpoint with one
// resumable unit, the base the rejection table mutates.
func validCheckpoint() *Checkpoint {
	return &Checkpoint{
		Threads:      2,
		BufferSize:   2,
		Model:        "TSO",
		Runs:         7,
		StepLimited:  1,
		Counts:       map[string]int{"r0=0 r1=0": 3},
		Witnesses:    map[string][]int{"r0=0 r1=0": {0, 2, 1}},
		MaxOccupancy: []int{2, 1},
		Units: []UnitCheckpoint{
			{Root: []int{1}, RootFanout: []int{2}},
			{Root: []int{0}, RootFanout: []int{2}, Prefix: []int{0, 2}, Fanout: []int{2, 3}},
		},
	}
}

// TestCheckpointValidateAccepts: the base checkpoint and its decoded
// round trip must pass — Validate is on the DecodeCheckpoint path, so
// a false rejection would break every resume.
func TestCheckpointValidateAccepts(t *testing.T) {
	cp := validCheckpoint()
	if err := cp.Validate(); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := (BinaryCodec{}).EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := (BinaryCodec{}).DecodeCheckpoint(&buf); err != nil {
		t.Fatalf("valid checkpoint rejected on decode: %v", err)
	}
}

// TestCheckpointValidateRejects drives every malformation the service
// can ingest from disk or the wire through Validate and checks each
// fails loudly with a diagnostic naming the problem.
func TestCheckpointValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(cp *Checkpoint)
		want string
	}{
		{"threads", func(cp *Checkpoint) { cp.Threads = 0; cp.MaxOccupancy = nil }, "thread"},
		{"buffer-size", func(cp *Checkpoint) { cp.BufferSize = 0 }, "buffer"},
		{"unknown-model", func(cp *Checkpoint) { cp.Model = "ARMv8" }, "memory model"},
		{"negative-runs", func(cp *Checkpoint) { cp.Runs = -1 }, "negative run count"},
		{"negative-step-limited", func(cp *Checkpoint) { cp.StepLimited = -3 }, "step-limited"},
		{"negative-count", func(cp *Checkpoint) { cp.Counts["r0=0 r1=0"] = -2 }, "counts outcome"},
		{"missing-witness", func(cp *Checkpoint) { delete(cp.Witnesses, "r0=0 r1=0") }, "without a witness"},
		{"extra-witness", func(cp *Checkpoint) { cp.Witnesses["r0=1 r1=1"] = []int{1} }, "witnesses for"},
		{"negative-witness-choice", func(cp *Checkpoint) { cp.Witnesses["r0=0 r1=0"][1] = -1 }, "negative choice"},
		{"occupancy-length", func(cp *Checkpoint) { cp.MaxOccupancy = []int{1} }, "occupancy"},
		{"root-fanout-length", func(cp *Checkpoint) { cp.Units[0].RootFanout = nil }, "unit 0"},
		{"root-choice-range", func(cp *Checkpoint) { cp.Units[0].Root[0] = 2 }, "outside fanout"},
		{"prefix-fanout-length", func(cp *Checkpoint) { cp.Units[1].Fanout = cp.Units[1].Fanout[:1] }, "unit 1"},
		{"prefix-shorter-than-root", func(cp *Checkpoint) {
			cp.Units[1].Root = []int{0, 1}
			cp.Units[1].RootFanout = []int{2, 2}
			cp.Units[1].Prefix = []int{0}
			cp.Units[1].Fanout = []int{2}
		}, "shorter than unit root"},
		{"prefix-diverges-from-root", func(cp *Checkpoint) { cp.Units[1].Prefix[0] = 1 }, "diverges"},
		{"prefix-choice-range", func(cp *Checkpoint) { cp.Units[1].Prefix[1] = 3 }, "outside fanout"},
		{"done-masks-without-dpor", func(cp *Checkpoint) { cp.Units[1].Done = []uint64{1} }, "done-masks"},
	}
	// The wire cannot carry these: every encoded outcome row has exactly
	// one witness.
	memOnly := map[string]bool{"missing-witness": true, "extra-witness": true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := validCheckpoint()
			tc.mut(cp)
			err := cp.Validate()
			if err == nil {
				t.Fatalf("mutation %q accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutation %q: error %q does not mention %q", tc.name, err, tc.want)
			}
			if memOnly[tc.name] {
				return
			}
			// The same malformed checkpoint must be refused at the decode
			// boundary, where spool files and wire payloads enter.
			var buf bytes.Buffer
			if encErr := (BinaryCodec{}).EncodeCheckpoint(&buf, cp); encErr != nil {
				t.Fatal(encErr)
			}
			if _, decErr := (BinaryCodec{}).DecodeCheckpoint(&buf); decErr == nil {
				t.Fatalf("mutation %q accepted by DecodeCheckpoint", tc.name)
			}
		})
	}
}

// TestCheckpointCompatibleWith: the graceful counterpart of the resume
// panic — a mismatched machine shape must be reported as an error by
// CompatibleWithOptions, the one resume check.
func TestCheckpointCompatibleWith(t *testing.T) {
	cp := validCheckpoint()
	if err := cp.CompatibleWithOptions(Config{Threads: 2, BufferSize: 2}, ExhaustiveOptions{}); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	if err := cp.CompatibleWithOptions(Config{Threads: 2, BufferSize: 3}, ExhaustiveOptions{}); err == nil {
		t.Fatal("S=3 config accepted an S=2 checkpoint")
	}
	if err := cp.CompatibleWithOptions(Config{Threads: 3, BufferSize: 2}, ExhaustiveOptions{}); err == nil {
		t.Fatal("3-thread config accepted a 2-thread checkpoint")
	}
	if err := cp.CompatibleWithOptions(Config{Threads: 2, BufferSize: 2, DrainBuffer: true}, ExhaustiveOptions{}); err == nil {
		t.Fatal("drain-stage config accepted a stage-less checkpoint")
	}
}
