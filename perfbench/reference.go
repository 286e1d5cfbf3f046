package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// referenceJSON holds the outputs the benchmark checks against: each
// proof's verdicts, completeness and schedule total, and a SHA-256 of
// each reproduction section's rendered text. Regenerate it with
// --write-reference after a deliberate change of semantics.
//
//go:embed reference.json
var referenceJSON []byte

// referencePath is where --write-reference saves, relative to the
// repository root the benchmark runs from.
const referencePath = "perfbench/reference.json"

// proofRef is a proof's expected output. Executed is recorded for the
// reader (it moves with any change to the reductions) and not checked.
type proofRef struct {
	Verdicts  []string `json:"verdicts"`
	Complete  bool     `json:"complete"`
	Schedules int      `json:"schedules"`
	Executed  int      `json:"executed"`
}

// reference is the stored expected output. While recording, checks
// store what they see and pass.
type reference struct {
	Proofs   map[string]proofRef `json:"proofs"`
	Sections map[string]string   `json:"sections"`

	recording bool
	// offset is added to the first expected value a workload checks;
	// --corrupt-reference sets it to exercise the failure counting.
	offset int
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if r.Proofs == nil {
		r.Proofs = map[string]proofRef{}
	}
	if r.Sections == nil {
		r.Sections = map[string]string{}
	}
	return &r, nil
}

// corrupt makes the next reference lookup wrong by one.
func (r *reference) corrupt() { r.offset = 1 }

// takeOffset returns the pending corruption once.
func (r *reference) takeOffset() int {
	o := r.offset
	r.offset = 0
	return o
}

// proof checks a proof's output against its reference.
func (r *reference) proof(id string, got proofRef) (proofRef, bool) {
	if r.recording {
		r.Proofs[id] = got
		return got, true
	}
	want, ok := r.Proofs[id]
	want.Schedules += r.takeOffset()
	got.Executed = want.Executed
	return want, ok && reflect.DeepEqual(got, want)
}

// section checks a rendered section's digest against its reference.
func (r *reference) section(id, digest string) (string, bool) {
	if r.recording {
		r.Sections[id] = digest
		return digest, true
	}
	want, ok := r.Sections[id]
	if r.takeOffset() != 0 {
		want = "corrupted-" + want
	}
	return want, ok && want == digest
}

// save writes the reference.
func (r *reference) save() error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := os.WriteFile(referencePath, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return nil
}
