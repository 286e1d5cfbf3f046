package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tso"
)

// midFlight runs the exhaustive SB exploration with a tiny run budget so
// it stops with a spooled frontier, and returns that checkpoint (labeled
// with the given phase, as sbExhaustive labels its own).
func midFlight(t *testing.T, cfg tso.Config, phase string) *tso.Checkpoint {
	t.Helper()
	mk, out := sbProgs(false)
	_, res := tso.ExploreExhaustive(cfg, mk, out, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 10},
		Label:          phase,
	})
	if res.Complete || res.Checkpoint == nil {
		t.Fatalf("SB tree exhausted within the tiny budget (complete=%v); cannot build a mid-flight checkpoint", res.Complete)
	}
	return res.Checkpoint
}

// TestSpoolAtomicBinaryWriteAndResume is the spool round trip at the CLI
// layer: the checkpoint is written atomically (no temp files survive),
// lands in the binary wire format under the .ckpt name, resumes to the
// exact counts of an uninterrupted exploration, and is cleared afterward.
func TestSpoolAtomicBinaryWriteAndResume(t *testing.T) {
	cfg := tso.Config{Threads: 2, BufferSize: 2}
	dir := t.TempDir()
	prefix := filepath.Join(dir, "run")
	cp := midFlight(t, cfg, "sb")
	if err := writeCheckpoint(prefix, "sb", cp); err != nil {
		t.Fatal(err)
	}

	ckptPath := spoolPath(prefix, "sb")
	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("TSOF")) {
		t.Fatalf("spool file is not the binary wire format: %q...", raw[:min(8, len(raw))])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file survived the atomic write: %s", e.Name())
		}
	}
	opts := tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
		Label:          "sb",
	}
	loaded, err := loadCheckpoint(prefix, "sb", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil {
		t.Fatal("spooled checkpoint not found")
	}

	mk, out := sbProgs(false)
	opts.Resume = loaded
	set, res := tso.ExploreExhaustive(cfg, mk, out, opts)
	if !res.Complete {
		t.Fatalf("resumed exploration incomplete after %d runs", res.Runs)
	}
	want, wres := tso.ExploreExhaustive(cfg, mk, out, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 22},
	})
	if !wres.Complete {
		t.Fatalf("reference exploration incomplete after %d runs", wres.Runs)
	}
	if !reflect.DeepEqual(set.Counts, want.Counts) {
		t.Fatalf("resumed counts %v, uninterrupted counts %v", set.Counts, want.Counts)
	}

	if err := clearCheckpoint(prefix, "sb"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived clearCheckpoint: %v", err)
	}
}

// TestSpoolRejectsPhaseCollision: a checkpoint that belongs to one phase
// but sits at the path another phase resolves to — what a prefix
// collision between phases produces — is rejected by the embedded label
// check, and so is a resume under a different reorder bound.
func TestSpoolRejectsPhaseCollision(t *testing.T) {
	cfg := tso.Config{Threads: 2, BufferSize: 2}
	prefix := filepath.Join(t.TempDir(), "run")
	cp := midFlight(t, cfg, "sb")

	// Park the sb-labeled frontier where phase "sb-fenced" will look.
	ckptPath := spoolPath(prefix, "sb-fenced")
	f, err := os.Create(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := (tso.BinaryCodec{}).EncodeCheckpoint(f, cp); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = loadCheckpoint(prefix, "sb-fenced", cfg, tso.ExhaustiveOptions{Label: "sb-fenced"})
	if err == nil || !strings.Contains(err.Error(), `"sb"`) || !strings.Contains(err.Error(), `"sb-fenced"`) {
		t.Fatalf("got %v, want label-collision error naming both phases", err)
	}

	// The matching phase with a mismatched reorder bound is refused too.
	_, err = loadCheckpoint(prefix, "sb-fenced", cfg, tso.ExhaustiveOptions{Label: "sb", MaxReorderings: 2})
	if err == nil || !strings.Contains(err.Error(), "reorder") {
		t.Fatalf("got %v, want reorder-bound mismatch error", err)
	}
}
