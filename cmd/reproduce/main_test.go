package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// TestQuickSectionDigests renders each quick section the way
// `reproduce -quick -cache=false` prints it, header included, and
// compares its SHA-256 with the section digests the benchmark keeps in
// perfbench/reference.json. Those digests pin the -quick figures; this
// test holds reproduce itself to them.
func TestQuickSectionDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every quick section")
	}
	data, err := os.ReadFile("../../perfbench/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Sections map[string]string `json:"sections"`
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, s := range sections {
		if s.tier != quickTier {
			continue
		}
		var out bytes.Buffer
		if code := run(context.Background(), []string{"-quick", "-cache=false", "-p", "1", "-only", s.id}, &out, io.Discard); code != 0 {
			t.Fatalf("%s: exit status %d", s.id, code)
		}
		sum := sha256.Sum256(out.Bytes())
		want, ok := ref.Sections[s.id]
		if got := hex.EncodeToString(sum[:]); !ok || got != want {
			t.Errorf("%s: digest %s, reference %q\n%s", s.id, got, want, out.String())
		}
		checked++
	}
	if checked != len(ref.Sections) {
		t.Errorf("checked %d quick sections, reference has %d", checked, len(ref.Sections))
	}
}

// TestOnlyRejectsBadIDs checks that -only refuses an unknown or repeated
// section id before running anything, and names the valid ids.
func TestOnlyRejectsBadIDs(t *testing.T) {
	for _, only := range []string{"figure9", "figure1,figure1", "table1,"} {
		var out, errW bytes.Buffer
		code := run(context.Background(), []string{"-cache=false", "-only=" + only}, &out, &errW)
		if code != 2 {
			t.Errorf("-only %q: exit status %d, want 2", only, code)
		}
		if out.Len() != 0 {
			t.Errorf("-only %q: wrote stdout %q", only, out.String())
		}
		if !strings.Contains(errW.String(), "-only") {
			t.Errorf("-only %q: stderr %q does not explain", only, errW.String())
		}
	}
	var errW bytes.Buffer
	run(context.Background(), []string{"-only", "figure9"}, io.Discard, &errW)
	for _, s := range sections {
		if !strings.Contains(errW.String(), s.id) {
			t.Errorf("unknown-id message %q does not list %q", errW.String(), s.id)
		}
	}
}
