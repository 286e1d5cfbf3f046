package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/litmusdsl"
	"repro/internal/tso"
)

// libraryTest parses the built-in library test with the given name.
func libraryTest(t *testing.T, name string) *litmusdsl.Test {
	t.Helper()
	for _, src := range litmusdsl.Library {
		lt, err := litmusdsl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("no library test %q", name)
	return nil
}

// interrupted is a pre-closed Interrupt channel: an exploration handed
// it stops before its next run and returns a checkpoint.
func interrupted() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestSpoolAtomicBinaryWriteAndResume is the spool round trip through
// litmusdsl.Run: SB+cas stops mid-flight at a run budget, is interrupted
// again on resume, and its frontier is written atomically (no temp files
// survive) in the binary wire format under the .ckpt name. Resumed from
// disk it reaches the schedules, outcome counts and verdict of an
// uninterrupted run, and the spool is then cleared. Executed counts under
// Prune or DPOR may differ from the uninterrupted run's: a cut changes
// what the memo and the race analysis see. Under DPOR, where schedules
// and outcome counts are per executed class representative, that leaves
// the outcome set and the verdict to compare.
func TestSpoolAtomicBinaryWriteAndResume(t *testing.T) {
	lt := libraryTest(t, "SB+cas")
	for _, mode := range []struct {
		name string
		opts litmusdsl.RunOptions
	}{
		{"plain", litmusdsl.RunOptions{}},
		{"prune", litmusdsl.RunOptions{Prune: true, Parallel: 2}},
		{"dpor", litmusdsl.RunOptions{DPOR: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			if !mode.opts.Prune && !mode.opts.DPOR && testing.Short() {
				t.Skip("explores 67860 unreduced schedules twice")
			}
			want, err := litmusdsl.Run(lt, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Complete || want.Checkpoint != nil {
				t.Fatalf("uninterrupted run: complete=%v checkpoint=%v", want.Complete, want.Checkpoint != nil)
			}

			opts := mode.opts
			opts.MaxSchedules = 5
			first, err := litmusdsl.Run(lt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if first.Complete || first.Checkpoint == nil {
				t.Fatalf("SB+cas exhausted within 5 runs (complete=%v)", first.Complete)
			}
			opts = mode.opts
			opts.Resume, opts.Interrupt = first.Checkpoint, interrupted()
			second, err := litmusdsl.Run(lt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if second.Complete || second.Checkpoint == nil || second.Checkpoint.Runs != first.Checkpoint.Runs {
				t.Fatalf("interrupted resume: complete=%v checkpoint=%+v, want the first leg's %d runs",
					second.Complete, second.Checkpoint, first.Checkpoint.Runs)
			}
			if second.Checkpoint.Label != "SB+cas" {
				t.Fatalf("checkpoint label %q, want the test name", second.Checkpoint.Label)
			}

			dir := t.TempDir()
			prefix := filepath.Join(dir, "run")
			if err := writeCheckpoint(prefix, lt.Name, second.Checkpoint); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(spoolPath(prefix, lt.Name))
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
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("temp file survived the atomic write: %s", e.Name())
				}
			}
			loaded, err := loadCheckpoint(prefix, lt.Name)
			if err != nil || loaded == nil {
				t.Fatalf("spooled checkpoint not loaded: %v", err)
			}

			opts = mode.opts
			opts.Resume = loaded
			got, err := litmusdsl.Run(lt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if mode.opts.DPOR {
				// DPOR counts one schedule per executed class
				// representative, so only the outcome set is cut-invariant.
				for o := range want.Outcomes {
					want.Outcomes[o] = 1
				}
				for o := range got.Outcomes {
					got.Outcomes[o] = 1
				}
				got.Schedules = want.Schedules
			}
			if !got.Complete || got.Schedules != want.Schedules || got.Verdict != want.Verdict ||
				!reflect.DeepEqual(got.Outcomes, want.Outcomes) {
				t.Fatalf("resumed: complete=%v schedules=%d verdict=%s outcomes=%v\nuninterrupted: schedules=%d verdict=%s outcomes=%v",
					got.Complete, got.Schedules, got.Verdict, got.Outcomes, want.Schedules, want.Verdict, want.Outcomes)
			}

			if err := clearCheckpoint(prefix, lt.Name); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(spoolPath(prefix, lt.Name)); !os.IsNotExist(err) {
				t.Fatalf("checkpoint survived clearCheckpoint: %v", err)
			}
		})
	}
}

// TestSpoolRejectsPhaseCollision: a checkpoint labelled with one test's
// name is refused by a test of another name on the same machine — what a
// spool-prefix collision between two tests produces — and so is a resume
// under a different reorder bound. The command reports the refusal and
// exits 1 instead of folding the frontier into the wrong test.
func TestSpoolRejectsPhaseCollision(t *testing.T) {
	lt := libraryTest(t, "SB+cas")
	res, err := litmusdsl.Run(lt, litmusdsl.RunOptions{Interrupt: interrupted()})
	if err != nil || res.Checkpoint == nil {
		t.Fatalf("no checkpoint from an interrupted run: %v", err)
	}
	other := *lt
	other.Name = "SB+cas-copy"
	_, err = litmusdsl.Run(&other, litmusdsl.RunOptions{Resume: res.Checkpoint})
	if !errors.Is(err, tso.ErrResumeLabel) || !strings.Contains(err.Error(), `"SB+cas"`) ||
		!strings.Contains(err.Error(), `"SB+cas-copy"`) {
		t.Fatalf("got %v, want a label mismatch naming both tests", err)
	}
	_, err = litmusdsl.Run(lt, litmusdsl.RunOptions{Resume: res.Checkpoint, MaxReorderings: 2})
	if !errors.Is(err, tso.ErrResumeReorder) {
		t.Fatalf("got %v, want a reorder-bound mismatch", err)
	}

	// Through the command: SB's frontier parked where SB+fences looks.
	sb := libraryTest(t, "SB")
	sbRes, err := litmusdsl.Run(sb, litmusdsl.RunOptions{Interrupt: interrupted()})
	if err != nil || sbRes.Checkpoint == nil {
		t.Fatalf("no checkpoint from an interrupted run: %v", err)
	}
	prefix := filepath.Join(t.TempDir(), "run")
	if err := writeCheckpoint(prefix, "SB+fences", sbRes.Checkpoint); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-checkpoint", prefix}, io.Discard, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "label mismatch") {
		t.Fatalf("stderr %q does not report the label mismatch", stderr.String())
	}
}

// durationField is the trailing wall-time field of a test line.
var durationField = regexp.MustCompile(` [0-9.]+[µnm]?s\n`)

// TestCheckpointInterruptAndResume drives the command: a cancelled
// context spools the first test's frontier and exits 0, and the same
// command then resumes it and prints the lines an uninterrupted run
// prints.
func TestCheckpointInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "sb.litmus")
	if err := os.WriteFile(file, []byte(litmusdsl.Library[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if code := run(context.Background(), []string{"-prune", file}, &want, io.Discard); code != 0 {
		t.Fatalf("uninterrupted run: exit %d", code)
	}

	prefix := filepath.Join(dir, "run")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if code := run(ctx, []string{"-prune", "-checkpoint", prefix, file}, &out, io.Discard); code != 0 {
		t.Fatalf("interrupted run: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "spooled to "+spoolPath(prefix, "SB")) {
		t.Fatalf("interrupted run did not spool:\n%s", out.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"-prune", "-checkpoint", prefix, file}, &out, io.Discard); code != 0 {
		t.Fatalf("resumed run: exit %d", code)
	}
	got, ok := strings.CutPrefix(out.String(), "resuming SB (0 runs done, ")
	if !ok {
		t.Fatalf("resumed run did not resume:\n%s", out.String())
	}
	_, got, _ = strings.Cut(got, "\n")
	strip := func(s string) string { return durationField.ReplaceAllString(s, "\n") }
	// Under Prune the resumed leg may execute a different number of runs
	// and see different memo statistics; the schedules and verdict match.
	executed := regexp.MustCompile(`executed=\d+ *|pruning: .*\n`)
	if g, w := executed.ReplaceAllString(strip(got), ""), executed.ReplaceAllString(strip(want.String()), ""); g != w {
		t.Fatalf("resumed output\n%s\nuninterrupted output\n%s", g, w)
	}
	if _, err := os.Stat(spoolPath(prefix, "SB")); !os.IsNotExist(err) {
		t.Fatalf("spool survived the completed test: %v", err)
	}
}

// TestSpoolNamesMustBePlainAndDistinct: under -checkpoint a test name
// that would escape the prefix's directory, or that two tests share, is
// refused with exit 2 before anything is explored.
func TestSpoolNamesMustBePlainAndDistinct(t *testing.T) {
	dir := t.TempDir()
	write := func(file, name string) string {
		path := filepath.Join(dir, file)
		src := strings.Replace(litmusdsl.Library[0], "name: SB", "name: "+name, 1)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	prefix := filepath.Join(dir, "run")
	for _, c := range []struct {
		files []string
		want  string
	}{
		{[]string{write("up.litmus", "../x")}, `"../x" is not a plain file name`},
		{[]string{write("sub.litmus", "a/b")}, `"a/b" is not a plain file name`},
		{[]string{write("one.litmus", "SB"), write("two.litmus", "SB")}, `two tests are named "SB"`},
	} {
		var out, stderr bytes.Buffer
		code := run(context.Background(), append([]string{"-checkpoint", prefix}, c.files...), &out, &stderr)
		if code != 2 || out.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s", c.files, code, out.String(), stderr.String(), c.want)
		}
	}
	// Without -checkpoint the names spool nowhere and are accepted.
	if code := run(context.Background(), []string{filepath.Join(dir, "one.litmus"), filepath.Join(dir, "two.litmus")}, io.Discard, io.Discard); code != 0 {
		t.Errorf("duplicate names without -checkpoint: exit %d, want 0", code)
	}
}

// TestFuzzRefusesIgnoredFlags: every litmus-mode flag, and a file
// argument, is refused under -fuzz with exit 2 and the offending flag
// named; so is every other litmus flag, and a file argument, under
// -list; -seed and -runs are refused without -fuzz.
func TestFuzzRefusesIgnoredFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fuzz", "2", "-list"}, "-list"},
		{[]string{"-fuzz", "2", "-max", "10"}, "-max"},
		{[]string{"-fuzz", "2", "-v"}, "-v"},
		{[]string{"-fuzz", "2", "-witness"}, "-witness"},
		{[]string{"-fuzz", "2", "-par", "2"}, "-par"},
		{[]string{"-fuzz", "2", "-prune"}, "-prune"},
		{[]string{"-fuzz", "2", "-dpor"}, "-dpor"},
		{[]string{"-fuzz", "2", "-reorder", "1"}, "-reorder"},
		{[]string{"-fuzz", "2", "-checkpoint", "x"}, "-checkpoint"},
		{[]string{"-fuzz", "2", "a.litmus"}, "a.litmus"},
		{[]string{"-list", "-max", "10"}, "-max"},
		{[]string{"-list", "-v"}, "-v"},
		{[]string{"-list", "-witness"}, "-witness"},
		{[]string{"-list", "-par", "2"}, "-par"},
		{[]string{"-list", "-prune"}, "-prune"},
		{[]string{"-list", "-dpor"}, "-dpor"},
		{[]string{"-list", "-reorder", "1"}, "-reorder"},
		{[]string{"-list", "-checkpoint", "x"}, "-checkpoint"},
		{[]string{"-list", "x.litmus"}, "x.litmus"},
		{[]string{"-list", "-prune", "x.litmus"}, "-prune"},
		{[]string{"-seed", "3"}, "-seed"},
		{[]string{"-runs", "3"}, "-runs"},
		{[]string{"-dpor", "-reorder", "1"}, "-dpor with -reorder"},
		{[]string{"-nope"}, "-nope"},
	} {
		var out, stderr bytes.Buffer
		code := run(context.Background(), c.args, &out, &stderr)
		if code != 2 || out.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s", c.args, code, out.String(), stderr.String(), c.want)
		}
	}
}

// TestFailedRunFlushesProfile: a run that fails on an unparsable .litmus
// file exits 1 and still leaves a complete CPU profile behind.
func TestFailedRunFlushesProfile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.litmus")
	if err := os.WriteFile(bad, []byte("name: broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-cpuprofile", prof, bad}, io.Discard, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bad.litmus") {
		t.Fatalf("stderr %q does not name the file", stderr.String())
	}
	st, err := os.Stat(prof)
	if err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile missing or empty after a failed run: %v", err)
	}
}
