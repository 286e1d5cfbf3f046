package serve

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// spoolRecord returns a running-state record with a realistic frontier
// checkpoint for direct Store tests.
func spoolRecord(t *testing.T) *Record {
	t.Helper()
	js := mediumSpec()
	prog, _, err := js.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc := prog.Scenario()
	mk, _ := sc.Outcomes(oracle.Precise{})
	cp, err := tso.ShardFrontier(sc.Config, mk, tso.ExhaustiveOptions{Units: 8})
	if err != nil {
		t.Fatal(err)
	}
	return &Record{ID: "job-000042", Spec: js, State: StateRunning, Budget: 1000, Checkpoint: cp}
}

// TestStoreBinaryWire: the store must spool checkpoints as a binary
// blob (checkpoint_bin) and round-trip them exactly.
func TestStoreBinaryWire(t *testing.T) {
	rec := spoolRecord(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.path(rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"checkpoint_bin"`)) {
		t.Fatalf("record carries no checkpoint_bin blob: %s", raw)
	}
	got, err := st.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Checkpoint, rec.Checkpoint) {
		t.Fatal("checkpoint diverged across the spool round trip")
	}
}

// TestStoreRejectsEmbeddedCheckpoint: a record that embeds its
// checkpoint as a JSON object under "checkpoint" (a schema this store
// does not write) must fail Get and the List recovery scan. Decoding it
// with the checkpoint silently dropped would let recovery re-plan a
// running job from scratch under its already-spent budget.
func TestStoreRejectsEmbeddedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("job-000001"), []byte(`{
  "id": "job-000001",
  "state": "running",
  "budget": 1000,
  "checkpoint": {"threads": 2, "buffer_size": 2, "model": "TSO"}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("job-000001"); err == nil || !strings.Contains(err.Error(), `"checkpoint"`) {
		t.Fatalf("Get: got %v, want an unknown-field error naming \"checkpoint\"", err)
	}
	if _, err := st.List(); err == nil {
		t.Fatal("List accepted a spool holding an embedded-checkpoint record")
	}
	if _, err := NewServer(Config{SpoolDir: dir, Workers: 1}); err == nil {
		t.Fatal("server resumed a spool holding an embedded-checkpoint record")
	}

	// Anything after the record is refused the same way.
	if err := os.WriteFile(st.path("job-000002"), []byte(`{"id": "job-000002", "state": "done"} {}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("job-000002"); err == nil {
		t.Fatal("Get accepted a record followed by trailing data")
	}
}

// TestReorderBoundedJob: a job submitted with a reorder bound must fold
// to byte-identical counts with a direct bounded in-process exploration,
// spool the bound into its checkpoints, and report reorder skips.
func TestReorderBoundedJob(t *testing.T) {
	spool := t.TempDir()
	s, err := NewServer(Config{SpoolDir: spool, Workers: 4, SliceRuns: 256,
		CheckpointInterval: Duration(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	js := mediumSpec()
	js.MaxReorderings = 1
	st, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	final := waitServer(t, s, st.ID, 120*time.Second)
	if final.State != StateDone || final.Result == nil || !final.Result.Complete {
		t.Fatalf("bounded job did not complete: %+v", final)
	}

	prog, check, err := js.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Run(prog.Scenario(), oracle.RunOptions{
		Spec: check, Parallel: 4, Prune: true, MaxSchedules: 1 << 20, MaxReorderings: 1,
	})
	if !reflect.DeepEqual(final.Result.Outcomes, want.Outcomes) {
		t.Fatalf("bounded outcomes %v, want %v", final.Result.Outcomes, want.Outcomes)
	}
	if final.Result.Schedules != want.Schedules {
		t.Fatalf("bounded schedules %d, want %d", final.Result.Schedules, want.Schedules)
	}
	if final.Result.Prune.ReorderSkips == 0 {
		t.Fatalf("bound never bound anything: %+v", final.Result.Prune)
	}

	// The bound must also shrink the accounted space vs the unbounded job.
	full := directReport(t, mediumSpec())
	if final.Result.Schedules >= full.Schedules {
		t.Fatalf("bounded job accounted %d schedules, unbounded %d", final.Result.Schedules, full.Schedules)
	}

	// Rejection path: negative bounds are intake errors.
	bad := mediumSpec()
	bad.MaxReorderings = -1
	if _, err := s.Submit(bad); !errors.Is(err, ErrBadReorder) {
		t.Fatalf("negative bound: got %v, want ErrBadReorder", err)
	}
}

// TestMetricsMemoAndReorderGauges: the /metrics text must expose the memo
// arena and reorder-bound series, with the arena counters live after a
// pruned job.
func TestMetricsMemoAndReorderGauges(t *testing.T) {
	s, err := NewServer(Config{SpoolDir: t.TempDir(), Workers: 2, SliceRuns: 256,
		CheckpointInterval: Duration(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	js := mediumSpec()
	js.MaxReorderings = 1
	st, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	waitServer(t, s, st.ID, 120*time.Second)

	var buf bytes.Buffer
	s.Metrics().WritePrometheus(&buf)
	text := buf.String()
	for _, name := range []string{
		"tsoserve_memo_entries",
		"tsoserve_memo_admitted_total",
		"tsoserve_memo_evicted_total",
		"tsoserve_memo_stripe_contention_total",
		"tsoserve_reorder_skips_total",
	} {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("metric %s missing from /metrics output", name)
		}
	}
	if strings.Contains(text, "\ntsoserve_memo_admitted_total 0\n") {
		t.Error("memo admitted counter stayed zero after a pruned job")
	}
	if strings.Contains(text, "\ntsoserve_reorder_skips_total 0\n") {
		t.Error("reorder skip counter stayed zero after a bounded job")
	}
}
