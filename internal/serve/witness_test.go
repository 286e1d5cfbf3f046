package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/oracle"
)

// inProcessWitness is the counterexample a sequential pruned in-process
// exploration of js reports — the witness an uninterrupted job carries.
func inProcessWitness(t *testing.T, js JobSpec) *oracle.Counterexample {
	t.Helper()
	prog, check, err := js.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep := oracle.Run(prog.Scenario(), oracle.RunOptions{
		Spec: check, Prune: true, MaxReorderings: js.MaxReorderings, Counterexample: true,
	})
	if rep.Counterexample == nil {
		t.Fatalf("in-process exploration of %+v found no counterexample: %v", js, rep.Outcomes)
	}
	return rep.Counterexample
}

// checkWitness requires a done violating job whose witness replays to
// its outcome and equals want's schedule.
func checkWitness(t *testing.T, js JobSpec, st JobStatus, want *oracle.Counterexample) {
	t.Helper()
	r := st.Result
	if st.State != StateDone || r == nil || !r.Complete || r.Violating == 0 || r.Witness == nil {
		t.Fatalf("job %s: want a complete violating result with a witness, got %+v", st.ID, st)
	}
	viols, err := ReplayWitness(js, r.Witness)
	if err != nil || oracle.RenderVerdict(viols) != r.Witness.Outcome {
		t.Fatalf("job %s: witness %v replays to %q (%v), reported %q",
			st.ID, r.Witness.Choices, oracle.RenderVerdict(viols), err, r.Witness.Outcome)
	}
	if !reflect.DeepEqual(r.Witness.Choices, want.Choices) || r.Witness.Outcome != want.Outcome {
		t.Fatalf("job %s: witness %q %v, want %q %v", st.ID, r.Witness.Outcome, r.Witness.Choices, want.Outcome, want.Choices)
	}
}

// TestKilledViolatingJobKeepsWitness: a violating job killed after a
// slice that found the violation has been spooled must, once restarted,
// report the same witness as an uninterrupted run — the witness travels
// in the spooled checkpoint instead of being searched for again.
func TestKilledViolatingJobKeepsWitness(t *testing.T) {
	spool := t.TempDir()
	cfg := Config{SpoolDir: spool, Workers: 1, SliceRuns: 2, CheckpointInterval: Duration(time.Millisecond)}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	js := violatingSpec()
	st, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec, err := s.store.Get(st.ID)
		if err == nil && rec.State == StateDone {
			t.Fatalf("job finished before the kill; shrink SliceRuns")
		}
		if err == nil && rec.Checkpoint != nil && violating(rec.Checkpoint.Counts) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no violating slice was ever spooled: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.Kill()

	rec, err := s.store.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning || len(rec.Checkpoint.Units) == 0 {
		t.Fatalf("sealed spool not mid-flight: state=%s units=%d", rec.State, len(rec.Checkpoint.Units))
	}
	for o := range rec.Checkpoint.Counts {
		if _, ok := rec.Checkpoint.Witnesses[o]; !ok {
			t.Fatalf("spooled checkpoint counts %q without a witness", o)
		}
	}

	// A subtree a slice boundary cuts is never memoized, so at two runs a
	// slice the pruned job memoizes almost nothing and runs for hundreds
	// of thousands of schedules: the restart runs larger slices to finish
	// in test time.
	cfg.SliceRuns = 256
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	resumed := waitServer(t, s2, st.ID, 120*time.Second)
	fresh, err := s2.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted := waitServer(t, s2, fresh.ID, 120*time.Second)
	want := inProcessWitness(t, js)
	checkWitness(t, js, uninterrupted, want)
	checkWitness(t, js, resumed, want)
}

// TestReorderBoundedJobWitness: a reorder-bounded violating job's witness
// lies in the bounded space its verdict covers. At k=3 it is the bounded
// in-process counterexample (oracle's TestCounterexampleWithinReorderBound
// counts its three reorderings), not the smallest unbounded witness,
// which makes four.
func TestReorderBoundedJobWitness(t *testing.T) {
	s, err := NewServer(Config{SpoolDir: t.TempDir(), Workers: 2, SliceRuns: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	js := violatingSpec()
	js.MaxReorderings = 3
	st, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	final := waitServer(t, s, st.ID, 120*time.Second)
	want := inProcessWitness(t, js)
	checkWitness(t, js, final, want)
	if unbounded := inProcessWitness(t, violatingSpec()); reflect.DeepEqual(want.Choices, unbounded.Choices) {
		t.Fatalf("bounded and unbounded witnesses coincide (%v): the bound no longer changes the witness", want.Choices)
	}
}
