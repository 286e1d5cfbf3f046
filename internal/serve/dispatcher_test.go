package serve

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/tso"
)

// waitServer polls a server-side job to a terminal state.
func waitServer(t *testing.T, s *Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	return waitDone(t, func() JobStatus {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}, timeout)
}

// TestDrainSpoolsAndResumes: SIGTERM's path. Drain interrupts in-flight
// slices at a run boundary, spools every unfinished frontier itself (the
// ticker is parked at an hour to prove it), and a second server resumes
// to exactly the direct counts.
func TestDrainSpoolsAndResumes(t *testing.T) {
	spool := t.TempDir()
	cfg := Config{SpoolDir: spool, Workers: 2, SliceRuns: 32, CheckpointInterval: Duration(time.Hour)}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(mediumSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := s.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateDone {
			t.Fatalf("job finished before the drain; shrink SliceRuns")
		}
		if cur.State == StateRunning && cur.Executed >= 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never got going: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	if _, err := s.Submit(smallSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v", err)
	}

	rec, err := s.store.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning || rec.Checkpoint == nil || len(rec.Checkpoint.Units) == 0 {
		t.Fatalf("drain did not spool a mid-flight frontier: state=%s", rec.State)
	}

	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	final := waitServer(t, s2, st.ID, 120*time.Second)
	if final.State != StateDone || final.Result == nil || !final.Result.Complete {
		t.Fatalf("resumed job did not complete: %+v", final)
	}
	want := directReport(t, mediumSpec())
	if !reflect.DeepEqual(final.Result.Outcomes, want.Outcomes) {
		t.Fatalf("resumed outcomes %v, want %v", final.Result.Outcomes, want.Outcomes)
	}
	if final.Result.Schedules != want.Schedules {
		t.Fatalf("resumed schedules %d, want %d", final.Result.Schedules, want.Schedules)
	}
}

// TestBudgetExhaustion: a job whose MaxSchedules is far below its tree
// size finishes incomplete without overrunning the budget.
func TestBudgetExhaustion(t *testing.T) {
	s, err := NewServer(Config{SpoolDir: t.TempDir(), Workers: 2, SliceRuns: 64, CheckpointInterval: Duration(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	js := mediumSpec()
	js.MaxSchedules = 200
	js.NoPrune = true // keep memo credits from covering the tree within budget
	st, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	final := waitServer(t, s, st.ID, 60*time.Second)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("budgeted job did not finish: %+v", final)
	}
	if final.Result.Complete {
		t.Fatal("budgeted job claims complete coverage")
	}
	if final.Result.Executed == 0 || final.Result.Executed > 200 {
		t.Fatalf("executed %d runs on a budget of 200", final.Result.Executed)
	}
}

// TestResumeTwice: killing the resumed server again still converges —
// the crash-consistency argument is inductive, not one-shot.
func TestResumeTwice(t *testing.T) {
	spool := t.TempDir()
	cfg := Config{SpoolDir: spool, Workers: 2, SliceRuns: 32, CheckpointInterval: Duration(2 * time.Millisecond)}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(mediumSpec())
	if err != nil {
		t.Fatal(err)
	}
	kill := func(srv *Server, threshold int) bool {
		deadline := time.Now().Add(60 * time.Second)
		for {
			cur, err := srv.Status(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cur.State == StateDone {
				return false // finished before the kill; fine for leg 2
			}
			if cur.State == StateRunning && cur.Executed >= threshold {
				srv.Kill()
				return true
			}
			if time.Now().After(deadline) {
				t.Fatalf("job stuck: %+v", cur)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !kill(s, 200) {
		t.Fatal("job finished before the first kill; shrink SliceRuns")
	}
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kill(s2, 600) {
		s3, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s2 = s3
	}
	defer s2.Drain()
	final := waitServer(t, s2, st.ID, 120*time.Second)
	if final.State != StateDone || final.Result == nil || !final.Result.Complete {
		t.Fatalf("twice-resumed job did not complete: %+v", final)
	}
	want := directReport(t, mediumSpec())
	if !reflect.DeepEqual(final.Result.Outcomes, want.Outcomes) {
		t.Fatalf("twice-resumed outcomes %v, want %v", final.Result.Outcomes, want.Outcomes)
	}
}

// TestRestartFinalizesFoldedCheckpoint: a job spooled as running whose
// checkpoint has no units left (everything was folded before the
// shutdown) must finalize at restart with exactly the checkpoint's
// counts, and spool its done record.
func TestRestartFinalizesFoldedCheckpoint(t *testing.T) {
	spool := t.TempDir()
	js := smallSpec()
	prog, check, err := js.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc := prog.Scenario()
	mk, out := sc.Outcomes(check)
	set, res := tso.ExploreExhaustive(sc.Config, mk, out, tso.ExhaustiveOptions{Prune: true})
	fold := tso.NewFold(sc.Config.Threads)
	fold.Add(set, res)
	cp, err := fold.Checkpoint(sc.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(spool)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000007"
	if err := store.Put(&Record{ID: id, Spec: js, State: StateRunning, Budget: 1000, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Config{SpoolDir: spool, Workers: 1, CheckpointInterval: Duration(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	final := waitServer(t, s, id, 60*time.Second)
	r := final.Result
	if final.State != StateDone || r == nil || !r.Complete {
		t.Fatalf("restarted job did not finalize complete: %+v", final)
	}
	if !reflect.DeepEqual(r.Outcomes, cp.Counts) || r.Executed != cp.Runs || r.Schedules != set.Total() {
		t.Fatalf("restart result %+v, want the checkpoint's counts %v over %d runs", r, cp.Counts, cp.Runs)
	}
	if r.Tree != cp.Tree || r.Prune != cp.Prune {
		t.Fatalf("restart stats tree=%+v prune=%+v, want %+v %+v", r.Tree, r.Prune, cp.Tree, cp.Prune)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == StateDone && rec.Checkpoint == nil && reflect.DeepEqual(rec.Result.Outcomes, cp.Counts) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("done record never spooled: %+v", rec)
		}
		time.Sleep(time.Millisecond)
	}
	if st, err := s.Submit(smallSpec()); err != nil || st.ID != "job-000008" {
		t.Fatalf("next submission got %q, %v; want job-000008", st.ID, err)
	}
}
