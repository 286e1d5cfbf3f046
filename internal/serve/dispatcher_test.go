package serve

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/oracle"
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
	st, err := s.Submit(heavySpec())
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
	want := directReport(t, heavySpec())
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
	st, err := s.Submit(heavySpec())
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
	want := directReport(t, heavySpec())
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

// sliceReference explores js in-process the way a job does: the frontier
// split into cfg.ShardUnits units, one sequential exploration resumed in
// cfg.SliceRuns-sized legs until complete, each leg continuing the
// previous leg's memo table — or, for a DPOR job, each unit explored in
// such legs in turn.
func sliceReference(t *testing.T, js JobSpec, cfg Config) (tso.OutcomeSet, tso.ExploreResult, *oracle.Counterexample) {
	t.Helper()
	prog, check, err := js.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc := prog.Scenario()
	mk, out := sc.Outcomes(check)
	opts := tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxStepsPerRun: cfg.MaxStepsPerRun},
		Units:          cfg.ShardUnits,
		Prune:          !js.NoPrune && !js.DPOR,
		MaxReorderings: js.MaxReorderings,
		DPOR:           js.DPOR,
	}
	cp, err := tso.ShardFrontier(sc.Config, mk, opts)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]tso.UnitCheckpoint{cp.Units}
	if js.DPOR {
		groups = nil
		for _, u := range cp.Units {
			groups = append(groups, []tso.UnitCheckpoint{u})
		}
	}
	fold := tso.NewFold(sc.Config.Threads)
	fold.AddBase(cp)
	opts.MaxRuns = cfg.SliceRuns
	for _, units := range groups {
		opts.Resume = cp.Frontier()
		opts.Resume.Units = units
		for {
			set, res := tso.ExploreExhaustive(sc.Config, mk, out, opts)
			if res.Complete {
				fold.Add(set, res)
				break
			}
			opts.Resume = res.Checkpoint
		}
	}
	set, res := fold.Result(true)
	return set, res, oracle.WitnessCounterexample(sc, check, res, cfg.MaxStepsPerRun)
}

// TestJobExecutesAsOneExploration: a job's slices resume its whole
// frontier one after another, so the job executes exactly the runs of one
// sequential in-process exploration over the same units resumed at the
// same slice boundaries — not one cold exploration per unit — and reports
// its counts, statistics and witness.
func TestJobExecutesAsOneExploration(t *testing.T) {
	bounded, dpor := smallSpec(), smallSpec()
	bounded.MaxReorderings = 1
	dpor.DPOR = true
	names := []string{"small", "medium", "small k=1", "small DPOR", "violating"}
	specs := []JobSpec{smallSpec(), mediumSpec(), bounded, dpor, violatingSpec()}
	for _, sliceRuns := range []int{0, 256} {
		s, err := NewServer(Config{SpoolDir: t.TempDir(), Workers: 2, SliceRuns: sliceRuns, CheckpointInterval: Duration(time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, js := range specs {
			st, err := s.Submit(js)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		for i, js := range specs {
			final := waitServer(t, s, ids[i], 120*time.Second)
			r := final.Result
			if final.State != StateDone || r == nil || !r.Complete {
				t.Fatalf("%s job: not complete: %+v", names[i], final)
			}
			set, res, ce := sliceReference(t, js, s.Config())
			at := fmt.Sprintf("%s job at %d runs a slice", names[i], s.Config().SliceRuns)
			if r.Executed != res.Runs || r.Schedules != set.Total() || !reflect.DeepEqual(r.Outcomes, set.Counts) {
				t.Errorf("%s: executed %d runs over %d schedules %v, want %d over %d %v",
					at, r.Executed, r.Schedules, r.Outcomes, res.Runs, set.Total(), set.Counts)
			}
			if r.Tree != res.Tree || r.Prune != res.Prune {
				t.Errorf("%s: tree %+v prune %+v, want %+v %+v",
					at, r.Tree, r.Prune, res.Tree, res.Prune)
			}
			switch {
			case (r.Witness == nil) != (ce == nil):
				t.Errorf("%s: witness %+v, want %+v", at, r.Witness, ce)
			case ce != nil && !reflect.DeepEqual(r.Witness.Choices, ce.Choices):
				t.Errorf("%s: witness %v, want %v", at, r.Witness.Choices, ce.Choices)
			}
		}
		s.Drain()
	}
}
