package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// smallSpec is a quick, clean job (≈50k schedules, a few hundred
// executed with pruning).
func smallSpec() JobSpec {
	return JobSpec{Algorithm: "FF-CL", S: 2, Prefill: 1, WorkerOps: "PT", Thieves: []int{2}}
}

// mediumSpec is a mid-size job: ≈166k schedules in a few hundred
// executed runs.
func mediumSpec() JobSpec {
	return JobSpec{Algorithm: "FF-CL", S: 2, Prefill: 2, WorkerOps: "PT", Thieves: []int{2}}
}

// heavySpec is the mid-flight workhorse: big enough (≈505M schedules,
// thousands of executed runs at small slice sizes) that kill and drain
// reliably catch it running, small enough to finish in test time.
func heavySpec() JobSpec {
	return JobSpec{Algorithm: "idempotent FIFO", S: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1, 1}, Drain: true}
}

// violatingSpec is the corpus δ<S unsound configuration: FF-CL with
// δ=1 on an S=2 machine loses and duplicates tasks.
func violatingSpec() JobSpec {
	return JobSpec{Algorithm: "FF-CL", S: 2, Delta: 1, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}, Spec: "precise"}
}

// directReport explores the spec's program in-process — the reference
// the service's folded counts must match byte for byte.
func directReport(t *testing.T, js JobSpec) oracle.Report {
	t.Helper()
	prog, check, err := js.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return oracle.Run(prog.Scenario(), oracle.RunOptions{
		Spec: check, Parallel: 4, Prune: true, MaxSchedules: 1 << 20,
	})
}

// newTestServer starts a server plus its HTTP front. The caller drains.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// postJob submits a spec over HTTP and returns the decoded status.
func postJob(t *testing.T, ts *httptest.Server, js JobSpec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(js)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus polls one job over HTTP.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", id, resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls until the job reaches a terminal state.
func waitDone(t *testing.T, poll func() JobStatus, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := poll()
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", st.ID, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycle is the end-to-end acceptance path: submit over HTTP,
// poll to completion, and require the folded result byte-identical to a
// direct in-process exploration of the same program.
func TestJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, SliceRuns: 256, CheckpointInterval: Duration(10 * time.Millisecond)})
	defer s.Drain()
	defer ts.Close()

	st := postJob(t, ts, smallSpec())
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit status %+v", st)
	}
	st = waitDone(t, func() JobStatus { return getStatus(t, ts, st.ID) }, 60*time.Second)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	r := st.Result
	want := directReport(t, smallSpec())
	if !reflect.DeepEqual(r.Outcomes, want.Outcomes) {
		t.Fatalf("served outcomes %v, want %v", r.Outcomes, want.Outcomes)
	}
	gotJSON, _ := json.Marshal(r.Outcomes)
	wantJSON, _ := json.Marshal(want.Outcomes)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served outcomes not byte-identical:\n%s\n%s", gotJSON, wantJSON)
	}
	if r.Schedules != want.Schedules || !r.Complete || r.Violating != 0 {
		t.Fatalf("served summary %+v, want schedules=%d complete", r, want.Schedules)
	}
	if r.Executed == 0 || r.Witness != nil {
		t.Fatalf("clean job summary %+v", r)
	}

	// The list endpoint carries the job; unknown IDs 404.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job list %+v", list)
	}
	if resp, err = http.Get(ts.URL + "/v1/jobs/job-999999"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", resp.Status)
	}
}

// TestConcurrentJobsReleaseMachines submits a batch of small jobs at once
// and requires every one to finish with the direct exploration's counts.
// Finished jobs stay in the job table, so the live heap they leave
// behind must be their results, not the machines their slices ran on: a
// job that held one Scenario.Outcomes pair for its lifetime kept every
// machine the pair's history map saw.
func TestConcurrentJobsReleaseMachines(t *testing.T) {
	const jobs = 10
	const maxGrowth = 32 << 20
	want := directReport(t, smallSpec())
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()

	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: jobs, SliceRuns: 64})
	defer s.Drain()
	defer ts.Close()
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		ids = append(ids, postJob(t, ts, smallSpec()).ID)
	}
	for _, id := range ids {
		st := waitDone(t, func() JobStatus { return getStatus(t, ts, id) }, 120*time.Second)
		if st.State != StateDone || st.Result == nil || !st.Result.Complete {
			t.Fatalf("job %s did not complete: %+v", id, st)
		}
		if !reflect.DeepEqual(st.Result.Outcomes, want.Outcomes) || st.Result.Schedules != want.Schedules {
			t.Fatalf("job %s outcomes %v (%d schedules), want %v (%d)",
				id, st.Result.Outcomes, st.Result.Schedules, want.Outcomes, want.Schedules)
		}
	}

	growth := int64(liveHeap()) - int64(before)
	t.Logf("live heap grew %.1f MiB over %d finished jobs", float64(growth)/(1<<20), jobs)
	if growth > maxGrowth {
		t.Fatalf("live heap growth %.1f MiB exceeds the %d MiB bound", float64(growth)/(1<<20), maxGrowth>>20)
	}
}

// TestViolationWitness: the δ<S corpus configuration must come back
// violating with a replayable witness whose choices reproduce the
// verdict — the service-side version of the corpus replay check.
func TestViolationWitness(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, SliceRuns: 256, CheckpointInterval: Duration(10 * time.Millisecond)})
	defer s.Drain()
	defer ts.Close()

	js := violatingSpec()
	st := postJob(t, ts, js)
	st = waitDone(t, func() JobStatus { return getStatus(t, ts, st.ID) }, 120*time.Second)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	r := st.Result
	want := directReport(t, js)
	if !reflect.DeepEqual(r.Outcomes, want.Outcomes) {
		t.Fatalf("served outcomes %v, want %v", r.Outcomes, want.Outcomes)
	}
	if r.Violating != want.Violating || r.Violating == 0 {
		t.Fatalf("violating %d, want %d (nonzero)", r.Violating, want.Violating)
	}
	if r.Witness == nil || len(r.Witness.Choices) == 0 || r.Witness.Outcome == "" {
		t.Fatalf("no witness on violating job: %+v", r)
	}
	viols, err := ReplayWitness(js, r.Witness)
	if err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	if got := oracle.RenderVerdict(viols); got != r.Witness.Outcome {
		t.Fatalf("witness replays to %q, reported %q", got, r.Witness.Outcome)
	}
}

// TestKillAndResume: SIGKILL the server mid-job (spool sealed at the
// kill instant), restart on the same spool, and require the resumed job
// to land on exactly the direct exploration's counts — no schedule lost,
// none double-counted.
func TestKillAndResume(t *testing.T) {
	spool := t.TempDir()
	cfg := Config{SpoolDir: spool, Workers: 2, SliceRuns: 32, CheckpointInterval: Duration(2 * time.Millisecond)}
	s, ts := newTestServer(t, cfg)

	st := postJob(t, ts, heavySpec())
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := getStatus(t, ts, st.ID)
		if cur.State == StateDone {
			t.Fatalf("job finished before the kill; shrink SliceRuns")
		}
		if cur.State == StateRunning && cur.Executed >= 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never got going: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	s.Kill()
	ts.Close()

	// The sealed spool must hold a mid-flight frontier.
	rec, err := s.store.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning || rec.Checkpoint == nil || len(rec.Checkpoint.Units) == 0 {
		t.Fatalf("sealed spool not mid-flight: state=%s cp=%v", rec.State, rec.Checkpoint != nil)
	}

	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if s2.Metrics().jobsResumed.Load() != 1 {
		t.Fatalf("resumed %d jobs, want 1", s2.Metrics().jobsResumed.Load())
	}
	final := waitDone(t, func() JobStatus {
		st2, err := s2.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st2
	}, 120*time.Second)
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

// TestSubmitRejections: malformed specs 400, queue overflow 429, drain
// 503 — and /healthz flips once draining.
func TestSubmitRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, SliceRuns: 16, CheckpointInterval: Duration(time.Hour)})
	defer s.Drain()
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"algorithm": "ABP", "s": 2, "worker_ops": "PT", "thieves": [1]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: %d", code)
	}
	if code := post(`{"algorithm": "THE", "s": 2, "worker_opz": "PT"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", code)
	}

	// One slow job fills the QueueDepth=1 admission window.
	st := postJob(t, ts, heavySpec())
	body, _ := json.Marshal(smallSpec())
	if code := post(string(body)); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", code)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %s", resp.Status)
	}

	go s.Drain() // drains in background while the slow job runs
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if code := post(string(body)); code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", code)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %s", resp.Status)
	}
	_ = st
}

// TestMetricsEndpoint: the Prometheus exposition carries the engine-fed
// counters after a completed job.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SliceRuns: 256, CheckpointInterval: Duration(time.Hour)})
	defer s.Drain()
	defer ts.Close()

	st := postJob(t, ts, smallSpec())
	waitDone(t, func() JobStatus { return getStatus(t, ts, st.ID) }, 60*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"tsoserve_jobs_submitted_total 1",
		"tsoserve_jobs_completed_total 1",
		"tsoserve_runs_executed_total",
		"tsoserve_schedules_accounted_total",
		"tsoserve_prune_hit_rate",
		"tsoserve_runs_per_second",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "tsoserve_runs_executed_total 0\n") {
		t.Fatal("runs counter never moved")
	}
}

// TestMetricsMatchJobResults: the /metrics exploration counters fold the
// same slices the jobs' results fold, so after a mix of pruned,
// reorder-bounded, DPOR and violating jobs each counter must equal the
// sum over the job results. Choice points are the one exception: a
// result also counts the nodes its plan's splitting probes consumed,
// which no slice executed.
func TestMetricsMatchJobResults(t *testing.T) {
	s, err := NewServer(Config{SpoolDir: t.TempDir(), Workers: 2, SliceRuns: 64, CheckpointInterval: Duration(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	bounded, dpor := smallSpec(), smallSpec()
	bounded.MaxReorderings = 1
	dpor.DPOR = true
	specs := []JobSpec{smallSpec(), bounded, dpor, violatingSpec()}
	var ids []string
	for _, js := range specs {
		st, err := s.Submit(js)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	sum := map[string]int64{}
	var splitNodes int64
	for i, id := range ids {
		st := waitServer(t, s, id, 120*time.Second)
		r := st.Result
		if st.State != StateDone || r == nil {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		for name, v := range map[string]int64{
			"tsoserve_runs_executed_total":          int64(r.Executed),
			"tsoserve_schedules_accounted_total":    int64(r.Schedules),
			"tsoserve_step_limited_total":           int64(r.StepLimited),
			"tsoserve_violations_total":             int64(r.Violating),
			"tsoserve_tree_choice_points_total":     r.Tree.ChoicePoints,
			"tsoserve_prune_states_seen_total":      r.Prune.StatesSeen,
			"tsoserve_prune_states_deduped_total":   r.Prune.StatesDeduped,
			"tsoserve_prune_schedules_saved_total":  r.Prune.SchedulesSaved,
			"tsoserve_reorder_skips_total":          r.Prune.ReorderSkips,
			"tsoserve_dpor_races_detected_total":    r.Prune.DPORRaces,
			"tsoserve_dpor_backtracks_total":        r.Prune.DPORBacktracks,
			"tsoserve_dpor_sleep_skips_total":       r.Prune.DPORSleepSkips,
			"tsoserve_memo_admitted_total":          r.Memo.Admitted,
			"tsoserve_memo_evicted_total":           r.Memo.Evicted,
			"tsoserve_memo_stripe_contention_total": r.Memo.Contended,
		} {
			sum[name] += v
		}
		prog, check, err := specs[i].Compile()
		if err != nil {
			t.Fatal(err)
		}
		sc := prog.Scenario()
		mk, _ := sc.Outcomes(check)
		cp, err := tso.ShardFrontier(sc.Config, mk, tso.ExhaustiveOptions{
			ExploreOptions: tso.ExploreOptions{MaxStepsPerRun: s.Config().MaxStepsPerRun},
			Units:          s.Config().ShardUnits,
			MaxReorderings: specs[i].MaxReorderings,
			DPOR:           specs[i].DPOR,
		})
		if err != nil {
			t.Fatal(err)
		}
		splitNodes += cp.Tree.ChoicePoints
	}
	sum["tsoserve_tree_choice_points_total"] -= splitNodes
	if sum["tsoserve_violations_total"] == 0 || sum["tsoserve_dpor_races_detected_total"] == 0 ||
		sum["tsoserve_reorder_skips_total"] == 0 || sum["tsoserve_prune_states_deduped_total"] == 0 {
		t.Fatalf("the job mix left a counter family unexercised: %v", sum)
	}

	var buf bytes.Buffer
	s.Metrics().WritePrometheus(&buf)
	got := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil && !strings.HasPrefix(name, "#") {
			got[name] = v
		}
	}
	for name, want := range sum {
		if got[name] != want {
			t.Errorf("%s = %d, want the job results' sum %d", name, got[name], want)
		}
	}
}
