package load

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/tso"
)

// testCfg is a small timed platform for the unit tests.
func testCfg() tso.Config {
	return tso.Config{Threads: 4, BufferSize: 11, DrainBuffer: true}
}

// testWL is a modest serving workload completing in well under a second.
func testWL() Workload {
	return Workload{Requests: 64, MeanGap: 300, Burst: 2, Fanout: 4, Grain: 128, RootWork: 16, Seed: 1}
}

// TestArrivalsOpenLoop checks the arrival timetable: monotone, bursts of
// exactly Burst sharing an instant, and a mean gap near MeanGap
// independent of Burst.
func TestArrivalsOpenLoop(t *testing.T) {
	for _, burst := range []int{1, 4} {
		wl := Workload{Requests: 4000, MeanGap: 100, Burst: burst, Seed: 7}.withDefaults()
		arr := wl.arrivals()
		if arr[0] != 0 {
			t.Fatalf("burst=%d: first arrival at %d, want 0", burst, arr[0])
		}
		for i := 1; i < len(arr); i++ {
			if arr[i] < arr[i-1] {
				t.Fatalf("burst=%d: arrivals not monotone at %d", burst, i)
			}
			sameGroup := i%burst != 0
			if sameGroup && arr[i] != arr[i-1] {
				t.Fatalf("burst=%d: request %d not co-arriving with its burst", burst, i)
			}
		}
		mean := float64(arr[len(arr)-1]) / float64(len(arr)-1)
		if mean < 80 || mean > 120 {
			t.Errorf("burst=%d: empirical mean gap %.1f, want ~100", burst, mean)
		}
	}
}

// TestRunDeterministic checks a serving run is a pure function of its
// (config, options, workload) triple.
func TestRunDeterministic(t *testing.T) {
	opt := sched.Options{Algo: core.AlgoFFCL, Delta: 6, Victim: sched.VictimPowerOfTwo, BatchSteal: 4, Seed: 3}
	a, err := Run(testCfg(), opt, testWL())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(), opt, testWL())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs differ:\n%+v\n%+v", a, b)
	}
	if a.Requests != 64 || a.Hist.Count() != 64 {
		t.Fatalf("run measured %d latencies for %d requests", a.Hist.Count(), a.Requests)
	}
	if a.P50 > a.P99 || a.P99 > a.P999 || a.P999 > a.Max {
		t.Fatalf("quantiles not monotone: %+v", a)
	}
}

// TestServingCellTimedCheck serves one reference-platform cell (8
// threads, S=11, the drain stage; FF-CL, fork/join, saturating arrivals)
// with the timed engine's self-check on, which recomputes every step's
// thread and every drain by full scans and panics on a disagreement. The
// checked run must also equal an unchecked one.
func TestServingCellTimedCheck(t *testing.T) {
	cfg := ReferenceSweep().Cfg
	opt := sched.Options{Algo: core.AlgoFFCL, Delta: core.DefaultDelta(cfg.ObservableBound()), Victim: sched.VictimUniform, BatchSteal: 1, Seed: 5}
	wl := Workload{Requests: 256, MeanGap: 200, Burst: 4, Fanout: 6, Grain: 64, RootWork: 32, Seed: 5}
	prev := tso.SetTimedCheck(true)
	got, err := Run(cfg, opt, wl)
	tso.SetTimedCheck(prev)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("checked run differs from unchecked:\n%+v\n%+v", got, want)
	}
	if got.Sched.Steals == 0 {
		t.Fatal("the cell stole nothing; it exercises too little of the scheduler")
	}
}

// TestRunCapabilityGate is the regression test for the queue-contract
// check: Run must gate on the ExactlyOnce capability predicate, not on a
// hard-coded algorithm list, so every algorithm in the registry —
// including ones added later — is classified by what it guarantees.
// Fork/join workloads (Fanout > 0) reject exactly the non-exact
// algorithms; sequential workloads (Fanout == 0) accept everything.
func TestRunCapabilityGate(t *testing.T) {
	forked := testWL()
	seq := testWL()
	seq.Fanout = 0
	for _, algo := range core.AllAlgos {
		opt := sched.Options{Algo: algo, Delta: 6, Seed: 3}
		_, err := Run(testCfg(), opt, forked)
		if algo.ExactlyOnce() && err != nil {
			t.Errorf("%v: exact algorithm rejected from fork/join workload: %v", algo, err)
		}
		if !algo.ExactlyOnce() && err == nil {
			t.Errorf("%v: relaxed algorithm accepted for a fork/join workload", algo)
		}
		if _, err := Run(testCfg(), opt, seq); err != nil {
			t.Errorf("%v: sequential workload failed: %v", algo, err)
		}
	}
}

// TestRunSequentialRelaxed pins the relaxed-queue serving semantics: on
// a sequential workload over WS-MULT every request completes and is
// measured exactly once — duplicate deliveries re-execute the body
// (surfacing as DupsPerReq) but never inflate the latency histogram.
func TestRunSequentialRelaxed(t *testing.T) {
	wl := testWL()
	wl.Fanout = 0
	for _, algo := range []core.Algo{core.AlgoWSMult, core.AlgoWSMultRelaxed} {
		res, err := Run(testCfg(), sched.Options{Algo: algo, Seed: 3}, wl)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got := res.Hist.Count(); got != uint64(wl.Requests) {
			t.Fatalf("%v: %d latencies for %d requests", algo, got, wl.Requests)
		}
		if res.DupsPerReq < 0 {
			t.Fatalf("%v: negative DupsPerReq %v", algo, res.DupsPerReq)
		}
		if res.DupsPerReq > 0 {
			t.Logf("%v: observed %.4f duplicate executions per request", algo, res.DupsPerReq)
		}
	}
}

// TestBatchKnobInertWithoutSupport checks the paper-fidelity fallback:
// on an algorithm without BatchStealer support (FF-THE), turning the
// batch knob changes nothing — the whole Result is identical.
func TestBatchKnobInertWithoutSupport(t *testing.T) {
	base := sched.Options{Algo: core.AlgoFFTHE, Delta: 6, Seed: 5}
	batched := base
	batched.BatchSteal = 8
	a, err := Run(testCfg(), base, testWL())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(), batched, testWL())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("batch knob changed an FF-THE run:\n%+v\n%+v", a, b)
	}
}

// TestBatchingReducesStealVisits checks the batched-steal win on a
// saturated Chase-Lev run: strictly fewer steal visits per request than
// single steal, with the same number of requests completing.
func TestBatchingReducesStealVisits(t *testing.T) {
	wl := testWL()
	wl.MeanGap = 50 // saturate: deep backlog on worker 0's queue
	single := sched.Options{Algo: core.AlgoChaseLev, Seed: 5}
	batched := single
	batched.BatchSteal = 8
	a, err := Run(testCfg(), single, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(), batched, wl)
	if err != nil {
		t.Fatal(err)
	}
	if b.StealsPerReq >= a.StealsPerReq {
		t.Errorf("batched steals/req %.2f not below single %.2f", b.StealsPerReq, a.StealsPerReq)
	}
	if b.Sched.Workers != nil {
		t.Errorf("worker metrics populated without Config.Metrics")
	}
}

// TestVictimPoliciesRun checks every victim policy completes the
// workload on every exact algorithm, and that the policy changes the
// measured schedule (different steal traffic) on at least one of them.
func TestVictimPoliciesRun(t *testing.T) {
	wl := testWL()
	changed := false
	for _, ac := range []AlgoCase{{Algo: core.AlgoTHE}, {Algo: core.AlgoChaseLev}, {Algo: core.AlgoFFCL, Delta: 6}} {
		var base Result
		for i, v := range sched.VictimPolicies {
			res, err := Run(testCfg(), sched.Options{Algo: ac.Algo, Delta: ac.Delta, Victim: v, Seed: 9}, wl)
			if err != nil {
				t.Fatalf("%s/%s: %v", ac.Algo, v, err)
			}
			if i == 0 {
				base = res
			} else if res.Sched.Steals != base.Sched.Steals || res.Elapsed != base.Elapsed {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("no victim policy changed any schedule; the knob is inert")
	}
}

// TestSweepCacheResume checks the sweep is deterministic and that a
// second pass over a warm cache returns identical rows (checkpoint/
// resume at cell granularity).
func TestSweepCacheResume(t *testing.T) {
	sc := SweepConfig{
		Cfg:      testCfg(),
		Requests: 24, Fanout: 3, Burst: 2, RootWork: 8,
		Gaps:   []float64{150},
		Grains: []uint64{64},
		Algos:  []AlgoCase{{Algo: core.AlgoChaseLev}, {Algo: core.AlgoFFCL, Delta: 6}},
		Knobs: []Knob{
			{Name: "base", Victim: sched.VictimUniform, Batch: 1},
			{Name: "batch4", Victim: sched.VictimUniform, Batch: 4},
		},
		Seeds: 2,
	}
	cache := &runner.Cache{Dir: t.TempDir(), Version: "test"}
	cold, err := Sweep(context.Background(), runner.New(2), cache, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 4 {
		t.Fatalf("sweep returned %d rows, want 4", len(cold))
	}
	warm, err := Sweep(context.Background(), runner.New(2), cache, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm-cache sweep differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	serial, err := Sweep(context.Background(), nil, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, serial) {
		t.Fatalf("parallel sweep differs from serial:\npar %+v\nser %+v", cold, serial)
	}
	keys := map[string]bool{}
	for _, r := range cold {
		if keys[r.Key()] {
			t.Fatalf("duplicate row key %q", r.Key())
		}
		keys[r.Key()] = true
	}
}
