package oracle

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/tso"
)

// freshOutcomes is Outcomes with a new history per run, and so a fresh
// Build of the queue and its programs per run: the reference the reused
// per-machine history and rig must match verdict for verdict.
func freshOutcomes(sc Scenario, spec Spec) (func(m *tso.Machine) []func(tso.Context), func(m *tso.Machine) string) {
	var mu sync.Mutex
	hists := map[*tso.Machine]*History{}
	mk := func(m *tso.Machine) []func(tso.Context) {
		h := NewHistory()
		mu.Lock()
		hists[m] = h
		mu.Unlock()
		return sc.Build(m, h)
	}
	out := func(m *tso.Machine) string {
		mu.Lock()
		h := hists[m]
		mu.Unlock()
		return RenderVerdict(spec.Check(h))
	}
	return mk, out
}

// TestOutcomesReuseHistory explores programs with the Outcomes pair,
// which keeps one history and one built queue per machine, and with a
// fresh history and Build per run, sequentially and on four workers, and
// requires the same exploration: verdict counts and schedule totals
// always, executed runs and witnesses wherever they do not depend on
// timing (everywhere but parallel Prune). Prune and DPOR explore the
// FF-CL duels (δ=1 violates, and its WitnessCounterexample must replay)
// and an idempotent FIFO with prefill, drain and the drain stage; the
// unreduced engine, whose trees of those run past a million schedules,
// explores one-prefill and one-take versions of them. WS-MULT S=2 with
// the stage runs under Prune only, and is skipped under -short.
func TestOutcomesReuseHistory(t *testing.T) {
	wsmult := wsMultDuel(core.AlgoWSMult, 2)
	wsmult.Stage = true
	staged := Program{Algo: core.AlgoIdempotentFIFO, S: 1, Stage: true, Prefill: 2, WorkerOps: "T", Thieves: []int{1}, Drain: true}
	smallStaged := staged
	smallStaged.Prefill = 1
	smallDuel := Program{Algo: core.AlgoFFCL, S: 2, Delta: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1}}
	unreduced := []tso.ExhaustiveOptions{{}}
	reduced := []tso.ExhaustiveOptions{{Prune: true}, {DPOR: true}}
	for _, c := range []struct {
		p         Program
		modes     []tso.ExhaustiveOptions
		violating bool
	}{
		{ffclDuel(1), reduced, true},
		{ffclDuel(2), reduced, false},
		{staged, reduced, false},
		{smallStaged, unreduced, false},
		{smallDuel, unreduced, false},
		{wsmult, reduced[:1], false},
	} {
		if testing.Short() && c.p.Algo == core.AlgoWSMult {
			continue
		}
		sc, spec := c.p.Scenario(), c.p.Spec()
		for _, mode := range c.modes {
			for _, par := range []int{1, 4} {
				opts := mode
				opts.MaxRuns = 1 << 20
				opts.Parallel = par
				name := fmt.Sprintf("%s prune=%v dpor=%v Parallel %d", c.p, opts.Prune, opts.DPOR, par)
				mk, out := sc.Outcomes(spec)
				set, res := tso.ExploreExhaustive(sc.Config, mk, out, opts)
				fmk, fout := freshOutcomes(sc, spec)
				fset, fres := tso.ExploreExhaustive(sc.Config, fmk, fout, opts)
				if !res.Complete || !fres.Complete {
					t.Fatalf("%s: incomplete (reused %v, fresh %v)", name, res.Complete, fres.Complete)
				}
				if !reflect.DeepEqual(set.Counts, fset.Counts) || set.Total() != fset.Total() {
					t.Errorf("%s: reused builds give %v (%d schedules), fresh ones %v (%d)", name, set.Counts, set.Total(), fset.Counts, fset.Total())
				}
				timed := opts.Prune && par > 1
				if !timed && (res.Runs != fres.Runs || !reflect.DeepEqual(res.Witnesses, fres.Witnesses)) {
					t.Errorf("%s: reused builds execute %d runs, witnesses %v; fresh ones %d, %v", name, res.Runs, res.Witnesses, fres.Runs, fres.Witnesses)
				}
				if !c.violating {
					continue
				}
				ce := WitnessCounterexample(sc, spec, res, 0)
				if ce == nil || !IsViolation(ce.Outcome) || RenderVerdict(ce.Violations) != ce.Outcome {
					t.Errorf("%s: the witnessed counterexample %+v does not replay to its violation", name, ce)
				}
			}
		}
	}
}

// eventSink keeps the reference append loop from being optimized away.
var eventSink []Event

// TestOutcomesReuseHistoryAllocs: once warmed, an mk → Run → out cycle of
// an Outcomes pair on a reused machine records into the same history and
// event backing, re-arms the same built queue and programs, and judges
// the verdict in the history's scratch, so it allocates nothing, on a
// clean run and on a violating one. The same cycle with a fresh history
// and Build per run allocates more than the growth of its events alone.
func TestOutcomesReuseHistoryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sc, spec := ffclDuel(2).Scenario(), ffclDuel(2).Spec()
	var last *History
	build := sc.Build
	sc.Build = func(m *tso.Machine, h *History) []func(tso.Context) {
		last = h
		return build(m, h)
	}
	m := tso.NewMachine(sc.Config)
	defer m.Close()
	cycleOf := func(mk func(m *tso.Machine) []func(tso.Context), out func(m *tso.Machine) string) func() {
		return func() {
			m.Reset()
			if err := m.Run(mk(m)...); err != nil {
				t.Fatal(err)
			}
			out(m)
		}
	}
	reused := cycleOf(sc.Outcomes(spec))
	reused() // warm: the machine's workers, the history's backing, the rig
	warm, backing, rig := last, &last.Events()[0], last.rig
	n := len(last.Events())
	reusedAllocs := testing.AllocsPerRun(20, reused)
	if last != warm || &last.Events()[0] != backing || last.rig != rig {
		t.Fatal("a warmed cycle recorded into a new history, event backing or rig")
	}
	freshAllocs := testing.AllocsPerRun(20, cycleOf(freshOutcomes(sc, spec)))
	growth := testing.AllocsPerRun(20, func() {
		var ev []Event
		for i := 0; i < n; i++ {
			ev = append(ev, Event{})
		}
		eventSink = ev
	})
	t.Logf("%d events: %.0f allocations per reused cycle, %.0f per fresh one, %.0f to grow the events",
		n, reusedAllocs, freshAllocs, growth)
	if reusedAllocs != 0 {
		t.Errorf("a warmed cycle allocates %.0f objects, want 0", reusedAllocs)
	}
	if growth == 0 || freshAllocs <= growth {
		t.Errorf("a fresh-history cycle allocates %.0f objects, want more than the %.0f of %d events' backing", freshAllocs, growth, n)
	}

	// A violating run renders its verdict into the history's scratch and
	// returns the interned string, so it allocates nothing either: rerun
	// the δ=1 duel under a chaos seed that hands a task out twice.
	vp := ffclDuel(1)
	vsc := vp.Scenario()
	vsc.Config.DrainBias = 0.05
	ce := FindCounterexample(vsc, vp.Spec(), RunOptions{SampleRuns: 50})
	if ce == nil {
		t.Fatal("no violating chaos seed for the δ=1 duel")
	}
	vm := tso.NewMachine(vsc.Config)
	defer vm.Close()
	vmk, vout := vsc.Outcomes(vp.Spec())
	var got string
	violating := func() {
		vm.ResetSeed(ce.Seed)
		if err := vm.Run(vmk(vm)...); err != nil {
			t.Fatal(err)
		}
		got = vout(vm)
	}
	violating()
	if got != ce.Outcome {
		t.Fatalf("seed %d reran to %q, want %q", ce.Seed, got, ce.Outcome)
	}
	if a := testing.AllocsPerRun(20, violating); a != 0 {
		t.Errorf("a warmed violating cycle (%q) allocates %.0f objects, want 0", got, a)
	}
}

// TestOracleAllocs bounds the allocations of whole oracle proofs per
// executed run, the cost the oracle adds to TestExploreAllocs' engine
// bound: a DPOR proof of the FF-CL δ=2 duel and a Prune proof of the
// drained idempotent FIFO (two prefilled tasks, a take, two thieves).
// AllocsPerRun's first call warms each proof. What is left is the
// exploration's own cost spread over its runs: the engine, machines,
// memo arena and first builds, and for DPOR the engine's per-node
// race-detection state. Measured: 272 allocations over the DPOR proof's
// 84 runs (3.24 per run) and 252 over the Prune proof's 3096 (0.08).
// The bounds, 4 and 0.5, fail on one more allocation per run.
func TestOracleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	idemfifo := Program{Algo: core.AlgoIdempotentFIFO, S: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1, 1}, Drain: true}
	for _, c := range []struct {
		name string
		p    Program
		opts RunOptions
		max  float64
	}{
		{"ffcl-s2-dpor", ffclDuel(2), RunOptions{DPOR: true}, 4},
		{"idemfifo-drain", idemfifo, RunOptions{Prune: true}, 0.5},
	} {
		var rep Report
		allocs := testing.AllocsPerRun(1, func() {
			opts := c.opts
			opts.Spec = c.p.Spec()
			rep = Run(c.p.Scenario(), opts)
		})
		if !rep.Complete || rep.Violating != 0 {
			t.Fatalf("%s: complete %v, %d violating schedules", c.name, rep.Complete, rep.Violating)
		}
		perRun := allocs / float64(rep.Executed)
		t.Logf("%s: %.0f allocations over %d runs, %.3f per run", c.name, allocs, rep.Executed, perRun)
		if perRun > c.max {
			t.Errorf("%s: %.3f allocations per executed run, want at most %.1f", c.name, perRun, c.max)
		}
	}
}

// TestOutcomesRetainNothing runs one Scenario through many explorations,
// each with its own Outcomes pair, as the verification service does once
// per slice, and requires the live heap not to grow with their number:
// the histories and built queues of an exploration's machines belong to
// its pair, and go with it.
func TestOutcomesRetainNothing(t *testing.T) {
	p := ffclDuel(2)
	sc, spec := p.Scenario(), p.Spec()
	explore := func(n int) {
		for i := 0; i < n; i++ {
			mk, out := sc.Outcomes(spec)
			tso.ExploreExhaustive(sc.Config, mk, out, tso.ExhaustiveOptions{DPOR: true, Parallel: 2})
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	explore(5)
	before := live()
	const n = 100
	explore(n)
	after := live()
	t.Logf("live heap %d B before %d explorations, %d B after", before, n, after)
	if after > before+n*1024 {
		t.Errorf("live heap grew %d B over %d explorations: an exploration's machines outlive it", after-before, n)
	}
}
