package oracle

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/tso"
)

// ffclDuel is the δ-soundness duel on an S=2 machine: δ=1 hands one task
// out twice in some schedule, δ=2 (the observable bound) never does.
func ffclDuel(delta int) Program {
	return Program{Algo: core.AlgoFFCL, S: 2, Delta: delta, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}}
}

// TestWitnessesMatchFirstVisits: a sequential pruned exploration's
// witnesses are the reference engine's first visits — the schedules the
// removed re-exploration used to find. The reference is capped; every
// outcome is visited long before the cap, which the test checks.
func TestWitnessesMatchFirstVisits(t *testing.T) {
	for _, delta := range []int{1, 2} {
		sc := ffclDuel(delta).Scenario()
		mk, out := sc.Outcomes(Precise{})
		ref, refRes := tso.ExploreOutcomes(sc.Config, mk, out, tso.ExploreOptions{MaxRuns: 1 << 14})
		set, res := tso.ExploreExhaustive(sc.Config, mk, out, tso.ExhaustiveOptions{Prune: true})
		if !res.Complete {
			t.Fatalf("δ=%d: pruned exploration incomplete", delta)
		}
		if len(ref.Counts) != len(set.Counts) {
			t.Fatalf("δ=%d: the capped reference saw %v, the full tree has %v", delta, ref.Counts, set.Counts)
		}
		if !reflect.DeepEqual(res.Witnesses, refRes.Witnesses) {
			t.Fatalf("δ=%d: witnesses %v, reference first visits %v", delta, res.Witnesses, refRes.Witnesses)
		}
	}
}

// TestReducedWitnessesReplay: DPOR and sleep sets execute a different
// schedule set than the unreduced tree, so their witnesses need not be
// the reference's — but each must replay to the verdict it witnesses.
func TestReducedWitnessesReplay(t *testing.T) {
	for _, delta := range []int{1, 2} {
		p := ffclDuel(delta)
		for _, opts := range []tso.ExhaustiveOptions{{DPOR: true}, {Prune: true, SleepSets: true, Parallel: 4}} {
			sc := p.Scenario()
			mk, out := sc.Outcomes(Precise{})
			set, res := tso.ExploreExhaustive(sc.Config, mk, out, opts)
			if len(res.Witnesses) != len(set.Counts) {
				t.Fatalf("δ=%d %+v: witnesses %v for counts %v", delta, opts, res.Witnesses, set.Counts)
			}
			for o, w := range res.Witnesses {
				viols, _, err := Replay(sc, Precise{}, w)
				if err != nil || RenderVerdict(viols) != o {
					t.Errorf("δ=%d %+v: witness %v of %q replays to %q (%v)", delta, opts, w, o, RenderVerdict(viols), err)
				}
			}
		}
	}
}

// traceReorderings replays choices with a tracer and counts the
// schedule's store→load reorderings from the events alone: a load that
// finds none of its own thread's buffered stores to its address while
// some are still buffered. The buffers are rebuilt from the trace —
// FIFO, no drain stage; a store into a full buffer, a fence and a CAS
// drain implicitly, without drain events.
func traceReorderings(t *testing.T, sc Scenario, choices []int) int {
	t.Helper()
	tr := tso.NewRingTracer(1 << 16)
	err := tso.ReplaySchedule(sc.Config, func(m *tso.Machine) []func(tso.Context) {
		m.SetTracer(tr)
		progs, _ := sc.Build(m)
		return progs
	}, choices, nil)
	if err != nil || tr.Total() >= 1<<16 {
		t.Fatalf("replay of %v: %v after %d events", choices, err, tr.Total())
	}
	bufs := make([][]tso.Addr, sc.Config.Threads)
	n := 0
	for _, e := range tr.Events() {
		b := bufs[e.Thread]
		switch e.Kind {
		case "store":
			if len(b) == sc.Config.BufferSize {
				b = b[1:]
			}
			b = append(b, e.Addr)
		case "drain":
			b = b[1:]
		case "fence", "cas":
			b = nil
		case "load":
			if len(b) > 0 && !slices.Contains(b, e.Addr) {
				n++
			}
		}
		bufs[e.Thread] = b
	}
	return n
}

// TestCounterexampleWithinReorderBound: a reorder-bounded verdict's
// counterexample must lie in the bounded space the verdict covers. δ=1
// FF-CL is already violating at k=3, whose smallest witness makes three
// reorderings; the smallest unbounded witness makes four, and a
// re-exploration that ignores the bound would report it.
func TestCounterexampleWithinReorderBound(t *testing.T) {
	sc := ffclDuel(1).Scenario()
	for _, k := range []int{3, 4} {
		rep := Run(sc, RunOptions{Spec: Precise{}, Prune: true, MaxReorderings: k, Counterexample: true})
		if !rep.Complete || rep.Violating == 0 || rep.Counterexample == nil {
			t.Fatalf("k=%d: complete %v, violating %d, counterexample %v", k, rep.Complete, rep.Violating, rep.Counterexample)
		}
		ce := rep.Counterexample
		if got := RenderVerdict(ce.Violations); got != ce.Outcome {
			t.Fatalf("k=%d: counterexample violations render %q, outcome %q", k, got, ce.Outcome)
		}
		n := traceReorderings(t, sc, ce.Choices)
		if n > k {
			t.Errorf("k=%d: counterexample %v (%q) makes %d reorderings", k, ce.Choices, ce.Outcome, n)
		}
		t.Logf("k=%d: %q via %v, %d reorderings", k, ce.Outcome, ce.Choices, n)
	}
}
