package oracle

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/tso"
)

// freshOutcomes is Outcomes with a new history per run: the reference
// the reused per-machine history must match verdict for verdict.
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

// TestOutcomesReuseHistory runs the FF-CL duels and the WS-MULT S=2
// drain-stage program under Prune, sequentially and on four workers, and
// requires Run — whose Outcomes pair resets one history per machine —
// to bucket every schedule exactly as a fresh history per run does.
func TestOutcomesReuseHistory(t *testing.T) {
	wsmult := wsMultDuel(core.AlgoWSMult, 2)
	wsmult.Stage = true
	progs := []Program{ffclDuel(1), ffclDuel(2), wsmult}
	for _, p := range progs {
		if testing.Short() && p.Algo == core.AlgoWSMult {
			continue
		}
		sc, spec := p.Scenario(), p.Spec()
		for _, par := range []int{1, 4} {
			rep := Run(sc, RunOptions{Spec: spec, Prune: true, Parallel: par})
			mk, out := freshOutcomes(sc, spec)
			set, res := tso.ExploreExhaustive(sc.Config, mk, out, tso.ExhaustiveOptions{
				ExploreOptions: tso.ExploreOptions{MaxRuns: 1 << 20},
				Parallel:       par,
				Prune:          true,
			})
			if !rep.Complete || !res.Complete {
				t.Fatalf("%s Parallel %d: incomplete (reused %v, fresh %v)", p, par, rep.Complete, res.Complete)
			}
			if !reflect.DeepEqual(rep.Outcomes, set.Counts) {
				t.Errorf("%s Parallel %d: reused histories give %v, fresh ones %v", p, par, rep.Outcomes, set.Counts)
			}
		}
	}
}

// eventSink keeps the reference append loop from being optimized away.
var eventSink []Event

// TestOutcomesReuseHistoryAllocs: once warmed, an mk → Run → out cycle of
// an Outcomes pair on a reused machine records into the same event
// backing, so it allocates at least the history's events growth less
// than the same cycle with a fresh history per run.
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
	reused() // warm: the machine's workers and the history's backing
	warm, backing := last, &last.Events()[0]
	n := len(last.Events())
	reusedAllocs := testing.AllocsPerRun(20, reused)
	if last != warm || &last.Events()[0] != backing {
		t.Fatal("a warmed cycle recorded into a new history or event backing")
	}
	freshAllocs := testing.AllocsPerRun(20, cycleOf(freshOutcomes(sc, spec)))
	growth := testing.AllocsPerRun(20, func() {
		var ev []Event
		for i := 0; i < n; i++ {
			ev = append(ev, Event{})
		}
		eventSink = ev
	})
	if growth == 0 || reusedAllocs > freshAllocs-growth {
		t.Fatalf("warmed cycle allocates %.0f objects, a fresh-history cycle %.0f: want at least the %.0f of %d events' backing fewer",
			reusedAllocs, freshAllocs, growth, n)
	}
	t.Logf("%d events: %.0f allocations per reused cycle, %.0f per fresh one, %.0f to grow the events",
		n, reusedAllocs, freshAllocs, growth)
}
