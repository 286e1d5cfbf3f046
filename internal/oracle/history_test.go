package oracle

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tso"
)

// TestHistoryReplayIdentical re-runs one fixed schedule of an instrumented
// three-thread scenario twice and requires identical event sequences. All
// three threads begin a deque operation before their first machine
// operation, so this also pins that those host-code appends happen one
// thread at a time, in tid order: History has no lock, and the race
// detector would report any overlap.
func TestHistoryReplayIdentical(t *testing.T) {
	p := Program{Algo: core.AlgoChaseLev, S: 2, Prefill: 2, WorkerOps: "PT", Thieves: []int{2, 2}, Drain: true}
	sc := p.Scenario()
	choices := []int{2, 1, 0, 2, 2, 1, 0, 1, 2, 0, 1, 1, 2, 0, 2}
	replay := func() []Event {
		h := NewHistory()
		mk := func(m *tso.Machine) []func(tso.Context) { return sc.Build(m, h) }
		if err := tso.ReplaySchedule(sc.Config, mk, choices, nil); err != nil {
			t.Fatalf("replay: %v", err)
		}
		return h.Events()
	}
	first, second := replay(), replay()
	if len(first) == 0 {
		t.Fatal("replay recorded no events")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replays of one schedule recorded different histories:\n%v\n%v", first, second)
	}
	for i, want := range []int{0, 1, 2} {
		if e := first[i]; !e.Begin || e.Thread != want {
			t.Fatalf("event %d = %v, want thread %d's first begin (threads start in tid order)", i, e, want)
		}
	}
}
