package tso

import (
	"fmt"
	"testing"
)

// exhaustive SB litmus: both threads store then load. Registers are
// written to reserved result cells at the end of each program so visit can
// read them from memory after the run's final flush.
func sbProgs(fenced bool) (func(m *Machine) []func(Context), func(m *Machine) string) {
	var x, y, r0a, r1a Addr
	mk := func(m *Machine) []func(Context) {
		x, y = m.Alloc(1), m.Alloc(1)
		r0a, r1a = m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(x, 1)
				if fenced {
					c.Fence()
				}
				c.Store(r0a, c.Load(y)+100) // +100 marks "written"
			},
			func(c Context) {
				c.Store(y, 1)
				if fenced {
					c.Fence()
				}
				c.Store(r1a, c.Load(x)+100)
			},
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("r0=%d r1=%d", m.Peek(r0a)-100, m.Peek(r1a)-100)
	}
	return mk, out
}

func TestExploreSBUnfencedAllFourOutcomes(t *testing.T) {
	mk, out := sbProgs(false)
	set, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 2}, mk, out, ExploreOptions{})
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d runs", res.Runs)
	}
	for _, want := range []string{"r0=0 r1=0", "r0=0 r1=1", "r0=1 r1=0", "r0=1 r1=1"} {
		if !set.Has(want) {
			t.Errorf("outcome %q unreachable; counts=%v", want, set.Counts)
		}
	}
	if len(set.Counts) != 4 {
		t.Errorf("unexpected outcomes: %v", set.Counts)
	}
	t.Logf("SB unfenced: %d schedules, outcomes %v", res.Runs, set.Counts)
}

func TestExploreWithChoicesReplaysWitness(t *testing.T) {
	// Extract the schedule that reaches the TSO reordering outcome, then
	// replay it on a fresh machine via ReplaySchedule: the outcome must
	// reproduce exactly, and the replayed trace must pair every store with
	// its drain by op id.
	mk, out := sbProgs(false)
	var witness []int
	res := ExploreWithChoices(Config{Threads: 2, BufferSize: 2}, mk, ExploreOptions{}, func(m *Machine, err error, choices []int) bool {
		if err != nil {
			t.Fatal(err)
		}
		if out(m) != "r0=0 r1=0" {
			return false
		}
		witness = append([]int(nil), choices...)
		return true
	})
	if witness == nil {
		t.Fatalf("r0=r1=0 not found in %d runs", res.Runs)
	}
	var tr *RingTracer
	mkTraced := func(m *Machine) []func(Context) {
		tr = NewRingTracer(256)
		m.SetTracer(tr)
		return mk(m)
	}
	err := ReplaySchedule(Config{Threads: 2, BufferSize: 2}, mkTraced, witness, func(m *Machine, err error) {
		if got := out(m); got != "r0=0 r1=0" {
			t.Fatalf("replayed outcome %q, want r0=0 r1=0", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stores := map[int64]bool{}
	for _, e := range tr.Events() {
		if e.Kind == "store" {
			stores[e.ID] = true
		}
		if e.Kind == "drain" && !stores[e.ID] {
			t.Fatalf("replayed drain op %d without its store:\n%v", e.ID, tr.Events())
		}
	}
}

func TestReplayScheduleClampsWildChoices(t *testing.T) {
	// Fuzz-derived prefixes carry arbitrary ints; replay must clamp them
	// to the action range and still complete a legal schedule.
	mk, out := sbProgs(false)
	err := ReplaySchedule(Config{Threads: 2, BufferSize: 2}, mk, []int{99, -3, 7, 0, 42}, func(m *Machine, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got := out(m)
		legal := map[string]bool{"r0=0 r1=0": true, "r0=0 r1=1": true, "r0=1 r1=0": true, "r0=1 r1=1": true}
		if !legal[got] {
			t.Fatalf("illegal outcome %q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExploreSBFencedExcludesZeroZero(t *testing.T) {
	mk, out := sbProgs(true)
	set, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 2}, mk, out, ExploreOptions{})
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d runs", res.Runs)
	}
	if set.Has("r0=0 r1=0") {
		t.Fatalf("fenced SB reached r0=r1=0: fence semantics broken (counts=%v)", set.Counts)
	}
	for _, want := range []string{"r0=0 r1=1", "r0=1 r1=0", "r0=1 r1=1"} {
		if !set.Has(want) {
			t.Errorf("outcome %q unreachable", want)
		}
	}
}

// TestExploreMessagePassing proves TSO's FIFO-drain guarantee: if the
// reader sees the flag (y=1) it must also see the data (x=1) — the
// outcome r0=1 ∧ r1=0 is unreachable in *any* schedule.
func TestExploreMessagePassing(t *testing.T) {
	var x, y, r0a, r1a Addr
	mk := func(m *Machine) []func(Context) {
		x, y = m.Alloc(1), m.Alloc(1)
		r0a, r1a = m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(x, 1)
				c.Store(y, 1)
			},
			func(c Context) {
				r0 := c.Load(y)
				r1 := c.Load(x)
				c.Store(r0a, r0)
				c.Store(r1a, r1)
			},
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("flag=%d data=%d", m.Peek(r0a), m.Peek(r1a))
	}
	for _, stage := range []bool{false, true} {
		set, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 2, DrainBuffer: stage}, mk, out, ExploreOptions{})
		if !res.Complete {
			t.Fatalf("stage=%v: incomplete after %d runs", stage, res.Runs)
		}
		if set.Has("flag=1 data=0") {
			t.Fatalf("stage=%v: message passing violated (counts=%v)", stage, set.Counts)
		}
	}
}

// TestExploreCoalescingStaysTSOLegal proves the §7.3 requirement
// exhaustively: with buffered A:=1; B:=1; A:=2 and the coalescing drain
// stage, no schedule lets a reader observe A=2 and then B=0 — coalescing
// only merges *consecutive* same-address drains.
func TestExploreCoalescingStaysTSOLegal(t *testing.T) {
	var a, bAddr, ra, rb Addr
	mk := func(m *Machine) []func(Context) {
		a, bAddr = m.Alloc(1), m.Alloc(1)
		ra, rb = m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(a, 1)
				c.Store(bAddr, 1)
				c.Store(a, 2)
			},
			func(c Context) {
				va := c.Load(a)
				vb := c.Load(bAddr)
				c.Store(ra, va)
				c.Store(rb, vb)
			},
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("A=%d B=%d", m.Peek(ra), m.Peek(rb))
	}
	set, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 3, DrainBuffer: true}, mk, out, ExploreOptions{})
	if !res.Complete {
		t.Fatalf("incomplete after %d runs", res.Runs)
	}
	if set.Has("A=2 B=0") {
		t.Fatalf("illegal TSO outcome A=2,B=0 reachable (counts=%v)", set.Counts)
	}
	// Sanity: the coalesced final state is reachable, and so is observing
	// the intermediate A=1.
	if !set.Has("A=2 B=1") || !set.Has("A=1 B=0") {
		t.Fatalf("expected outcomes missing: %v", set.Counts)
	}
}

// TestExploreBoundedLagExact proves the reordering bound on a small
// machine: with S=2 and no drain stage, a reader can observe the writer's
// counter lagging by at most 2 — and a lag of exactly 2 is reachable.
func TestExploreBoundedLagExact(t *testing.T) {
	var loc, lagA Addr
	mk := func(m *Machine) []func(Context) {
		loc = m.Alloc(1)
		lagA = m.Alloc(1)
		issued := uint64(0)
		return []func(Context){
			func(c Context) {
				for i := uint64(1); i <= 3; i++ {
					c.Store(loc, i)
					issued = i
				}
			},
			func(c Context) {
				// The first op is a scheduling point; only after it does
				// this goroutine hold the machine's floor, making the
				// meta-counter read race-free and consistent.
				c.Work(1)
				before := issued
				v := c.Load(loc)
				if before > v {
					c.Store(lagA, before-v)
				} else {
					c.Store(lagA, 0)
				}
			},
		}
	}
	out := func(m *Machine) string { return fmt.Sprintf("lag=%d", m.Peek(lagA)) }
	set, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 2}, mk, out, ExploreOptions{})
	if !res.Complete {
		t.Fatalf("incomplete after %d runs", res.Runs)
	}
	if set.Has("lag=3") {
		t.Fatalf("lag beyond S reachable: %v", set.Counts)
	}
	if !set.Has("lag=2") {
		t.Fatalf("maximum lag S not reachable: %v", set.Counts)
	}
}

func TestExploreMaxRunsCap(t *testing.T) {
	mk, out := sbProgs(false)
	_, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 2}, mk, out, ExploreOptions{MaxRuns: 5})
	if res.Complete {
		t.Fatal("claimed completeness under a 5-run cap")
	}
	if res.Runs != 5 {
		t.Fatalf("runs=%d want 5", res.Runs)
	}
}

func TestExploreStepLimitedRunsCounted(t *testing.T) {
	mk := func(m *Machine) []func(Context) {
		flag := m.Alloc(1)
		return []func(Context){
			func(c Context) {
				for c.Load(flag) == 0 {
				}
			},
		}
	}
	res := ExploreWithChoices(Config{Threads: 1, BufferSize: 1}, mk, ExploreOptions{MaxRuns: 3, MaxStepsPerRun: 200},
		func(*Machine, error, []int) bool { return false })
	if res.StepLimited == 0 {
		t.Fatal("blocked program not counted as step-limited")
	}
}

// TestExploreMatchesRandomSampling cross-validates the two scheduling
// policies: every outcome the random chaos scheduler finds for SB must be
// in the exhaustive set.
func TestExploreMatchesRandomSampling(t *testing.T) {
	mk, out := sbProgs(false)
	set, _ := ExploreOutcomes(Config{Threads: 2, BufferSize: 2}, mk, out, ExploreOptions{})
	for seed := int64(0); seed < 100; seed++ {
		m := NewMachine(Config{Threads: 2, BufferSize: 2, Seed: seed, DrainBias: 0.3})
		progs := mk(m)
		if err := m.Run(progs...); err != nil {
			t.Fatal(err)
		}
		if o := out(m); !set.Has(o) {
			t.Fatalf("random run produced outcome %q outside the exhaustive set %v", o, set.Counts)
		}
	}
}
