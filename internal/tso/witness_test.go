package tso

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// spinProgs is a flag handoff whose reader spins: under a small step
// limit some schedules starve the writer, so the exploration counts a
// StepLimitOutcome bucket that needs a witness like any other outcome.
func spinProgs() (func(m *Machine) []func(Context), func(m *Machine) string) {
	mk := func(m *Machine) []func(Context) {
		flag, seen := m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				n := uint64(0)
				for c.Load(flag) == 0 {
					n++
				}
				c.Store(seen, n)
			},
			func(c Context) { c.Store(flag, 1) },
		}
	}
	out := func(m *Machine) string { return fmt.Sprintf("spins=%d", m.Peek(1)) }
	return mk, out
}

// replayReorderings replays choices like ReplaySchedule and counts the
// store→load reorderings along the schedule with the engine's own rule,
// reorderDelta, applied to every chosen action.
func replayReorderings(cfg Config, mk func(m *Machine) []func(Context), choices []int) int {
	c := cfg
	if c.MaxSteps <= 0 {
		c.MaxSteps = 100_000
	}
	m := NewMachine(c)
	defer m.Close()
	n, depth := 0, 0
	m.pol = &chooserPolicy{choose: func(acts []action) int {
		i := 0
		if depth < len(choices) {
			i = choices[depth]
		}
		depth++
		n += reorderDelta(m, acts[i])
		return i
	}}
	m.Run(mk(m)...)
	return n
}

// checkWitnesses pins the witness contract of one exploration: exactly
// one witness per counted outcome, each replaying to its outcome under
// the exploration's step limit and, under a reorder bound k, within k
// store→load reorderings.
func checkWitnesses(t *testing.T, name string, cfg Config, mk func(m *Machine) []func(Context), out func(m *Machine) string,
	set OutcomeSet, res ExploreResult, steps int64, k int) {
	t.Helper()
	if len(res.Witnesses) != len(set.Counts) {
		t.Fatalf("%s: %d witnesses for counts %v", name, len(res.Witnesses), set.Counts)
	}
	for o := range set.Counts {
		if _, ok := res.Witnesses[o]; !ok {
			t.Fatalf("%s: no witness for counted outcome %q", name, o)
		}
	}
	c := cfg
	c.MaxSteps = steps
	for o, w := range res.Witnesses {
		got := ""
		err := ReplaySchedule(c, mk, w, func(m *Machine, err error) {
			if err == nil {
				got = out(m)
			}
		})
		if errors.Is(err, ErrStepLimit) {
			got = StepLimitOutcome
		} else if err != nil {
			t.Fatalf("%s: witness %v of %q: %v", name, w, o, err)
		}
		if got != o {
			t.Errorf("%s: witness %v of %q replays to %q", name, w, o, got)
		}
		if k <= 0 {
			continue
		}
		if n := replayReorderings(c, mk, w); n > k {
			t.Errorf("%s: witness %v of %q makes %d reorderings, bound %d", name, w, o, n, k)
		}
	}
}

// TestWitnessesReplayToTheirOutcomes drives every exploration mode —
// including the timing-dependent parallel prune, both reductions that
// change the executed schedule set, reorder bounds, and a budgeted
// exploration resumed leg by leg through the wire codec — and checks the
// witness contract on each result.
func TestWitnessesReplayToTheirOutcomes(t *testing.T) {
	sbMk, sbOut := sbProgsShared(false)
	mpMk, mpOut := mpProgsShared()
	triMk, triOut := triProgs()
	casMk, casOut := casDuelProgs()
	spinMk, spinOut := spinProgs()
	programs := []struct {
		name  string
		cfg   Config
		mk    func(m *Machine) []func(Context)
		out   func(m *Machine) string
		steps int64
	}{
		{"SB", Config{Threads: 2, BufferSize: 2}, sbMk, sbOut, 0},
		{"MP+stage", Config{Threads: 2, BufferSize: 2, DrainBuffer: true}, mpMk, mpOut, 0},
		{"tri", Config{Threads: 3, BufferSize: 1}, triMk, triOut, 0},
		{"casDuel", Config{Threads: 2, BufferSize: 2}, casMk, casOut, 0},
		{"spin", Config{Threads: 2, BufferSize: 1}, spinMk, spinOut, 12},
	}
	modes := []struct {
		name string
		opts ExhaustiveOptions
	}{
		{"seq", ExhaustiveOptions{}},
		{"prune/p4", ExhaustiveOptions{Prune: true, Parallel: 4}},
		{"sleep", ExhaustiveOptions{Prune: true, SleepSets: true}},
		{"dpor", ExhaustiveOptions{DPOR: true}},
		{"k1", ExhaustiveOptions{Prune: true, MaxReorderings: 1}},
		{"k1/p4", ExhaustiveOptions{MaxReorderings: 1, Parallel: 4}},
		{"k2/p4", ExhaustiveOptions{Prune: true, MaxReorderings: 2, Parallel: 4}},
	}
	for _, p := range programs {
		for _, mode := range modes {
			name := p.name + "/" + mode.name
			o := mode.opts
			o.MaxStepsPerRun = p.steps
			set, res := ExploreExhaustive(p.cfg, p.mk, p.out, o)
			if !res.Complete {
				t.Fatalf("%s: incomplete", name)
			}
			if p.name == "spin" && set.Counts[StepLimitOutcome] == 0 {
				t.Fatalf("%s: no step-limited schedule: %v", name, set.Counts)
			}
			checkWitnesses(t, name, p.cfg, p.mk, p.out, set, res, p.steps, o.MaxReorderings)

			// The same exploration in about ten legs, each checkpoint
			// passed through the codec: witnesses found before a
			// checkpoint survive it, and the contract holds at the end.
			o.MaxRuns = max(3, res.Runs/10)
			set, res = ExploreExhaustive(p.cfg, p.mk, p.out, o)
			for legs := 0; !res.Complete; legs++ {
				if legs > 1000 {
					t.Fatalf("%s: resume not converging", name)
				}
				var buf bytes.Buffer
				if err := (BinaryCodec{}).EncodeCheckpoint(&buf, res.Checkpoint); err != nil {
					t.Fatal(err)
				}
				cp, err := (BinaryCodec{}).DecodeCheckpoint(&buf)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				o.Resume = cp
				set, res = ExploreExhaustive(p.cfg, p.mk, p.out, o)
			}
			checkWitnesses(t, name+"/resumed", p.cfg, p.mk, p.out, set, res, p.steps, o.MaxReorderings)
		}
	}
}

// TestFirstWitnessPicksSmallest: the one selection rule returns the
// lexicographically smallest witness among the matching outcomes, and
// reports when none matches.
func TestFirstWitnessPicksSmallest(t *testing.T) {
	res := ExploreResult{Witnesses: map[string][]int{
		"a": {0, 1, 1}, "b": {0, 1, 0, 5}, "c": {0, 0, 9}, "ok": {0, 0, 0},
	}}
	notOK := func(o string) bool { return o != "ok" }
	if o, w, ok := res.FirstWitness(notOK); !ok || o != "c" || !slices.Equal(w, []int{0, 0, 9}) {
		t.Fatalf("FirstWitness = %q %v %v, want c [0 0 9]", o, w, ok)
	}
	if o, w, ok := res.FirstWitness(func(o string) bool { return o == "missing" }); ok {
		t.Fatalf("FirstWitness matched nothing but returned %q %v", o, w)
	}
}
