package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// brokenCL is a deliberately sabotaged Chase-Lev variant used to validate
// the semantic oracle itself: when a thief sees two or more tasks it
// advances H by two while delivering only one, silently dropping the task
// in between. A drained run over it must produce a lost-task verdict —
// if the oracle ever stops flagging this mutant, the oracle is broken.
type brokenCL struct {
	h, t, tasks tso.Addr
	w           int64
}

func newBrokenCL(a tso.Allocator, capacity int) *brokenCL {
	return &brokenCL{h: a.Alloc(1), t: a.Alloc(1), tasks: a.Alloc(capacity), w: int64(capacity)}
}

func (q *brokenCL) slot(i int64) tso.Addr {
	i %= q.w
	if i < 0 {
		i += q.w
	}
	return q.tasks + tso.Addr(i)
}

func (q *brokenCL) Name() string { return "broken-CL" }

func (q *brokenCL) Put(c tso.Context, v uint64) {
	t := int64(c.Load(q.t))
	c.Store(q.slot(t), v)
	c.Store(q.t, uint64(t+1))
}

func (q *brokenCL) Take(c tso.Context) (uint64, core.Status) {
	t := int64(c.Load(q.t)) - 1
	c.Store(q.t, uint64(t))
	c.Fence()
	h := int64(c.Load(q.h))
	if t > h {
		return c.Load(q.slot(t)), core.OK
	}
	if t < h {
		c.Store(q.t, uint64(h))
		return 0, core.Empty
	}
	c.Store(q.t, uint64(h+1))
	if _, ok := c.CAS(q.h, uint64(h), uint64(h+1)); !ok {
		return 0, core.Empty
	}
	return c.Load(q.slot(t)), core.OK
}

func (q *brokenCL) Steal(c tso.Context) (uint64, core.Status) {
	for {
		h := int64(c.Load(q.h))
		t := int64(c.Load(q.t))
		if h >= t {
			return 0, core.Empty
		}
		task := c.Load(q.slot(h))
		adv := int64(1)
		if t-h >= 2 {
			adv = 2 // the planted bug: claim two, deliver one
		}
		if _, ok := c.CAS(q.h, uint64(h), uint64(h+adv)); !ok {
			continue
		}
		return task, core.OK
	}
}

func (q *brokenCL) Prefill(p core.Poker, vals []uint64) {
	for i, v := range vals {
		p.Poke(q.slot(int64(i)), v)
	}
	p.Poke(q.h, 0)
	p.Poke(q.t, uint64(len(vals)))
}

// brokenScenario drains two prefilled tasks through the mutant with one
// racing thief: the thief sees both, claims both, delivers one. The thief
// is thread 0 so the planted bug sits on an early DFS path and the
// counterexample search stays cheap.
func brokenScenario() oracle.Scenario {
	return oracle.Scenario{
		Name:   "broken-CL mutant",
		Config: tso.Config{Threads: 2, BufferSize: 2},
		Build: func(m *tso.Machine, h *oracle.History) []func(tso.Context) {
			q := oracle.Instrument(newBrokenCL(m, 8), h)
			q.Prefill(m, []uint64{1, 2})
			h.ExpectDrained()
			worker := func(c tso.Context) {
				for {
					if _, st := q.Take(c); st == core.Empty {
						break
					}
				}
			}
			thief := func(c tso.Context) {
				if _, st := q.Steal(c); st == core.Empty {
					return
				}
			}
			return []func(tso.Context){thief, worker}
		},
	}
}

// TestOracleCatchesBrokenDeque is the oracle's mutation self-test: the
// planted double-advance bug must surface as a lost-task verdict within a
// bounded exhaustive exploration, with a replayable counterexample.
func TestOracleCatchesBrokenDeque(t *testing.T) {
	sc := brokenScenario()
	rep := oracle.Run(sc, oracle.RunOptions{Spec: oracle.Precise{}, Prune: true, Counterexample: true})
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating == 0 {
		t.Fatalf("oracle missed the planted task drop: %v", rep.Outcomes)
	}
	lost := false
	for o := range rep.Outcomes {
		if strings.Contains(o, "lost") {
			lost = true
		}
	}
	if !lost {
		t.Fatalf("violations found but none lost: %v", rep.Outcomes)
	}
	ce := rep.Counterexample
	if ce == nil {
		t.Fatal("no counterexample extracted")
	}
	viols, _, err := oracle.Replay(sc, oracle.Precise{}, ce.Choices)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if got := oracle.RenderVerdict(viols); got != ce.Outcome {
		t.Fatalf("replay verdict %q != counterexample %q", got, ce.Outcome)
	}
}

// TestOracleAcceptsFixedDeque is the mutation test's control: the same
// drain duel over the real Chase-Lev queue stays clean, so the mutant's
// verdicts are attributable to the planted bug alone.
func TestOracleAcceptsFixedDeque(t *testing.T) {
	p := oracle.Program{Algo: core.AlgoChaseLev, S: 2, Prefill: 2, Thieves: []int{1}, Drain: true}
	rep := oracle.Run(p.Scenario(), oracle.RunOptions{Spec: oracle.Precise{}, Prune: true, Counterexample: true})
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating != 0 {
		t.Fatalf("fixed deque flagged: %v (counterexample: %+v)", rep.Outcomes, rep.Counterexample)
	}
}
