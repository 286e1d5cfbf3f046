package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// This file is the Multiplicity spec's mutation self-test, mirroring
// broken_test.go: two deliberately sabotaged WS-MULT variants whose
// planted bugs must surface as the spec's two failure classes — "lost"
// for a dropped publish store and "dup>k" for a dropped head advance.
// If the Multiplicity checker ever stops flagging either mutant, the
// checker is broken, not the queues.

// brokenWSMultLossy is WS-MULT with Put's tail store dropped. In this
// family the tail advance IS the task's announcement to extractors —
// without it the task sits initialized but invisible below an
// unmoving tail, and a drained run must report it lost.
type brokenWSMultLossy struct {
	head, tail, tasks, ann tso.Addr
	w                      int64
	nann                   int
}

func newBrokenWSMultLossy(a tso.Allocator, capacity, nann int) *brokenWSMultLossy {
	return &brokenWSMultLossy{
		head: a.Alloc(1), tail: a.Alloc(1), tasks: a.Alloc(capacity),
		ann: a.Alloc(nann), w: int64(capacity), nann: nann,
	}
}

func (q *brokenWSMultLossy) slot(i int64) tso.Addr {
	i %= q.w
	if i < 0 {
		i += q.w
	}
	return q.tasks + tso.Addr(i)
}

func (q *brokenWSMultLossy) Name() string { return "broken-WS-MULT-lossy" }

func (q *brokenWSMultLossy) Put(c tso.Context, v uint64) {
	t := int64(c.Load(q.tail))
	c.Store(q.slot(t), v)
	// the planted bug: the publishing store c.Store(q.tail, t+1) is gone
}

func (q *brokenWSMultLossy) extract(c tso.Context) (uint64, core.Status) {
	h := int64(c.Load(q.head))
	for i := 0; i < q.nann; i++ {
		if a := int64(c.Load(q.ann + tso.Addr(i))); a > h {
			h = a
		}
	}
	t := int64(c.Load(q.tail))
	if h >= t {
		return 0, core.Empty
	}
	c.Store(q.ann+tso.Addr(c.ThreadID()), uint64(h+1))
	v := c.Load(q.slot(h))
	c.Store(q.head, uint64(h+1))
	return v, core.OK
}

func (q *brokenWSMultLossy) Take(c tso.Context) (uint64, core.Status)  { return q.extract(c) }
func (q *brokenWSMultLossy) Steal(c tso.Context) (uint64, core.Status) { return q.extract(c) }

func (q *brokenWSMultLossy) Prefill(p core.Poker, vals []uint64) {
	for i, v := range vals {
		p.Poke(q.slot(int64(i)), v)
	}
	p.Poke(q.head, 0)
	p.Poke(q.tail, uint64(len(vals)))
}

// brokenWSMultStuck is WS-MULT-R with extract's head store dropped:
// nothing ever advances the head, so every extraction redelivers the
// task at the initial index and duplication is unbounded — the
// Multiplicity budget must be exceeded on every schedule.
type brokenWSMultStuck struct {
	head, tail, tasks tso.Addr
	w                 int64
}

func newBrokenWSMultStuck(a tso.Allocator, capacity int) *brokenWSMultStuck {
	return &brokenWSMultStuck{head: a.Alloc(1), tail: a.Alloc(1), tasks: a.Alloc(capacity), w: int64(capacity)}
}

func (q *brokenWSMultStuck) slot(i int64) tso.Addr {
	i %= q.w
	if i < 0 {
		i += q.w
	}
	return q.tasks + tso.Addr(i)
}

func (q *brokenWSMultStuck) Name() string { return "broken-WS-MULT-stuck" }

func (q *brokenWSMultStuck) Put(c tso.Context, v uint64) {
	t := int64(c.Load(q.tail))
	c.Store(q.slot(t), v)
	c.Store(q.tail, uint64(t+1))
}

func (q *brokenWSMultStuck) extract(c tso.Context) (uint64, core.Status) {
	h := int64(c.Load(q.head))
	t := int64(c.Load(q.tail))
	if h >= t {
		return 0, core.Empty
	}
	v := c.Load(q.slot(h))
	// the planted bug: the claiming store c.Store(q.head, h+1) is gone
	return v, core.OK
}

func (q *brokenWSMultStuck) Take(c tso.Context) (uint64, core.Status)  { return q.extract(c) }
func (q *brokenWSMultStuck) Steal(c tso.Context) (uint64, core.Status) { return q.extract(c) }

func (q *brokenWSMultStuck) Prefill(p core.Poker, vals []uint64) {
	for i, v := range vals {
		p.Poke(q.slot(int64(i)), v)
	}
	p.Poke(q.head, 0)
	p.Poke(q.tail, uint64(len(vals)))
}

// lossyScenario puts one task through the lossy mutant over a one-task
// prefill and drains, with a single racing steal attempt. The thief is
// thread 0 so the planted bug sits on an early DFS path.
func lossyScenario() oracle.Scenario {
	return oracle.Scenario{
		Name:   "broken-WS-MULT lossy mutant",
		Config: tso.Config{Threads: 2, BufferSize: 2},
		Build: func(m *tso.Machine, h *oracle.History) []func(tso.Context) {
			q := oracle.Instrument(newBrokenWSMultLossy(m, 8, 2), h)
			q.Prefill(m, []uint64{1})
			h.ExpectDrained()
			worker := func(c tso.Context) {
				q.Put(c, 2)
				for {
					if _, st := q.Take(c); st == core.Empty {
						break
					}
				}
			}
			thief := func(c tso.Context) {
				q.Steal(c)
			}
			return []func(tso.Context){thief, worker}
		},
	}
}

// stuckScenario runs fixed extraction budgets — two takes, two steals —
// over a two-task prefill with NO drain loop: the stuck head never
// reports Empty, so a drain would spin forever. Four extractions of the
// same index must breach the k=2 budget for task 1 on every schedule.
func stuckScenario() oracle.Scenario {
	return oracle.Scenario{
		Name:   "broken-WS-MULT stuck mutant",
		Config: tso.Config{Threads: 2, BufferSize: 2},
		Build: func(m *tso.Machine, h *oracle.History) []func(tso.Context) {
			q := oracle.Instrument(newBrokenWSMultStuck(m, 8), h)
			q.Prefill(m, []uint64{1, 2})
			worker := func(c tso.Context) {
				q.Take(c)
				q.Take(c)
			}
			thief := func(c tso.Context) {
				q.Steal(c)
				q.Steal(c)
			}
			return []func(tso.Context){thief, worker}
		},
	}
}

// runMutant explores the scenario exhaustively under spec and asserts a
// violation whose verdict contains marker, then replays the extracted
// counterexample.
func runMutant(t *testing.T, sc oracle.Scenario, spec oracle.Spec, marker string) {
	t.Helper()
	rep := oracle.Run(sc, oracle.RunOptions{Spec: spec, Prune: true, Counterexample: true})
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating == 0 {
		t.Fatalf("%s missed the planted bug: %v", spec.Name(), rep.Outcomes)
	}
	found := false
	for o := range rep.Outcomes {
		if strings.Contains(o, marker) {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations found but none %q: %v", marker, rep.Outcomes)
	}
	ce := rep.Counterexample
	if ce == nil {
		t.Fatal("no counterexample extracted")
	}
	viols, _, err := oracle.Replay(sc, spec, ce.Choices)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if got := oracle.RenderVerdict(viols); got != ce.Outcome {
		t.Fatalf("replay verdict %q != counterexample %q", got, ce.Outcome)
	}
}

// TestMultiplicityCatchesLostPublish: dropping Put's tail store must
// surface as a lost-task verdict under the Multiplicity spec.
func TestMultiplicityCatchesLostPublish(t *testing.T) {
	runMutant(t, lossyScenario(), oracle.Multiplicity{K: 2}, "lost")
}

// TestMultiplicityCatchesUnboundedDuplication: dropping extract's head
// store must surface as a dup-budget verdict under the Multiplicity
// spec.
func TestMultiplicityCatchesUnboundedDuplication(t *testing.T) {
	runMutant(t, stuckScenario(), oracle.Multiplicity{K: 2}, "dup>2")
}

// TestMultiplicityAcceptsRealWSMult is the lossy mutation test's
// control: the same put-and-drain duel over the real WS-MULT stays
// clean under the same spec, so the lost verdicts are attributable to
// the dropped publish store alone.
func TestMultiplicityAcceptsRealWSMult(t *testing.T) {
	p := oracle.Program{Algo: core.AlgoWSMult, S: 2, Delta: 1, Prefill: 1, WorkerOps: "P", Thieves: []int{1}, Drain: true}
	rep := oracle.Run(p.Scenario(), oracle.RunOptions{Spec: oracle.Multiplicity{K: 2}, Prune: true, SleepSets: true, Counterexample: true})
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating != 0 {
		t.Fatalf("real WS-MULT flagged: %v (counterexample: %+v)", rep.Outcomes, rep.Counterexample)
	}
}

// TestIdempotentAcceptsRealWSMultRelaxed is the stuck mutation test's
// control: the same fixed-budget extraction race over the real
// announce-free variant is clean under its own (at-least-once)
// contract — the real head advance keeps redelivery finite and the
// run loses nothing.
func TestIdempotentAcceptsRealWSMultRelaxed(t *testing.T) {
	p := oracle.Program{Algo: core.AlgoWSMultRelaxed, S: 2, Delta: 1, Prefill: 2, WorkerOps: "TT", Thieves: []int{2}}
	rep := oracle.Run(p.Scenario(), oracle.RunOptions{Spec: oracle.Idempotent{}, Prune: true, SleepSets: true, Counterexample: true})
	if !rep.Complete {
		t.Fatalf("exploration incomplete after %d executed schedules", rep.Executed)
	}
	if rep.Violating != 0 {
		t.Fatalf("real WS-MULT-R flagged: %v (counterexample: %+v)", rep.Outcomes, rep.Counterexample)
	}
}
