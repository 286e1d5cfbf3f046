package tso

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// testCost is a round-number model so expected clocks can be computed by
// hand in the tests below.
// The throughput equals the latency here, so drains chain serially at 10
// cycles apart (10/20/30...) and expected clocks stay easy to compute.
var testCost = CostModel{
	LoadCycles:            1,
	StoreCycles:           1,
	DrainCycles:           10,
	DrainThroughputCycles: 10,
	FenceCycles:           2,
	CASCycles:             5,
}

func TestTimedDrainsArePipelined(t *testing.T) {
	// Latency 10, throughput 2: a burst of 4 stores at t≈0 becomes fully
	// visible by ~10+3×2, so a fence costs far less than 4×10.
	cost := CostModel{LoadCycles: 1, StoreCycles: 1, DrainCycles: 10, DrainThroughputCycles: 2, FenceCycles: 2}
	m := NewTimedMachine(Config{Threads: 1, BufferSize: 8, Cost: cost})
	x := m.Alloc(4)
	err := m.Run(func(c Context) {
		c.Store(x, 1)   // @0 -> done 10
		c.Store(x+1, 2) // @1 -> done max(11,12)=12
		c.Store(x+2, 3) // @2 -> done 14
		c.Store(x+3, 4) // @3 -> done 16
		c.Fence()       // wait to 16, +2
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 18 {
		t.Fatalf("elapsed=%d want 18 (pipelined drain tail)", got)
	}
}

func newTimed(threads, bufSize int) *TimedMachine {
	return NewTimedMachine(Config{Threads: threads, BufferSize: bufSize, Cost: testCost})
}

func TestTimedStoreFenceCost(t *testing.T) {
	m := newTimed(1, 8)
	x := m.Alloc(4)
	err := m.Run(func(c Context) {
		// Stores at clocks 0,1,2 with drain completions 10,20,30 (serial
		// drains); the fence waits for the last drain then costs 2.
		c.Store(x, 1)
		c.Store(x+1, 2)
		c.Store(x+2, 3)
		c.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 32 {
		t.Fatalf("elapsed=%d want 32 (3 stores, serial drains 10/20/30, fence +2)", got)
	}
}

func TestTimedWorkHidesDrainLatency(t *testing.T) {
	m := newTimed(1, 8)
	x := m.Alloc(1)
	err := m.Run(func(c Context) {
		c.Store(x, 1) // issued at 0, drains at 10
		c.Work(50)    // clock 51; drain long done
		c.Fence()     // no wait, +2
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 53 {
		t.Fatalf("elapsed=%d want 53 (drain hidden under Work)", got)
	}
}

func TestTimedBufferFullStall(t *testing.T) {
	m := newTimed(1, 2)
	x := m.Alloc(4)
	err := m.Run(func(c Context) {
		c.Store(x, 1)   // @0, drains at 10
		c.Store(x+1, 2) // @1, drains at 20
		c.Store(x+2, 3) // buffer full: stall until 10, issue, drains at 30
	})
	if err != nil {
		t.Fatal(err)
	}
	// Third store stalls to clock 10, then costs 1 -> 11.
	if got := m.Elapsed(); got != 11 {
		t.Fatalf("elapsed=%d want 11 (pipeline-entry stall at full buffer)", got)
	}
}

func TestTimedNoStallBelowCapacity(t *testing.T) {
	m := newTimed(1, 3)
	x := m.Alloc(4)
	err := m.Run(func(c Context) {
		c.Store(x, 1)
		c.Store(x+1, 2)
		c.Store(x+2, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 3 {
		t.Fatalf("elapsed=%d want 3 (stores fit in buffer, no stalls)", got)
	}
}

func TestTimedDrainStageAddsCapacity(t *testing.T) {
	m := NewTimedMachine(Config{Threads: 1, BufferSize: 2, DrainBuffer: true, Cost: testCost})
	x := m.Alloc(4)
	err := m.Run(func(c Context) {
		c.Store(x, 1)
		c.Store(x+1, 2)
		c.Store(x+2, 3) // fits: observable capacity is S+1 = 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 3 {
		t.Fatalf("elapsed=%d want 3 (stage B acts as an extra entry)", got)
	}
}

func TestTimedVisibilityAtDrainTime(t *testing.T) {
	m := newTimed(2, 8)
	x := m.Alloc(1)
	var early, late uint64
	err := m.Run(
		func(c Context) {
			c.Store(x, 1) // drains at virtual time 10
			c.Work(100)
		},
		func(c Context) {
			c.Work(5)
			early = c.Load(x) // at ~5: store not yet drained
			c.Work(20)
			late = c.Load(x) // at ~26: drained
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if early != 0 {
		t.Fatalf("early load=%d want 0 (store still buffered at t=5)", early)
	}
	if late != 1 {
		t.Fatalf("late load=%d want 1 (store drained by t=26)", late)
	}
}

func TestTimedReadOwnWrite(t *testing.T) {
	m := newTimed(1, 8)
	x := m.Alloc(1)
	var got uint64
	err := m.Run(func(c Context) {
		c.Store(x, 9)
		got = c.Load(x)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("read-own-write=%d want 9", got)
	}
}

func TestTimedCAS(t *testing.T) {
	m := newTimed(1, 8)
	x := m.Alloc(1)
	var v1 uint64
	var ok1, ok2 bool
	err := m.Run(func(c Context) {
		_, ok1 = c.CAS(x, 0, 5)
		v1, ok2 = c.CAS(x, 0, 6)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok1 || ok2 || v1 != 5 {
		t.Fatalf("CAS results ok1=%v ok2=%v v1=%d want true,false,5", ok1, ok2, v1)
	}
	if got := m.Peek(x); got != 5 {
		t.Fatalf("mem=%d want 5", got)
	}
	if got := m.Elapsed(); got != 10 {
		t.Fatalf("elapsed=%d want 10 (two CASes at 5 cycles)", got)
	}
}

func TestTimedCASWaitsForOwnDrains(t *testing.T) {
	m := newTimed(1, 8)
	x := m.Alloc(2)
	err := m.Run(func(c Context) {
		c.Store(x, 1)    // drains at 10
		c.CAS(x+1, 0, 1) // waits to 10, +5
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 15 {
		t.Fatalf("elapsed=%d want 15 (CAS drains the buffer first)", got)
	}
}

func TestTimedDeterministic(t *testing.T) {
	run := func() uint64 {
		m := newTimed(3, 4)
		x := m.Alloc(1)
		prog := func(c Context) {
			for i := 0; i < 50; i++ {
				old := c.Load(x)
				c.CAS(x, old, old+1)
				c.Work(3)
			}
		}
		if err := m.Run(prog, prog, prog); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("timed engine nondeterministic: %d vs %d", a, b)
	}
}

func TestTimedElapsedIsMaxThreadClock(t *testing.T) {
	m := newTimed(2, 4)
	err := m.Run(
		func(c Context) { c.Work(100) },
		func(c Context) { c.Work(700) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 700 {
		t.Fatalf("elapsed=%d want 700", got)
	}
	if m.ThreadCycles(0) != 100 || m.ThreadCycles(1) != 700 {
		t.Fatalf("thread cycles %d,%d want 100,700", m.ThreadCycles(0), m.ThreadCycles(1))
	}
}

func TestTimedFenceCostScalesWithBufferDepth(t *testing.T) {
	// The crux of Figure 1: a fence issued right after k stores costs about
	// k×DrainCycles. Deeper buffers at fence time must cost more.
	elapsedWith := func(stores int) uint64 {
		m := newTimed(1, 64)
		x := m.Alloc(64)
		if err := m.Run(func(c Context) {
			for i := 0; i < stores; i++ {
				c.Store(x+Addr(i), 1)
			}
			c.Fence()
		}); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}
	e1, e4 := elapsedWith(1), elapsedWith(4)
	if e4 <= e1 {
		t.Fatalf("fence after 4 stores (%d) not costlier than after 1 (%d)", e4, e1)
	}
	if want := uint64(42); e4 != want { // 4 stores + wait to 40 + 2
		t.Fatalf("elapsed=%d want %d", e4, want)
	}
}

func TestTimedProgramPanic(t *testing.T) {
	m := newTimed(2, 4)
	x := m.Alloc(1)
	err := m.Run(
		func(c Context) { panic("timed boom") },
		func(c Context) {
			for i := 0; i < 10; i++ {
				c.Load(x)
			}
		},
	)
	var pp *ProgramPanic
	if !errors.As(err, &pp) {
		t.Fatalf("err=%v want *ProgramPanic", err)
	}
}

func TestTimedRunArityMismatch(t *testing.T) {
	m := newTimed(2, 4)
	if err := m.Run(func(Context) {}); err == nil {
		t.Fatal("Run with wrong program count succeeded")
	}
}

func TestTimedMemoryFlushedAfterRun(t *testing.T) {
	m := newTimed(1, 8)
	x := m.Alloc(1)
	if err := m.Run(func(c Context) { c.Store(x, 3) }); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(x); got != 3 {
		t.Fatalf("mem=%d want 3 (end-of-run flush)", got)
	}
}

func TestTimedZeroWorkIsFree(t *testing.T) {
	m := newTimed(1, 4)
	if err := m.Run(func(c Context) { c.Work(0) }); err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 0 {
		t.Fatalf("elapsed=%d want 0", got)
	}
}

// TestTimedCheckCatchesStaleState proves the self-check compares: a
// thread key or a buffer head corrupted from inside a simulated thread
// (one thread runs at a time, so the write is race-free) must make the
// checked Run panic at the next step or drain check.
func TestTimedCheckCatchesStaleState(t *testing.T) {
	defer SetTimedCheck(SetTimedCheck(true))
	cases := []struct {
		name, want string
		corrupt    func(p *timedPolicy)
	}{
		// Thread 1 has worked to cycle 100; keying it at 0 makes next
		// pick it over thread 0, whose clock is lower.
		{"stale key", "next picked", func(p *timedPolicy) { p.keys[1] = p.key(0, 1) }},
		// Thread 1's store drains at cycle 10; hiding it would make
		// the drain check at thread 0's later operations skip a due
		// drain.
		{"stale head", "buffer 1 head", func(p *timedPolicy) { p.heads[1], p.earliest = idle, idle }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewTimedMachine(Config{Threads: 2, BufferSize: 4, Cost: testCost})
			defer m.Close()
			x := m.Alloc(1)
			defer func() {
				if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "timed check: "+c.want) {
					t.Fatalf("Run panicked with %v, want a timed check failure: %s", v, c.want)
				}
			}()
			_ = m.Run(
				func(ctx Context) {
					for i := 0; i < 3; i++ {
						ctx.Load(x) // thread 1 stores and starts its work meanwhile
					}
					c.corrupt(m.tp)
					ctx.Work(20)
					ctx.Load(x)
				},
				func(ctx Context) {
					ctx.Store(x, 1)
					ctx.Work(100)
					ctx.Load(x)
				},
			)
		})
	}
}
