package tso

import "testing"

// The SMT tests run with the timed self-check on (SetTimedCheck): issue
// moves the core clock a thread shares with its sibling, which must not
// change the sibling's scheduling key.

func TestSMTNeedsEvenThreads(t *testing.T) {
	if _, err := (Config{Threads: 3, BufferSize: 2, SMT: true}).withDefaults(); err == nil {
		t.Fatal("odd SMT thread count accepted")
	}
}

func TestSMTSerializesIssueOnOneCore(t *testing.T) {
	defer SetTimedCheck(SetTimedCheck(true))
	// Two hyperthreads each doing 100 cycles of pure work share one core:
	// makespan ~200 instead of ~100.
	m := NewTimedMachine(Config{Threads: 2, BufferSize: 4, SMT: true, Cost: testCost})
	err := m.Run(
		func(c Context) { c.Work(100) },
		func(c Context) { c.Work(100) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 200 {
		t.Fatalf("elapsed=%d want 200 (issue serialized)", got)
	}
	// Without SMT the same program takes 100.
	m2 := NewTimedMachine(Config{Threads: 2, BufferSize: 4, Cost: testCost})
	if err := m2.Run(func(c Context) { c.Work(100) }, func(c Context) { c.Work(100) }); err != nil {
		t.Fatal(err)
	}
	if got := m2.Elapsed(); got != 100 {
		t.Fatalf("non-SMT elapsed=%d want 100", got)
	}
}

func TestSMTDistinctCoresDoNotShare(t *testing.T) {
	defer SetTimedCheck(SetTimedCheck(true))
	m := NewTimedMachine(Config{Threads: 4, BufferSize: 4, SMT: true, Cost: testCost})
	err := m.Run(
		func(c Context) { c.Work(100) },
		func(c Context) {}, // idle sibling of 0
		func(c Context) { c.Work(100) },
		func(c Context) {}, // idle sibling of 2
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 100 {
		t.Fatalf("elapsed=%d want 100 (separate cores run in parallel)", got)
	}
}

// TestSMTHidesFenceStall is §8.1's mechanism: a fence's drain wait
// consumes no core issue, so the sibling runs during it — the pair
// finishes sooner than the sum of their serialized work.
func TestSMTHidesFenceStall(t *testing.T) {
	defer SetTimedCheck(SetTimedCheck(true))
	// Thread 0: store (drains at 10) then fence (waits ~9 cycles, then 2
	// issue cycles). Thread 1: 9 cycles of work, which fit entirely into
	// the stall window.
	m := NewTimedMachine(Config{Threads: 2, BufferSize: 4, SMT: true, Cost: testCost})
	x := m.Alloc(1)
	err := m.Run(
		func(c Context) {
			c.Store(x, 1) // issue 1 cycle; drains at 10
			c.Fence()     // stall to t=10, then 2 issue cycles
		},
		func(c Context) {
			c.Work(9)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Serialized issue would be 1+2+9 = 12 ending at >= 12; with the
	// stall overlapped, thread 1's work (9 cycles) fits inside thread 0's
	// wait-to-10, and the fence issues right after: makespan 12 at most,
	// but critically thread 1 finished by 10, not 12+.
	if got := m.Elapsed(); got > 13 {
		t.Fatalf("elapsed=%d: fence stall not overlapped with sibling work", got)
	}
	if m.ThreadCycles(1) > 10 {
		t.Fatalf("sibling finished at %d; should fit within the stall window", m.ThreadCycles(1))
	}
}

// TestSMTFenceBenefitShrinks reproduces the §8.1 headline at
// microbenchmark scale: the relative gain from removing a fence is
// smaller with a busy hyperthread sibling than without one.
func TestSMTFenceBenefitShrinks(t *testing.T) {
	defer SetTimedCheck(SetTimedCheck(true))
	run := func(smt, fenced bool) uint64 {
		threads := 2
		m := NewTimedMachine(Config{Threads: threads, BufferSize: 8, SMT: smt, Cost: testCost})
		x := m.Alloc(1)
		worker := func(c Context) {
			for i := 0; i < 50; i++ {
				c.Store(x, uint64(i))
				if fenced {
					c.Fence()
				}
				c.Work(5)
			}
		}
		sibling := func(c Context) {
			for i := 0; i < 50; i++ {
				c.Work(6)
			}
		}
		if err := m.Run(worker, sibling); err != nil {
			t.Fatal(err)
		}
		return m.ThreadCycles(0)
	}
	gain := func(smt bool) float64 {
		fenced := run(smt, true)
		free := run(smt, false)
		return float64(fenced-free) / float64(fenced)
	}
	alone, shared := gain(false), gain(true)
	if shared >= alone {
		t.Fatalf("fence-removal gain with SMT (%.3f) not smaller than without (%.3f)", shared, alone)
	}
}
