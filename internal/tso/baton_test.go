package tso

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// This file tests the scheduling loop's ownership rules: policy code
// (choose, onExec, DPOR's footprint bookkeeping, the buffer invariants)
// may run on whichever goroutine holds the scheduler, so a panic raised
// there must still reach the Run/Explore caller as itself, never as a
// simulated thread's ProgramPanic.

// TestEnginePanicNotAttributedToThread makes DPOR's address-table check
// fire mid-run: thread 0 loads a word past everything the factory
// allocated, after its first store has been scheduled. The exploration
// must panic with DPOR's own message, not with a "litmus program failed"
// wrapper around a thread panic.
func TestEnginePanicNotAttributedToThread(t *testing.T) {
	const want = "tso: DPOR saw an address allocated after the run started; allocate all addresses in the program factory"
	mk := func(m *Machine) []func(Context) {
		x := m.Alloc(1)
		return []func(Context){
			func(c Context) { c.Store(x, 1); c.Load(x + 1) },
			func(c Context) { c.Load(x) },
		}
	}
	out := func(*Machine) string { return "" }
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			defer func() {
				if v := recover(); v != want {
					t.Fatalf("panic = %v, want %q", v, want)
				}
			}()
			ExploreExhaustive(Config{Threads: 2, BufferSize: 2}, mk, out,
				ExhaustiveOptions{DPOR: true, Parallel: par})
		})
	}
}

// TestEndPathsOnWorkerGoroutine drives every way a run can end, with the
// ending decision taken in a turn held by a worker goroutine rather than
// by Run: each program first executes a few operations, so the first
// turn (Run's own) has long passed the baton on. Every case asserts the
// run's result, then that the machine is reusable (Reset+Run), then that
// Close leaves no worker goroutine behind.
//
// Three cells cannot end the way their row says, and the table pins what
// happens instead: the timed policy is unbounded, so MaxSteps does not
// stop it, and only the chooser policy can cut a run, so chaos and timed
// run the cut row's program to completion.
func TestEndPathsOnWorkerGoroutine(t *testing.T) {
	const boomVal = "boom"
	loads := func(x Addr, n int) func(Context) {
		return func(c Context) {
			for i := 0; i < n; i++ {
				c.Load(x)
			}
		}
	}
	type progsFn func(x Addr) []func(Context)
	done := func(x Addr) []func(Context) {
		inc := func(c Context) {
			for i := 0; i < 3; i++ {
				for {
					old := c.Load(x)
					if _, ok := c.CAS(x, old, old+1); ok {
						break
					}
				}
			}
		}
		return []func(Context){inc, inc}
	}
	panicking := func(x Addr) []func(Context) {
		boom := func(c Context) {
			c.Store(x, 1)
			c.Load(x)
			c.Load(x)
			panic(boomVal)
		}
		return []func(Context){boom, loads(x, 1<<62)}
	}
	forever := func(x Addr) []func(Context) {
		return []func(Context){loads(x, 1<<62), loads(x, 1<<62)}
	}
	bounded := func(x Addr) []func(Context) {
		return []func(Context){loads(x, 100), loads(x, 100)}
	}

	const maxSteps = 50
	cfg := Config{Threads: 2, BufferSize: 2, Seed: 5, DrainBias: 0.3, MaxSteps: maxSteps}
	// newChooser installs a round-robin chooser that cuts the run at its
	// cutAt-th decision (never when cutAt is 0).
	newChooser := func(cutAt int) func() *Machine {
		return func() *Machine {
			m := NewMachine(cfg)
			p := &chooserPolicy{}
			calls := 0
			p.choose = func(acts []action) int {
				calls++
				if calls == cutAt {
					p.cancel = true
				}
				return calls % len(acts)
			}
			m.pol = p
			return m
		}
	}
	chaos := func() *Machine { return NewMachine(cfg) }
	timed := func() *Machine { return &NewTimedMachine(cfg).Machine }

	wantPanic := func(t *testing.T, m *Machine, err error) {
		var pp *ProgramPanic
		if !errors.As(err, &pp) || pp.Thread != 0 || pp.Value != boomVal {
			t.Fatalf("Run = %v, want ProgramPanic{Thread: 0, Value: boom}", err)
		}
	}
	wantStepLimit := func(t *testing.T, m *Machine, err error) {
		if !errors.Is(err, ErrStepLimit) || m.Stats().Steps != maxSteps {
			t.Fatalf("Run = %v after %d steps, want ErrStepLimit after %d", err, m.Stats().Steps, maxSteps)
		}
	}
	wantUnbounded := func(t *testing.T, m *Machine, err error) {
		if err != nil || m.Stats().Loads != 200 {
			t.Fatalf("Run = %v with %d loads, want nil with 200 (MaxSteps does not bind)", err, m.Stats().Loads)
		}
	}
	wantCut := func(t *testing.T, m *Machine, err error) {
		if !errors.Is(err, errRunCut) || m.Stats().Steps != 10 {
			t.Fatalf("Run = %v after %d steps, want errRunCut after 10", err, m.Stats().Steps)
		}
	}
	wantDone := func(t *testing.T, m *Machine, err error) {
		if err != nil {
			t.Fatalf("Run = %v, want nil", err)
		}
		if got := m.Peek(0); got != 6 {
			t.Fatalf("counter = %d after 6 atomic increments, want 6", got)
		}
	}

	cases := []struct {
		name  string
		mk    func() *Machine
		progs progsFn
		check func(*testing.T, *Machine, error)
	}{
		{"done/chaos", chaos, done, wantDone},
		{"done/chooser", newChooser(0), done, wantDone},
		{"done/timed", timed, done, wantDone},
		{"panic/chaos", chaos, panicking, wantPanic},
		{"panic/chooser", newChooser(0), panicking, wantPanic},
		{"panic/timed", timed, panicking, wantPanic},
		{"steplimit/chaos", chaos, forever, wantStepLimit},
		{"steplimit/chooser", newChooser(0), forever, wantStepLimit},
		{"steplimit/timed", timed, bounded, wantUnbounded},
		{"cut/chaos", chaos, done, wantDone},
		{"cut/chooser", newChooser(10), forever, wantCut},
		{"cut/timed", timed, done, wantDone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			m := tc.mk()
			x := m.Alloc(1)
			tc.check(t, m, m.Run(tc.progs(x)...))
			// Reuse: the same machine must run a fresh program to
			// completion, twice, after whatever teardown preceded.
			for i := 0; i < 2; i++ {
				m.Reset()
				if p, ok := m.pol.(*chooserPolicy); ok {
					p.choose = func(acts []action) int { return len(acts) - 1 }
				}
				x = m.Alloc(1)
				wantDone(t, m, m.Run(done(x)...))
			}
			m.Close()
			waitForGoroutines(t, baseline+2, 5*time.Second)
		})
	}
}

// TestChooserPanicTearsDown pins the engine-panic end path at the machine
// level: a chooser that panics mid-run makes Run panic with the chooser's
// own value after every thread has unwound, and the machine stays
// reusable.
func TestChooserPanicTearsDown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := NewMachine(Config{Threads: 2, BufferSize: 2})
	p := &chooserPolicy{}
	calls := 0
	p.choose = func(acts []action) int {
		if calls++; calls == 5 {
			panic("chooser bug")
		}
		return calls % len(acts)
	}
	m.pol = p
	x := m.Alloc(1)
	func() {
		defer func() {
			if v := recover(); v != "chooser bug" {
				t.Fatalf("Run panicked with %v, want \"chooser bug\"", v)
			}
		}()
		m.Run(func(c Context) {
			for {
				c.Store(x, c.Load(x)+1)
			}
		}, func(c Context) {
			for {
				c.Load(x)
			}
		})
		t.Fatal("Run returned; want a panic")
	}()
	p.choose = func(acts []action) int { return 0 }
	m.Reset()
	x = m.Alloc(1)
	if err := m.Run(func(c Context) { c.Store(x, 7) }, func(c Context) { c.Load(x) }); err != nil {
		t.Fatalf("Run after engine panic: %v", err)
	}
	if got := m.Peek(x); got != 7 {
		t.Fatalf("x = %d, want 7", got)
	}
	m.Close()
	waitForGoroutines(t, baseline+2, 5*time.Second)
}

// TestHostCodeOneThreadAtATime pins that the baton is the machine's only
// transport, start-up and teardown included: the host code a thread runs
// before its first operation, and the deferred host code it runs while a
// teardown unwinds it, never overlap another thread's. Each half
// increments a plain shared counter, so the race detector reports any
// overlap, and the totals check that every thread started and unwound
// exactly once. Chaos and chooser runs end at the step limit; the timed
// policy is unbounded, so its runs end in a program panic instead.
func TestHostCodeOneThreadAtATime(t *testing.T) {
	const boomVal = "boom"
	chooser := func(cfg Config) *Machine {
		m := NewMachine(cfg)
		p := &chooserPolicy{}
		calls := 0
		p.choose = func(acts []action) int {
			calls++
			return calls % len(acts)
		}
		m.pol = p
		return m
	}
	chaos := func(cfg Config) *Machine { return NewMachine(cfg) }
	timed := func(cfg Config) *Machine { return &NewTimedMachine(cfg).Machine }
	for _, n := range []int{2, 4} {
		for _, tc := range []struct {
			name  string
			mk    func(Config) *Machine
			panic bool
		}{
			{"chaos", chaos, false},
			{"chooser", chooser, false},
			{"timed", timed, true},
		} {
			t.Run(fmt.Sprintf("%s/threads=%d", tc.name, n), func(t *testing.T) {
				m := tc.mk(Config{Threads: n, BufferSize: 2, Seed: 3, DrainBias: 0.3, MaxSteps: 40})
				defer m.Close()
				x := m.Alloc(1)
				var started, unwound int
				progs := make([]func(Context), n)
				for i := range progs {
					progs[i] = func(c Context) {
						started++
						defer func() { unwound++ }()
						for j := 0; ; j++ {
							if tc.panic && i == 0 && j == 10 {
								panic(boomVal)
							}
							c.Store(x, uint64(j))
							c.Load(x)
						}
					}
				}
				err := m.Run(progs...)
				if tc.panic {
					var pp *ProgramPanic
					if !errors.As(err, &pp) || pp.Thread != 0 || pp.Value != boomVal {
						t.Fatalf("Run = %v, want ProgramPanic{Thread: 0, Value: boom}", err)
					}
				} else if !errors.Is(err, ErrStepLimit) {
					t.Fatalf("Run = %v, want ErrStepLimit", err)
				}
				if started != n || unwound != n {
					t.Fatalf("%d threads started and %d unwound, want %d each", started, unwound, n)
				}
			})
		}
	}
}

// TestPanicAttributionDeterministic pins Run's attribution rule: threads
// start one at a time in tid order, so when every thread panics before
// its first operation the error always names thread 0.
func TestPanicAttributionDeterministic(t *testing.T) {
	const threads = 4
	m := NewMachine(Config{Threads: threads, BufferSize: 2})
	defer m.Close()
	progs := make([]func(Context), threads)
	for i := range progs {
		progs[i] = func(Context) { panic(i) }
	}
	for r := 0; r < 2000; r++ {
		var pp *ProgramPanic
		if err := m.Run(progs...); !errors.As(err, &pp) || pp.Thread != 0 || pp.Value != 0 {
			t.Fatalf("run %d: Run = %v, want ProgramPanic{Thread: 0, Value: 0}", r, err)
		}
	}
}
