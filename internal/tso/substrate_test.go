package tso

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// This file tests the channel-free execution substrate: Machine.Reset
// equivalence against fresh machines, pooled-worker teardown under panics
// and step limits, the gate handoff primitive, and the zero-allocation
// guarantee of the steady-state operation path.

const fuzzWords = 8 // addresses a fuzz program touches

// farWords is the large region the reset fuzz reserves after a program's
// words: several pages, of which pokeFar writes only a few words far
// apart, so a reset must clear words on pages other than the first.
const farWords = 3*pageWords + 17

// pokeFar writes val+i to the i-th of a few far-apart words of the far
// region at base.
func pokeFar(m *Machine, base Addr, val uint64) {
	for i, off := range []Addr{0, pageWords + 1, 2*pageWords - 1, farWords - 1} {
		m.Poke(base+off, val+uint64(i))
	}
}

// fuzzProgs builds one deterministic pseudo-random program per thread:
// a mix of stores, loads, CAS, fences and Work driven by a thread-local
// RNG, folding every observed value into a signature that the thread
// stores at base+fuzzWords+tid so the run's observable behaviour ends up
// in memory.
func fuzzProgs(progSeed int64, threads int, base Addr) []func(Context) {
	progs := make([]func(Context), threads)
	for tid := 0; tid < threads; tid++ {
		tid := tid
		progs[tid] = func(c Context) {
			rng := rand.New(rand.NewSource(progSeed*31 + int64(tid)))
			sig := uint64(0)
			for i := 0; i < 200; i++ {
				a := base + Addr(rng.Intn(fuzzWords))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					c.Store(a, rng.Uint64()%97)
				case 4, 5, 6:
					sig = sig*1099511628211 + c.Load(a)
				case 7:
					v, ok := c.CAS(a, sig%97, rng.Uint64()%97)
					sig = sig*1099511628211 + v
					if ok {
						sig++
					}
				case 8:
					c.Fence()
				case 9:
					c.Work(uint64(rng.Intn(3)))
				}
			}
			c.Store(base+fuzzWords+Addr(tid), sig)
		}
	}
	return progs
}

// machineSnapshot captures everything a Run leaves behind: the memory
// image over the program's footprint, cumulative stats, and the metric
// series.
type machineSnapshot struct {
	mem   []uint64
	stats Stats
	met   *MachineMetrics
}

func snapshotOf(m *Machine, words int) machineSnapshot {
	s := machineSnapshot{stats: m.Stats(), met: m.Metrics()}
	for a := Addr(0); a < Addr(words); a++ {
		s.mem = append(s.mem, m.Peek(a))
	}
	return s
}

func (a machineSnapshot) diff(b machineSnapshot) string {
	if len(a.mem) != len(b.mem) {
		return fmt.Sprintf("memory images of %d and %d words", len(a.mem), len(b.mem))
	}
	for i := range a.mem {
		if a.mem[i] != b.mem[i] {
			return fmt.Sprintf("memory image differs first at word %d: %d vs %d", i, a.mem[i], b.mem[i])
		}
	}
	if a.stats != b.stats {
		return fmt.Sprintf("stats differ:\n  %+v\n  %+v", a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.met, b.met) {
		return fmt.Sprintf("metrics differ:\n  %+v\n  %+v", a.met, b.met)
	}
	return ""
}

// TestResetEquivalence fuzzes: run a dirtying program, Reset, run a
// reference program, and require the machine to be byte-for-byte
// indistinguishable from a fresh machine that only ran the reference
// program — memory, stats, and metrics.
func TestResetEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, drain := range []bool{false, true} {
			cfg := Config{
				Threads: 2 + int(seed%2), BufferSize: 3, Seed: seed,
				DrainBias: 0.3, DrainBuffer: drain, Metrics: true,
			}
			words := fuzzWords + cfg.Threads
			// The image spans the dirty run's far region too, which
			// ends past the measured run's.
			image := words + farWords + pageWords

			fresh := NewMachine(cfg)
			base := fresh.Alloc(words)
			pokeFar(fresh, fresh.Alloc(farWords), 100)
			if err := fresh.Run(fuzzProgs(seed, cfg.Threads, base)...); err != nil {
				t.Fatalf("seed %d: fresh run: %v", seed, err)
			}
			want := snapshotOf(fresh, image)
			fresh.Close()

			reused := NewMachine(cfg)
			dirtyBase := reused.Alloc(words + 5) // different layout on purpose
			pokeFar(reused, reused.Alloc(farWords+9), 1000)
			if err := reused.Run(fuzzProgs(seed+1000, cfg.Threads, dirtyBase)...); err != nil {
				t.Fatalf("seed %d: dirty run: %v", seed, err)
			}
			reused.Reset()
			if got := reused.Alloc(words); got != base {
				t.Fatalf("seed %d: Reset did not rewind the allocator: got base %d, want %d", seed, got, base)
			}
			pokeFar(reused, reused.Alloc(farWords), 100)
			if err := reused.Run(fuzzProgs(seed, cfg.Threads, base)...); err != nil {
				t.Fatalf("seed %d: reused run: %v", seed, err)
			}
			got := snapshotOf(reused, image)
			reused.Close()

			if d := want.diff(got); d != "" {
				t.Fatalf("seed %d drain=%v: reset machine diverged from fresh machine: %s", seed, drain, d)
			}
		}
	}
}

// TestResetEquivalenceTimed is the timed-engine counterpart, additionally
// comparing the virtual-cycle makespan and every thread's cycles. The
// run before the Reset either completes, or ends abnormally with stores
// still buffered and clocks advanced: in a ProgramPanic, or in an
// engine panic that Run re-raises before its end-of-run flush. The
// timed self-check is on, so a policy state the abnormal end left stale
// panics in the measured run.
func TestResetEquivalenceTimed(t *testing.T) {
	defer SetTimedCheck(SetTimedCheck(true))
	for seed := int64(0); seed < 6; seed++ {
		cfg := Config{Threads: 2, BufferSize: 5, DrainBuffer: seed%2 == 0, Metrics: true}
		words := fuzzWords + cfg.Threads
		image := words + farWords + pageWords

		fresh := NewTimedMachine(cfg)
		base := fresh.Alloc(words)
		pokeFar(&fresh.Machine, fresh.Alloc(farWords), 100)
		if err := fresh.Run(fuzzProgs(seed, cfg.Threads, base)...); err != nil {
			t.Fatalf("seed %d: fresh run: %v", seed, err)
		}
		want := snapshotOf(&fresh.Machine, image)
		wantElapsed := fresh.Elapsed()
		wantCycles := []uint64{fresh.ThreadCycles(0), fresh.ThreadCycles(1)}
		fresh.Close()

		for _, dirty := range []string{"complete", "program panic", "engine panic"} {
			reused := NewTimedMachine(cfg)
			dirtyBase := reused.Alloc(words + 3)
			pokeFar(&reused.Machine, reused.Alloc(farWords+9), 1000)
			switch dirty {
			case "complete":
				if err := reused.Run(fuzzProgs(seed+1000, cfg.Threads, dirtyBase)...); err != nil {
					t.Fatalf("seed %d: dirty run: %v", seed, err)
				}
			case "program panic":
				buffered := 0
				end := func() {
					buffered = reused.bufs[0].occupancy()
					panic("dirty")
				}
				var pp *ProgramPanic
				if err := reused.Run(abnormalProgs(dirtyBase, end)...); !errors.As(err, &pp) {
					t.Fatalf("seed %d: dirty run returned %v, want a ProgramPanic", seed, err)
				}
				if buffered == 0 {
					t.Fatalf("seed %d: thread 0 panicked with no store buffered", seed)
				}
			case "engine panic":
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("seed %d: dirty run did not panic", seed)
						}
					}()
					// A clock past what the policy can key panics in
					// the engine at the thread's next step.
					_ = reused.Run(abnormalProgs(dirtyBase, func() {})...)
				}()
				if reused.bufs[0].empty() && reused.bufs[1].empty() {
					t.Fatalf("seed %d: the engine panic left no store buffered", seed)
				}
			}
			reused.Reset()
			if reused.Elapsed() != 0 {
				t.Fatalf("seed %d, %s: Reset left Elapsed at %d", seed, dirty, reused.Elapsed())
			}
			reused.Alloc(words)
			pokeFar(&reused.Machine, reused.Alloc(farWords), 100)
			if err := reused.Run(fuzzProgs(seed, cfg.Threads, base)...); err != nil {
				t.Fatalf("seed %d, %s: reused run: %v", seed, dirty, err)
			}
			got := snapshotOf(&reused.Machine, image)
			gotElapsed := reused.Elapsed()
			gotCycles := []uint64{reused.ThreadCycles(0), reused.ThreadCycles(1)}
			reused.Close()

			if d := want.diff(got); d != "" {
				t.Fatalf("seed %d, %s: reset timed machine diverged: %s", seed, dirty, d)
			}
			if wantElapsed != gotElapsed {
				t.Fatalf("seed %d, %s: makespan differs: fresh %d, reset %d", seed, dirty, wantElapsed, gotElapsed)
			}
			if !reflect.DeepEqual(wantCycles, gotCycles) {
				t.Fatalf("seed %d, %s: thread cycles differ: fresh %v, reset %v", seed, dirty, wantCycles, gotCycles)
			}
		}
	}
}

// abnormalProgs is a two-thread program that ends a timed run
// abnormally: both threads buffer stores and advance their clocks, then
// thread 0 calls end while its stores are still buffered, and unless
// end panics, charges work past the largest virtual time the timed
// policy can schedule and posts one more load.
func abnormalProgs(base Addr, end func()) []func(Context) {
	progs := make([]func(Context), 2)
	for tid := range progs {
		progs[tid] = func(c Context) {
			for i := 0; i < 4; i++ {
				c.Store(base+Addr(tid*4+i), uint64(100+i))
				c.Work(3)
			}
			if tid == 0 {
				end()
				c.Work(1 << 63)
			}
			c.Load(base)
		}
	}
	return progs
}

// TestResetSeedEquivalence proves ResetSeed reproduces the schedule a
// fresh machine with that seed would take — the contract SampleOutcomes
// relies on to sweep seeds over one machine.
func TestResetSeedEquivalence(t *testing.T) {
	cfg := Config{Threads: 2, BufferSize: 4, DrainBias: 0.3, Metrics: true}
	words := fuzzWords + cfg.Threads
	reused := NewMachine(cfg)
	defer reused.Close()
	for seed := int64(0); seed < 10; seed++ {
		c := cfg
		c.Seed = seed
		fresh := NewMachine(c)
		base := fresh.Alloc(words)
		if err := fresh.Run(fuzzProgs(7, cfg.Threads, base)...); err != nil {
			t.Fatalf("seed %d: fresh run: %v", seed, err)
		}
		want := snapshotOf(fresh, words)
		fresh.Close()

		reused.ResetSeed(seed)
		reused.Alloc(words)
		if err := reused.Run(fuzzProgs(7, cfg.Threads, base)...); err != nil {
			t.Fatalf("seed %d: reused run: %v", seed, err)
		}
		if d := want.diff(snapshotOf(reused, words)); d != "" {
			t.Fatalf("seed %d: ResetSeed diverged from fresh machine: %s", seed, d)
		}
	}
}

// waitForGoroutines polls until the live goroutine count drops to at most
// want, giving finalizer/teardown goroutines time to exit.
func waitForGoroutines(t *testing.T, want int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count stuck at %d, want <= %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestTeardownPanickingThread drives the handoff through its panic path:
// one simulated thread panics mid-run while others are mid-operation, the
// error surfaces as ProgramPanic, the machine stays reusable, and Close
// returns the goroutine count to baseline.
func TestTeardownPanickingThread(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := NewMachine(Config{Threads: 3, BufferSize: 4, Seed: 42, DrainBias: 0.3})
	x := m.Alloc(1)
	spin := func(c Context) {
		for i := 0; i < 1000; i++ {
			c.Store(x, uint64(i))
			c.Load(x)
		}
	}
	boom := func(c Context) {
		c.Load(x)
		panic("boom")
	}
	err := m.Run(spin, boom, spin)
	var pp *ProgramPanic
	if !errors.As(err, &pp) || pp.Thread != 1 || pp.Value != "boom" {
		t.Fatalf("Run = %v, want ProgramPanic{Thread: 1, Value: boom}", err)
	}
	// The machine must remain usable after a panic teardown.
	m.Reset()
	m.Alloc(1)
	if err := m.Run(spin, spin, spin); err != nil {
		t.Fatalf("Run after panic teardown: %v", err)
	}
	m.Close()
	waitForGoroutines(t, baseline, 5*time.Second)
}

// TestTeardownMaxSteps drives the step-limit teardown: threads that never
// finish are unwound, the machine stays reusable, and Close reaps the
// workers.
func TestTeardownMaxSteps(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := NewMachine(Config{Threads: 2, BufferSize: 4, Seed: 7, DrainBias: 0.3, MaxSteps: 500})
	x := m.Alloc(1)
	forever := func(c Context) {
		for {
			c.Load(x)
		}
	}
	if err := m.Run(forever, forever); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("Run = %v, want ErrStepLimit", err)
	}
	// Reuse after a step-limit teardown, including another teardown.
	for i := 0; i < 3; i++ {
		m.Reset()
		m.Alloc(1)
		if err := m.Run(forever, forever); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("Run #%d = %v, want ErrStepLimit", i+2, err)
		}
	}
	m.Close()
	waitForGoroutines(t, baseline, 5*time.Second)
}

// TestCloseRespawn proves Close is idempotent and a closed machine
// respawns its workers on the next Run.
func TestCloseRespawn(t *testing.T) {
	m := NewMachine(Config{Threads: 2, BufferSize: 4, Seed: 1})
	x := m.Alloc(1)
	inc := func(c Context) {
		for {
			old := c.Load(x)
			if _, ok := c.CAS(x, old, old+1); ok {
				return
			}
		}
	}
	if err := m.Run(inc, inc); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	if err := m.Run(inc, inc); err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
	m.Close()
	if got := m.Peek(x); got != 4 {
		t.Fatalf("x = %d after 4 atomic increments, want 4", got)
	}
}

// TestWorkerPoolNoLeak churns machines with explicit Close and requires
// the goroutine count to return to baseline — no pooled worker survives
// its machine.
func TestWorkerPoolNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		m := NewMachine(Config{Threads: 4, BufferSize: 4, Seed: int64(i), DrainBias: 0.2})
		x := m.Alloc(1)
		p := func(c Context) { c.Store(x, 1); c.Load(x) }
		if err := m.Run(p, p, p, p); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
	waitForGoroutines(t, baseline+2, 5*time.Second)
}

// TestFinalizerReapsWorkers drops machines without Close and checks the
// GC finalizer eventually reaps their parked workers. Finalizer timing is
// not guaranteed, so the test only requires the count to come back down
// under repeated GC, with slack.
func TestFinalizerReapsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		for i := 0; i < 30; i++ {
			m := NewMachine(Config{Threads: 4, BufferSize: 4, Seed: int64(i)})
			x := m.Alloc(1)
			p := func(c Context) { c.Store(x, 1) }
			if err := m.Run(p, p, p, p); err != nil {
				t.Fatal(err)
			}
			// Dropped without Close: the finalizer must reap the workers.
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+30 {
		if time.Now().After(deadline) {
			t.Fatalf("finalizers did not reap pooled workers: %d goroutines, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGateStress hammers one gate with concurrent producers and checks
// signal conservation under the race detector. The machine never loads a
// gate this hard — each gate has one releasing goroutine at a time, the
// baton holder — so this bounds the primitive itself, not its use.
func TestGateStress(t *testing.T) {
	const producers = 4
	const perProducer = 20000
	var g gate
	g.init()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				g.release()
			}
		}()
	}
	for i := 0; i < producers*perProducer; i++ {
		g.acquire()
	}
	wg.Wait()
	if s := g.state.Load(); s != 0 {
		t.Fatalf("gate state = %d after balanced release/acquire, want 0", s)
	}
	if len(g.sem) != 0 {
		t.Fatalf("gate semaphore holds %d tokens after balanced traffic, want 0", len(g.sem))
	}
}

// TestStepPathZeroAlloc is the tentpole's allocation guarantee: after
// warmup (worker spawn, scratch growth), a full Reset+Run cycle — every
// simulated operation, the request/grant handoffs, the end-of-run
// teardown — performs zero heap allocations on the chaos engine.
func TestStepPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	m := NewMachine(Config{Threads: 2, BufferSize: 4, Seed: 3, DrainBias: 0.3})
	defer m.Close()
	var x, y Addr
	var runErr error
	progs := []func(Context){
		func(c Context) {
			for i := 0; i < 64; i++ {
				c.Store(x, uint64(i))
				c.Load(y)
				if i%16 == 0 {
					c.Fence()
					c.CAS(x, uint64(i), uint64(i+1))
					c.Work(1)
				}
			}
		},
		func(c Context) {
			for i := 0; i < 64; i++ {
				c.Store(y, uint64(i))
				c.Load(x)
			}
		},
	}
	cycle := func() {
		m.Reset()
		x = m.Alloc(1)
		y = m.Alloc(1)
		if err := m.Run(progs...); err != nil {
			runErr = err
		}
	}
	cycle() // warmup: spawns workers, grows policy scratch
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("chaos Reset+Run cycle allocates %.1f objects, want 0", avg)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestStepPathZeroAllocTimed is the timed-engine counterpart.
func TestStepPathZeroAllocTimed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	m := NewTimedMachine(Config{Threads: 2, BufferSize: 8})
	defer m.Close()
	var x, y Addr
	var runErr error
	progs := []func(Context){
		func(c Context) {
			for i := 0; i < 64; i++ {
				c.Store(x, uint64(i))
				c.Load(y)
				c.Work(3)
			}
			c.Fence()
		},
		func(c Context) {
			for i := 0; i < 64; i++ {
				c.CAS(x, 0, uint64(i))
				c.Load(x)
			}
		},
	}
	cycle := func() {
		m.Reset()
		x = m.Alloc(1)
		y = m.Alloc(1)
		if err := m.Run(progs...); err != nil {
			runErr = err
		}
	}
	cycle()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("timed Reset+Run cycle allocates %.1f objects, want 0", avg)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestPendingSliceReused pins the satellite fix: Run must not reallocate
// its per-thread bookkeeping, so back-to-back Runs without Reset are also
// allocation-free.
func TestPendingSliceReused(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	m := NewMachine(Config{Threads: 2, BufferSize: 4, Seed: 9, DrainBias: 0.2})
	defer m.Close()
	x := m.Alloc(1)
	var runErr error
	progs := []func(Context){
		func(c Context) { c.Store(x, 1); c.Load(x) },
		func(c Context) { c.Load(x) },
	}
	run := func() {
		if err := m.Run(progs...); err != nil {
			runErr = err
		}
	}
	run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("bare Run allocates %.1f objects, want 0", avg)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}
