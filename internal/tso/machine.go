package tso

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
)

// Machine is the unified abstract TSO[S] machine core. One request/grant
// executor, one memory + store-buffer substrate and one Stats sink serve
// every engine; what differs between engines is expressed as a pluggable
// scheduling/cost policy (see policy.go):
//
//   - the chaos policy (NewMachine) explores thread interleavings and
//     store-buffer drain schedules under a seeded RNG — the full
//     nondeterminism of the §2 abstract machine, driven adversarially;
//   - the chooser policy (installed by the exploration engines and
//     ReplaySchedule) enumerates the decision tree deterministically for
//     exhaustive schedule exploration;
//   - the timed policy (NewTimedMachine) runs a min-virtual-clock
//     discrete-event simulation with pipelined drains (§7.1 cost model).
//
// Exactly one simulated thread executes at a time, from the first
// instruction of a Run to the last unwind of its teardown; between any
// two thread actions a policy may drain store-buffer entries.
//
// Each simulated thread is a pooled worker goroutine (spawned at the first
// Run, reused across Runs) whose single in-flight request is embedded in
// the worker itself. The scheduler is not a goroutine of its own but a
// baton (see turn), and the baton is the machine's only transport: Run
// takes the first turn, which starts thread 0; each thread runs its host
// code until it posts its first request or retires and then starts the
// next; once all have started, the thread that posts a request runs the
// scheduling loop itself. When the policy picks that same thread again
// the operation completes with no goroutine switch at all; otherwise the
// poster wakes the chosen thread's parked single-slot gate (an atomic
// state word backed by a 1-slot semaphore — see gate) and parks on its
// own: one switch. When the run ends, the threads still pending are
// aborted one at a time, each unwinding and retiring before the next,
// and the last hands the baton back to Run. A simulated operation
// therefore performs zero heap allocations and no channel traffic.
//
// A Machine is not safe for concurrent use; each Run call owns it until it
// returns. Memory contents persist across Run calls, so a harness can
// initialize state, run one program phase, inspect memory, and run another.
// Reset rewinds the machine to its just-constructed state without giving
// up any allocation, which is how the exploration engines execute millions
// of runs on a handful of machines.
type Machine struct {
	cfg  Config
	mem  *memory
	bufs []*storeBuffer
	next Addr

	// rng is the chaos scheduler's RNG (nil on a timed machine). Its
	// source fills math/rand's 607-word register lazily (see
	// NewRandSource), so the reseed at every Reset costs a few stores
	// even on the deterministic engines that never draw.
	rng *rand.Rand

	stats Stats
	met   *MachineMetrics // non-nil iff Config.Metrics

	// pol is the engine's scheduling/cost policy.
	pol policy

	// workers are the pooled per-thread goroutines; nil until the first
	// Run (or after Close). runGate hands the baton back to Run when the
	// run's teardown is over. reaper carries the GC finalizer that
	// reclaims the workers of a machine dropped without Close (see
	// spawnWorkers).
	workers []*worker
	reaper  *reaper
	runGate gate

	// The scheduler state below belongs to whichever goroutine holds the
	// baton. pending[tid] points at tid's posted-but-ungranted request
	// (embedded in its worker); the slice is allocated once and reused
	// across Runs, and every Run leaves it empty. started counts the
	// threads whose programs this Run has started (they start in tid
	// order), live those whose programs have not returned, pendingN those
	// of them with a pending request.
	pending  []*request
	pendingN int
	started  int
	live     int
	steps    int64

	// fail is the run's error once it has ended (the first ProgramPanic,
	// the step limit, or errRunCut). enginePanic is a panic raised by the
	// scheduler itself (a policy, a buffer invariant) on whichever
	// goroutine held the baton; Run re-raises it after teardown.
	fail        error
	enginePanic any

	// opSeq numbers every executed request on the buffered substrate since
	// the last Reset. The id is assigned whether or not a tracer is
	// attached, so trace event ids are stable across re-runs of the same
	// schedule with tracing toggled — the property counterexample replay
	// relies on. A store's drain event carries the store's id (see entry.id).
	opSeq int64

	// tracer, when non-nil, receives every executed action in schedule
	// order (see trace.go).
	tracer Tracer

	// flushHook, when non-nil, is called before each end-of-run forced
	// drain (flushBuffered), while the buffer still holds the entry. The
	// DPOR engine uses it to record the flush suffix as dependence
	// events: those drains perform the run's remaining memory writes, and
	// races against them are what schedule a buffer's drain before
	// another thread's load.
	flushHook func(tid int)
}

// action is one scheduler decision: execute a thread's pending request or
// drain one entry of a thread's store buffer (idx selects which entry
// under PSO; always 0 under TSO's FIFO rule).
type action struct {
	drain bool
	id    int
	idx   int
}

type opKind int

const (
	opLoad opKind = iota
	opStore
	opFence
	opCAS
	opWork
)

type request struct {
	tid  int
	kind opKind
	addr Addr
	val  uint64 // store value / CAS old / Work cycles
	val2 uint64 // CAS new
}

type response struct {
	val   uint64
	ok    bool
	abort bool
}

// gate is a single-consumer park/unpark primitive: one atomic state word
// counting banked signals (with -1 meaning "consumer parked") backed by a
// 1-slot semaphore channel that is touched only when a park actually
// happens. release banks a signal or unparks the parked consumer; acquire
// consumes a banked signal without blocking, or parks until one arrives.
// At most one goroutine may acquire, and the machine has one releasing
// goroutine at a time: every release comes from whichever goroutine holds
// the baton, as its last act before parking or retiring. The atomic
// read-modify-writes give the same happens-before edges a channel would,
// so plain writes made before release are visible after the matching
// acquire.
type gate struct {
	state atomic.Int32
	sem   chan struct{}
}

func (g *gate) init() { g.sem = make(chan struct{}, 1) }

func (g *gate) release() {
	if g.state.Add(1) <= 0 {
		// The consumer was parked (-1 → 0): hand it the semaphore slot.
		g.sem <- struct{}{}
	}
}

func (g *gate) acquire() {
	if g.state.Add(-1) >= 0 {
		return // a signal was banked: no park
	}
	<-g.sem
}

// worker is one pooled simulated-thread goroutine and its half of the
// handoff: the thread's single in-flight request and response live here,
// so the steady-state operation path allocates nothing. The goroutine
// itself parks on start between Runs holding no reference to the machine,
// which lets an un-Closed machine be finalized (see Close).
type worker struct {
	m     *Machine
	tid   int
	req   request
	resp  response
	grant gate        // baton holder → thread: response ready (or abort)
	start chan func() // baton holder → goroutine: start the bound program
	run   func()      // pre-bound runProg, sent on start each Run
	prog  func(Context)
}

// abortSignal is panicked inside simulated threads when the machine tears a
// run down (step limit or another thread's panic); the thread wrapper
// recovers it and exits cleanly.
type abortSignal struct{}

// ProgramPanic wraps a panic raised by simulated-thread code so the harness
// sees which thread failed and why.
type ProgramPanic struct {
	Thread int
	Value  any
}

func (e *ProgramPanic) Error() string {
	return fmt.Sprintf("tso: simulated thread %d panicked: %v", e.Thread, e.Value)
}

// NewMachine builds a chaos-policy machine for cfg. It panics on invalid
// configuration, since that is a programming error in the harness.
func NewMachine(cfg Config) *Machine {
	c, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	// Simulated memory is allocated before the Machine itself. Harnesses
	// that build one machine per run (Figure 8's litmus sweep) allocate
	// that memory at a high rate, and with the Machine allocated first the
	// sweep measured ~20% slower on a 2-CPU host, its GC mark phases
	// lengthened. Only the memory's header is allocated here; its pages
	// come with the run's first writes.
	m := &Machine{mem: newMemory(), rng: rand.New(NewRandSource(c.Seed))}
	m.init(c, c.BufferSize, c.DrainBuffer, &chaosPolicy{})
	return m
}

// init builds the state every engine shares around m's memory for the
// defaulted config c: one store buffer per thread of capacity bufCap
// (with the coalescing drain stage iff stage), the scheduler's pending
// slice and gate, the metrics sink, and the policy pol.
func (m *Machine) init(c Config, bufCap int, stage bool, pol policy) {
	m.cfg = c
	m.bufs = make([]*storeBuffer, c.Threads)
	for i := range m.bufs {
		m.bufs[i] = newStoreBuffer(bufCap, stage)
	}
	m.pending = make([]*request, c.Threads)
	m.runGate.init()
	m.pol = pol
	if c.Metrics {
		m.enableMetrics()
	}
}

// Config returns the configuration the machine was built with (after
// defaulting).
func (m *Machine) Config() Config { return m.cfg }

// Alloc reserves n zero-initialized words of simulated memory and returns
// the base address. Call it before Run. It only reserves the addresses:
// a word is backed (allocated on the host) by the first write to it, so a
// large reservation that a run barely writes costs only what it writes.
func (m *Machine) Alloc(n int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("tso: Alloc(%d)", n))
	}
	base := m.next
	m.next += Addr(n)
	return base
}

// Peek reads simulated memory directly, bypassing store buffers. Intended
// for harness inspection after Run (when all buffers have drained). A
// word nothing has written reads 0 and Peek allocates nothing.
func (m *Machine) Peek(a Addr) uint64 { return m.mem.read(a) }

// Poke writes simulated memory directly, bypassing store buffers. Intended
// for harness initialization before Run.
func (m *Machine) Poke(a Addr, v uint64) { m.mem.write(a, v) }

// Stats returns cumulative event counts across all Run calls. Counters
// recorded inside the store buffers (drains, coalesces, the occupancy
// high-water mark) are folded in here, so there is a single stats sink for
// every engine.
func (m *Machine) Stats() Stats {
	s := m.stats
	for _, b := range m.bufs {
		s.Drains += b.drains
		s.Coalesces += b.coalesces
		if b.maxOcc > s.MaxOccupancy {
			s.MaxOccupancy = b.maxOcc
		}
	}
	return s
}

// Reset rewinds the machine to its just-constructed state — memory zeroed,
// the allocator at address 0, store buffers empty, statistics, metrics and
// the high-water marks cleared, the chaos scheduler RNG reseeded from
// Config.Seed — while keeping every allocation: the memory words, the
// buffer arrays, and the pooled worker goroutines. A Reset machine behaves
// byte-for-byte like a fresh NewMachine/NewTimedMachine of the same
// Config, which is what lets the exploration engines reuse one machine
// across millions of runs. Reset must only be called between Runs.
func (m *Machine) Reset() {
	m.mem.reset()
	for _, b := range m.bufs {
		b.reset()
	}
	m.next = 0
	m.steps = 0
	m.opSeq = 0
	m.stats = Stats{}
	if m.rng != nil {
		m.rng.Seed(m.cfg.Seed)
	}
	if m.met != nil {
		m.resetMetrics()
	}
}

// ResetSeed is Reset under a new chaos-scheduler seed — the sampling
// engines' path for sweeping seeds across one reused machine.
func (m *Machine) ResetSeed(seed int64) {
	m.cfg.Seed = seed
	m.Reset()
}

// Close releases the machine's pooled worker goroutines. It must not be
// called concurrently with Run; calling Run afterwards is allowed (the
// workers respawn). Machines that are dropped without Close are closed by
// a GC finalizer — the parked workers hold no reference to the machine —
// so forgetting Close leaks nothing permanently, but harnesses that churn
// machines in a loop should Close (or Reset and reuse) deterministically.
func (m *Machine) Close() {
	if m.workers == nil {
		return
	}
	runtime.SetFinalizer(m.reaper, nil)
	m.reaper.reap()
	m.reaper = nil
	m.workers = nil
}

// reaper closes a worker pool's start channels, releasing the parked
// goroutines. It exists as a separate object because the GC finalizer
// cannot live on the Machine itself: machine and workers reference each
// other, and a finalizer on a member of a reference cycle is not
// guaranteed to run. The reaper is referenced one-way (machine → reaper →
// channels), so it becomes unreachable exactly when the machine's cycle
// is collected, and its finalizer then reaps the workers.
type reaper struct {
	starts []chan func()
}

func (r *reaper) reap() {
	for _, ch := range r.starts {
		close(ch)
	}
}

// spawnWorkers starts the pooled per-thread goroutines on first use. The
// goroutines park on their start channels holding nothing but the channel,
// so an unreachable machine can still be finalized and its workers
// reclaimed.
func (m *Machine) spawnWorkers() {
	m.workers = make([]*worker, m.cfg.Threads)
	m.reaper = &reaper{starts: make([]chan func(), m.cfg.Threads)}
	for i := range m.workers {
		w := &worker{m: m, tid: i}
		w.req.tid = i
		w.grant.init()
		// Capacity 1 is load-bearing: the next Run may start the worker
		// before it has looped back from its previous retirement's turn.
		w.start = make(chan func(), 1)
		w.run = w.runProg
		m.workers[i] = w
		m.reaper.starts[i] = w.start
		go workerLoop(w.start)
	}
	runtime.SetFinalizer(m.reaper, (*reaper).reap)
}

func workerLoop(start chan func()) {
	for f := range start {
		f()
	}
}

// Run executes one simulated program per configured thread to completion,
// then flushes all store buffers. Under a bounded policy (chaos, chooser)
// it returns ErrStepLimit if the schedule exceeds Config.MaxSteps
// (livelock/deadlock); a program panic surfaces as *ProgramPanic. Threads
// start one at a time in tid order, so when several would panic before
// the first scheduling step, the lowest-tid one is reported. A panic
// raised by the engine itself propagates out of Run with its original
// value, after every thread has been unwound.
func (m *Machine) Run(progs ...func(Context)) error {
	if len(progs) != m.cfg.Threads {
		return fmt.Errorf("tso: machine has %d threads, Run got %d programs", m.cfg.Threads, len(progs))
	}
	if m.workers == nil {
		m.spawnWorkers()
	}
	for i, p := range progs {
		m.workers[i].prog = p
	}
	m.started = 0
	m.live = len(progs)
	m.steps = 0
	m.fail = nil
	m.pol.reset(m)
	m.pass(m.turn())
	m.runGate.acquire()
	if v := m.enginePanic; v != nil {
		m.enginePanic = nil
		panic(v)
	}
	m.pol.flush(m)
	m.stats.Steps += m.steps
	return m.fail
}

// runProg is one worker cycle: run the bound program, then retire the
// thread and take one more turn to pass the baton on.
func (w *worker) runProg() {
	defer func() {
		v := recover()
		if _, ok := v.(abortSignal); ok {
			v = nil
		}
		m := w.m
		m.live--
		if v != nil && m.fail == nil {
			m.fail = &ProgramPanic{Thread: w.tid, Value: v}
		}
		m.pass(m.turn())
	}()
	w.prog(w)
}

// turn is the machine's scheduling loop, run by whichever goroutine holds
// the baton: Run for the first turn, then the worker whose thread has
// just posted a request or retired. While some thread has not started,
// it returns the next one in tid order, so threads start one at a time
// and no policy step runs before every thread has posted its first
// request or retired. Invariant from then on: every live thread but the
// holder's is parked with a pending request, and the holder has just
// posted or retired, so every live thread has a pending request and the
// policy sees exactly the choice it would from a dedicated scheduler
// goroutine. turn takes policy steps (drains run inline) until one
// thread's request has been executed and returns that thread, its
// response stored in its worker; the caller passes the baton to it.
//
// Once the run has ended (every thread retired, a program panic, the step
// limit, a policy cut, or an engine panic, leaving m.fail or
// m.enginePanic set) each turn aborts the lowest-tid pending thread and
// returns it; that thread unwinds, retires and takes the next turn. When
// nothing is pending turn returns -1, and the caller passes the baton
// back to Run.
func (m *Machine) turn() (tid int) {
	defer func() {
		// A panic here comes from the engine (policy code, a buffer
		// invariant), not from the thread whose goroutine holds the
		// baton: recover it before that thread's runProg can wrap it in
		// a ProgramPanic, and tear the run down for Run to re-raise it.
		if v := recover(); v != nil {
			m.enginePanic = v
			tid = m.abortNext()
		}
	}()
	if m.started < len(m.workers) {
		return m.started
	}
	for m.fail == nil && m.enginePanic == nil && m.live > 0 {
		if m.pol.bounded() && m.steps >= m.cfg.MaxSteps {
			m.fail = fmt.Errorf("%w after %d steps", ErrStepLimit, m.steps)
			break
		}
		m.steps++

		act := m.pol.next(m)
		if m.pol.cancelled() {
			// The policy abandoned the run mid-schedule (the exhaustive
			// engine's memoization cut). Unwind every thread and report the
			// sentinel so the engine can tell a cut from a real failure.
			m.fail = errRunCut
			break
		}
		if act.drain {
			m.drainStep(act)
			continue
		}
		tid = act.id
		r := m.pending[tid]
		// The request stays pending until it has executed, so a panic in
		// exec leaves its thread where teardown can abort it.
		m.workers[tid].resp = m.pol.exec(m, r)
		m.pending[tid] = nil
		m.pendingN--
		return tid
	}
	return m.abortNext()
}

// abortNext is one teardown step: it takes the lowest-tid pending thread
// off the pending set with an abort response and returns it, or returns
// -1 once nothing is pending.
func (m *Machine) abortNext() int {
	for tid, r := range m.pending {
		if r != nil {
			m.pending[tid] = nil
			m.pendingN--
			m.workers[tid].resp = response{abort: true}
			return tid
		}
	}
	return -1
}

// pass hands the baton on after a turn: to thread tid, by starting its
// program if it is the next unstarted thread and otherwise by releasing
// its grant, or back to Run once teardown is over (-1).
func (m *Machine) pass(tid int) {
	switch {
	case tid < 0:
		m.runGate.release()
	case tid == m.started:
		m.started++
		w := m.workers[tid]
		w.start <- w.run
	default:
		m.workers[tid].grant.release()
	}
}

// drainStep performs a policy-chosen drain action on the buffered
// substrate, tracing which store it advances.
func (m *Machine) drainStep(act action) {
	b := m.bufs[act.id]
	if m.tracer != nil {
		// Identify which store this drain advances: the stage entry when
		// it reaches memory, or the FIFO head when it moves into (or
		// coalesces with) the stage.
		var e entry
		switch {
		case m.cfg.Model == ModelPSO:
			e = b.entries[act.idx]
		case b.hasStage && len(b.entries) == 0:
			e = b.stage
		case b.hasStage && b.entries[0].addr == b.stage.addr:
			e = b.entries[0] // coalesces; the stage value is discarded
		case b.hasStage:
			e = b.stage
		default:
			e = b.entries[0]
		}
		m.trace("drain", act.id, e.addr, e.val, false, e.id)
	}
	if m.cfg.Model == ModelPSO {
		b.drainAt(m.mem, act.idx)
	} else {
		b.drainOne(m.mem)
	}
}

// execBuffered performs one memory action for a thread on the buffered
// (untimed) substrate, applying the abstract machine's forced-drain rules
// for full buffers, fences, and atomics. The chaos and chooser policies
// share it.
func (m *Machine) execBuffered(r *request) response {
	buf := m.bufs[r.tid]
	m.opSeq++
	id := m.opSeq
	switch r.kind {
	case opLoad:
		m.stats.Loads++
		if v, ok := buf.forward(r.addr); ok {
			m.stats.ForwardLoads++
			m.metForward(r.tid)
			m.trace("load", r.tid, r.addr, v, false, id)
			return response{val: v}
		}
		v := m.mem.read(r.addr)
		m.trace("load", r.tid, r.addr, v, false, id)
		return response{val: v}
	case opStore:
		m.stats.Stores++
		// Rule 6: if the buffer is full the memory subsystem must first
		// dequeue at least one entry.
		for buf.full() {
			buf.drainOne(m.mem)
		}
		buf.push(entry{addr: r.addr, val: r.val, born: uint64(m.steps), id: id})
		m.metPush(r.tid, buf)
		m.trace("store", r.tid, r.addr, r.val, false, id)
		return response{}
	case opFence:
		m.stats.Fences++
		m.metFenceStall(r.tid, uint64(buf.occupancy()))
		buf.drainAll(m.mem)
		m.trace("fence", r.tid, 0, 0, false, id)
		return response{}
	case opCAS:
		m.stats.CASes++
		// Rule 4: atomics run with the memory-subsystem lock held and an
		// empty store buffer, so the implicit drain happens first.
		m.metCASStall(r.tid, uint64(buf.occupancy()))
		buf.drainAll(m.mem)
		cur := m.mem.read(r.addr)
		if cur == r.val {
			m.mem.write(r.addr, r.val2)
			m.trace("cas", r.tid, r.addr, r.val2, true, id)
			return response{val: cur, ok: true}
		}
		m.trace("cas", r.tid, r.addr, r.val2, false, id)
		return response{val: cur, ok: false}
	case opWork:
		m.trace("work", r.tid, 0, 0, false, id)
		return response{}
	default:
		panic(fmt.Sprintf("tso: unknown op %d", r.kind))
	}
}

// flushBuffered empties every store buffer at end of Run, tracing the
// drains (chaos and chooser policies).
func (m *Machine) flushBuffered() {
	for tid, b := range m.bufs {
		for !b.empty() {
			if m.flushHook != nil {
				m.flushHook(tid)
			}
			if m.tracer != nil {
				var e entry
				if len(b.entries) > 0 {
					e = b.entries[0]
				} else {
					e = b.stage
				}
				m.trace("drain", tid, e.addr, e.val, false, e.id)
			}
			b.drainOne(m.mem)
		}
	}
}

// The worker doubles as the Context implementation handed to its simulated
// thread; the installed policy interprets the requests. Embedding the
// request and response in the worker makes every operation below
// allocation-free.

// do submits the thread's embedded request and returns its response. The
// thread posts the request and takes a turn itself, which returns without
// a goroutine switch when the policy executes this same request (or
// aborts this same thread), and else passes the baton on and parks until
// its own request is granted.
func (w *worker) do() response {
	m := w.m
	m.pending[w.tid] = &w.req
	m.pendingN++
	if tid := m.turn(); tid != w.tid {
		m.pass(tid)
		w.grant.acquire()
	}
	if w.resp.abort {
		panic(abortSignal{})
	}
	return w.resp
}

// The Context methods assign every request field, not just the ones the
// op reads: the embedded request is reused across ops, and observers of
// the whole struct (the model checker's history hashes) must see the
// same bytes a freshly zeroed request would carry.

func (w *worker) Load(a Addr) uint64 {
	w.req.kind = opLoad
	w.req.addr = a
	w.req.val = 0
	w.req.val2 = 0
	return w.do().val
}

func (w *worker) Store(a Addr, v uint64) {
	w.req.kind = opStore
	w.req.addr = a
	w.req.val = v
	w.req.val2 = 0
	w.do()
}

func (w *worker) Fence() {
	w.req.kind = opFence
	w.req.addr = 0
	w.req.val = 0
	w.req.val2 = 0
	w.do()
}

func (w *worker) CAS(a Addr, old, new uint64) (uint64, bool) {
	w.req.kind = opCAS
	w.req.addr = a
	w.req.val = old
	w.req.val2 = new
	r := w.do()
	return r.val, r.ok
}

func (w *worker) Work(cycles uint64) {
	// Work is a scheduling point: a policy may run other threads or drain
	// buffers "during" the computation. The timed policy charges the
	// cycles to the thread's clock and treats zero-cycle work as a no-op.
	if cycles == 0 && w.m.pol.zeroWorkIsNop() {
		return
	}
	w.req.kind = opWork
	w.req.addr = 0
	w.req.val = cycles
	w.req.val2 = 0
	w.do()
}

func (w *worker) ThreadID() int { return w.tid }
