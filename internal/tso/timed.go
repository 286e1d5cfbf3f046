package tso

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// TimedMachine is the performance engine: the unified machine core under
// the timed policy, a discrete-event simulation of a TSO[S] multicore in
// virtual cycles. Its scheduling is deterministic — it always steps the
// thread with the smallest virtual clock — so a given program produces a
// single well-defined cycle count.
//
// The cost mechanics mirror §7.1: a store occupies a buffer entry that
// drains DrainCycles after its predecessor; a store into a full buffer
// stalls the thread until the oldest entry drains (the pipeline-entry
// stall); a fence waits for the thread's buffer to empty; an atomic RMW
// drains and then pays CASCycles. Buffered values become globally visible
// at their drain timestamps, and because the minimum-clock thread always
// runs next, reads are coherent in virtual time.
type TimedMachine struct {
	Machine
	tp *timedPolicy
}

// timedPolicy is the min-virtual-clock discrete-event scheduling/cost
// policy. Per-thread clocks and drain-pipeline state live here; buffered
// stores live in the core's shared store buffers, carrying their drain
// timestamps in entry.done.
//
// The policy finds the next thread and the due drains without walking
// the threads' requests or the buffers. keys holds each pending
// thread's clock and heads each buffer's head drain timestamp, both
// packed with the thread id into one word (see key), so each choice is
// the minimum of one short dense array, found without a branch per
// element, and ties go to the lowest tid; earliest, the smallest head,
// lets the drain check at every operation return at once when nothing
// is due. Both arrays are rebuilt from the buffers and the pending
// requests at the start of every Run, so a Run that ended abnormally
// cannot leave them stale.
type timedPolicy struct {
	clocks   []uint64 // per-thread virtual clock
	lastDone []uint64 // drain timestamp of each thread's newest issued store
	cores    []uint64 // per-core next-free issue slot (SMT only)
	elapsed  uint64   // makespan of the last Run

	heads    []uint64 // per-buffer key of the head's drain timestamp, idle when empty
	earliest uint64   // min(heads)
	keys     []uint64 // per-thread key of the clock while pending, idle otherwise
	last     int      // thread the previous step ran; -1 before a Run's first step
	tidBits  uint     // low key bits holding the thread id

	// check cross-checks every choice against full scans of the threads
	// and buffers (see SetTimedCheck).
	check bool
}

// idle is the key of a thread with no pending request and of an empty
// buffer's head: above every key of a virtual time.
const idle = ^uint64(0)

// key packs virtual time t and thread tid into one word ordered by
// (t, tid). It panics if t is too large to pack below idle, which no
// simulation reaches (2⁶⁰ cycles at 16 threads).
func (p *timedPolicy) key(t uint64, tid int) uint64 {
	if t >= idle>>p.tidBits {
		keyOverflow(t)
	}
	return t<<p.tidBits | uint64(tid)
}

// keyOverflow is key's panic, kept out of line so that key inlines.
//
//go:noinline
func keyOverflow(t uint64) {
	panic(fmt.Sprintf("tso: virtual time %d overflows the timed engine's keys", t))
}

// tidOf is the thread id packed into key k.
func (p *timedPolicy) tidOf(k uint64) int { return int(k & (1<<p.tidBits - 1)) }

// minKey is the smallest of keys.
func minKey(keys []uint64) uint64 {
	lo := keys[0]
	for _, k := range keys[1:] {
		lo = min(lo, k)
	}
	return lo
}

// timedCheck is the setting SetTimedCheck installs.
var timedCheck atomic.Bool

// SetTimedCheck turns on or off, for timed machines built afterwards, a
// self-check that recomputes every step's thread and every drain with
// full scans of the threads and store buffers and panics on any
// disagreement with the policy's incremental choice. It is for tests,
// and a package setting rather than a Config field because harnesses
// such as load.Run build their machines themselves. It returns the
// previous setting so a test can restore it:
//
//	defer tso.SetTimedCheck(tso.SetTimedCheck(true))
func SetTimedCheck(on bool) bool { return timedCheck.Swap(on) }

// NewTimedMachine builds a timed machine for cfg. It panics on invalid
// configuration.
func NewTimedMachine(cfg Config) *TimedMachine {
	c, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	if c.Model != ModelTSO {
		panic("tso: the timed engine models TSO only")
	}
	tp := &timedPolicy{
		clocks:   make([]uint64, c.Threads),
		lastDone: make([]uint64, c.Threads),
		heads:    make([]uint64, c.Threads),
		keys:     make([]uint64, c.Threads),
		tidBits:  uint(bits.Len(uint(c.Threads - 1))),
		check:    timedCheck.Load(),
	}
	if c.SMT {
		tp.cores = make([]uint64, c.Threads/2)
	}
	m := &TimedMachine{tp: tp}
	m.mem = newMemory()
	// The timed engine has no coalescing drain stage; the §7.3 stage
	// entry instead shows up as one extra slot of FIFO capacity, which is
	// exactly the observable S+1 bound.
	m.init(c, c.ObservableBound(), false, tp)
	return m
}

// Elapsed returns the makespan of the last Run in virtual cycles: the
// maximum finishing clock over all threads.
func (m *TimedMachine) Elapsed() uint64 { return m.tp.elapsed }

// Reset rewinds the timed machine to its just-constructed state (see
// Machine.Reset); on top of the core state it clears the recorded
// makespan. Per-thread clocks need no clearing here — they restart at
// every Run.
func (m *TimedMachine) Reset() {
	m.Machine.Reset()
	m.tp.elapsed = 0
}

// ThreadCycles returns the finishing clock of thread tid after the last
// Run. During a run it reads tid's live clock, which is safe from tid's
// own program code: the machine computes one simulated thread at a time,
// and the engine's clock writes happen either on tid's own goroutine
// (when its turn executes its own request) or before the gate release
// that resumes it (sched.Worker.Now relies on this).
func (m *TimedMachine) ThreadCycles(tid int) uint64 { return m.tp.clocks[tid] }

// reset zeroes the virtual clocks and drain-pipeline state and derives
// the drain heads from the buffers. Thread clocks restart at every Run;
// memory persists. The thread keys are rebuilt at the first step, once
// every thread has posted its first request or retired.
func (p *timedPolicy) reset(m *Machine) {
	for i := range p.clocks {
		p.clocks[i] = 0
		p.lastDone[i] = 0
	}
	for i := range p.cores {
		p.cores[i] = 0
	}
	for tid, b := range m.bufs {
		p.heads[tid] = p.headKey(b, tid)
	}
	p.earliest = minKey(p.heads)
	p.last = -1
}

// headKey is the key of b's head drain timestamp, idle when b (thread
// tid's buffer) is empty. The timed engine has no drain stage, so the
// head is entries[0].
func (p *timedPolicy) headKey(b *storeBuffer, tid int) uint64 {
	if len(b.entries) == 0 {
		return idle
	}
	return p.key(b.entries[0].done, tid)
}

// next picks the pending thread with the smallest virtual clock (lowest
// tid on ties), which keeps virtual time causally consistent. Between
// two steps only the thread the previous step ran can change its clock
// or its pending request (every other live thread stays parked with
// its request), so only that thread's key is refreshed. The timed
// policy never emits drain actions: drains happen at their timestamps,
// inside exec.
func (p *timedPolicy) next(m *Machine) action {
	if p.last < 0 {
		for tid := range p.keys {
			p.keys[tid] = p.keyOf(m, tid)
		}
	} else {
		p.keys[p.last] = p.keyOf(m, p.last)
	}
	best := p.tidOf(minKey(p.keys))
	if p.check {
		if want := scanNext(m, p.clocks); want != best {
			panic(fmt.Sprintf("tso: timed check: next picked thread %d, full scan picks %d", best, want))
		}
	}
	p.last = best
	return action{id: best}
}

// keyOf is thread tid's scheduling key: the key of its clock while it
// has a pending request, idle otherwise.
func (p *timedPolicy) keyOf(m *Machine, tid int) uint64 {
	if m.pending[tid] == nil {
		return idle
	}
	return p.key(p.clocks[tid], tid)
}

func (p *timedPolicy) bounded() bool { return false }

func (p *timedPolicy) zeroWorkIsNop() bool { return true }

func (p *timedPolicy) cancelled() bool { return false }

func (p *timedPolicy) drainLatency(m *Machine, e entry) uint64 { return e.done - e.born }

// issue charges k instruction-issue cycles to thread tid starting no
// earlier than its clock: on an SMT machine the cycles additionally
// serialize on the owning core's clock, so a busy sibling delays them —
// but a *stalled* sibling does not, because stalls never call issue.
func (p *timedPolicy) issue(tid int, k uint64) {
	if p.cores == nil {
		p.clocks[tid] += k
		return
	}
	core := tid / 2
	start := p.clocks[tid]
	if p.cores[core] > start {
		start = p.cores[core]
	}
	p.clocks[tid] = start + k
	p.cores[core] = start + k
}

// flushUpTo applies to memory, in drain-timestamp order (lowest tid on
// ties), every buffered store (any thread) whose drain completes at or
// before virtual time t. It returns at once when the earliest head is
// not due; otherwise each drain is the minimum of one scan of heads,
// and the scan that finds nothing due leaves the new earliest.
func (p *timedPolicy) flushUpTo(m *Machine, t uint64) {
	// A head is due iff its key is below the key of (t+1, tid 0).
	due := p.key(t+1, 0)
	for p.earliest < due {
		tid := p.tidOf(p.earliest)
		if p.check {
			p.checkDue(m, t, tid)
		}
		b := m.bufs[tid]
		b.drainOne(m.mem)
		p.heads[tid] = p.headKey(b, tid)
		p.earliest = minKey(p.heads)
	}
	if p.check {
		p.checkDue(m, t, -1)
	}
}

func (p *timedPolicy) exec(m *Machine, r *request) response {
	buf := m.bufs[r.tid]
	cost := m.cfg.Cost
	p.flushUpTo(m, p.clocks[r.tid])
	switch r.kind {
	case opLoad:
		m.stats.Loads++
		p.issue(r.tid, cost.LoadCycles)
		if v, ok := buf.forward(r.addr); ok {
			m.stats.ForwardLoads++
			m.metForward(r.tid)
			return response{val: v}
		}
		return response{val: m.mem.read(r.addr)}
	case opStore:
		m.stats.Stores++
		for buf.full() {
			// Pipeline-entry stall: wait for the oldest entry to drain.
			p.clocks[r.tid] = maxU64(p.clocks[r.tid], buf.entries[0].done)
			p.flushUpTo(m, p.clocks[r.tid])
		}
		// Drains are pipelined: full latency from issue, but only the
		// throughput spacing behind the previous drain.
		done := maxU64(p.clocks[r.tid]+cost.DrainCycles, p.lastDone[r.tid]+cost.DrainThroughputCycles)
		buf.push(entry{addr: r.addr, val: r.val, done: done, born: p.clocks[r.tid]})
		if len(buf.entries) == 1 {
			p.heads[r.tid] = p.key(done, r.tid)
			p.earliest = min(p.earliest, p.heads[r.tid])
		}
		m.metPush(r.tid, buf)
		p.lastDone[r.tid] = done
		p.issue(r.tid, cost.StoreCycles)
		return response{}
	case opFence:
		m.stats.Fences++
		// The drain wait is a stall (no core issue); only the fence's own
		// cycles are issued.
		if ld := p.lastDone[r.tid]; ld > p.clocks[r.tid] {
			m.metFenceStall(r.tid, ld-p.clocks[r.tid])
			p.clocks[r.tid] = ld
		}
		p.issue(r.tid, cost.FenceCycles)
		p.flushUpTo(m, p.clocks[r.tid])
		return response{}
	case opCAS:
		m.stats.CASes++
		if ld := p.lastDone[r.tid]; ld > p.clocks[r.tid] {
			m.metCASStall(r.tid, ld-p.clocks[r.tid])
			p.clocks[r.tid] = ld // stall: no core issue
		}
		p.flushUpTo(m, p.clocks[r.tid])
		p.issue(r.tid, cost.CASCycles)
		cur := m.mem.read(r.addr)
		if cur == r.val {
			m.mem.write(r.addr, r.val2)
			return response{val: cur, ok: true}
		}
		return response{val: cur, ok: false}
	case opWork:
		p.issue(r.tid, r.val)
		return response{}
	default:
		panic("tso: unknown op")
	}
}

// flush writes whatever is still buffered at the end of the run (in
// thread order, as the engine always has) and records the makespan.
func (p *timedPolicy) flush(m *Machine) {
	for _, b := range m.bufs {
		b.drainAll(m.mem)
	}
	p.elapsed = 0
	for _, c := range p.clocks {
		if c > p.elapsed {
			p.elapsed = c
		}
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// scanNext and scanDue are the policy's choices by full scans of the
// threads and the store buffers, which SetTimedCheck's self-check
// compares against the incremental state.

// scanNext returns the pending thread with the smallest clock, lowest
// tid on ties.
func scanNext(m *Machine, clocks []uint64) int {
	best := -1
	for tid, r := range m.pending {
		if r == nil {
			continue
		}
		if best == -1 || clocks[tid] < clocks[best] {
			best = tid
		}
	}
	return best
}

// scanDue returns the thread whose buffer head drains first at or
// before t, lowest tid on ties, or -1 when no head is due.
func scanDue(m *Machine, t uint64) int {
	bestTid := -1
	var bestDone uint64
	for tid, b := range m.bufs {
		if len(b.entries) == 0 {
			continue
		}
		if d := b.entries[0].done; d <= t && (bestTid == -1 || d < bestDone) {
			bestTid = tid
			bestDone = d
		}
	}
	return bestTid
}

// checkDue panics unless the full scan of the buffers agrees with the
// drain flushUpTo chose at time t (-1: none due), and unless heads and
// earliest match the buffers.
func (p *timedPolicy) checkDue(m *Machine, t uint64, got int) {
	if want := scanDue(m, t); want != got {
		panic(fmt.Sprintf("tso: timed check: drain at %d picked buffer %d, full scan picks %d", t, got, want))
	}
	for tid, b := range m.bufs {
		if h := p.headKey(b, tid); p.heads[tid] != h {
			panic(fmt.Sprintf("tso: timed check: buffer %d head key is %#x, heads holds %#x", tid, h, p.heads[tid]))
		}
	}
	if lo := minKey(p.heads); p.earliest != lo {
		panic(fmt.Sprintf("tso: timed check: earliest is %#x, the smallest head key %#x", p.earliest, lo))
	}
}
