package tso

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
type timedPolicy struct {
	clocks   []uint64 // per-thread virtual clock
	lastDone []uint64 // drain timestamp of each thread's newest issued store
	cores    []uint64 // per-core next-free issue slot (SMT only)
	elapsed  uint64   // makespan of the last Run
}

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

// reset zeroes the virtual clocks and drain-pipeline state. Thread clocks
// restart at every Run; memory persists.
func (p *timedPolicy) reset(m *Machine) {
	for i := range p.clocks {
		p.clocks[i] = 0
		p.lastDone[i] = 0
	}
	for i := range p.cores {
		p.cores[i] = 0
	}
}

// next picks the pending thread with the smallest virtual clock (lowest
// tid on ties), which keeps virtual time causally consistent. The timed
// policy never emits drain actions: drains happen at their timestamps,
// inside exec.
func (p *timedPolicy) next(m *Machine) action {
	best := -1
	for tid, r := range m.pending {
		if r == nil {
			continue
		}
		if best == -1 || p.clocks[tid] < p.clocks[best] {
			best = tid
		}
	}
	return action{id: best}
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

// flushUpTo applies to memory, in drain-timestamp order, every buffered
// store (any thread) whose drain completes at or before virtual time t.
func (p *timedPolicy) flushUpTo(m *Machine, t uint64) {
	for {
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
		if bestTid == -1 {
			return
		}
		m.bufs[bestTid].drainOne(m.mem)
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
