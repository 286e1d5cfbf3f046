// Package sched is the work-stealing runtime the experiments run on: the
// CilkPlus-equivalent substrate of §8. Each worker owns one task queue
// (any algorithm from internal/core); workers drain their own queue with
// Take and, when it empties, become thieves that Steal from uniformly
// random victims — or, under the serving-regime ablation knobs, from
// victims picked by affinity (VictimLastSuccess) or two-choice occupancy
// sampling (VictimPowerOfTwo), optionally taking several tasks per visit
// (Options.BatchSteal over core.BatchStealer queues).
//
// Tasks are continuation-passing fork/join closures (Cilk-style): a task
// may call Worker.Fork once, handing the scheduler child tasks and a
// continuation that runs after all children's subtrees complete. Task
// bodies model computation cost with Worker.Work and may freely use Go
// state for their actual results — the simulated machine serializes
// execution, so task-level Go state is race-free; only the queue protocol
// itself lives in simulated memory, because that protocol is the system
// under test.
//
// Two properties the paper's algorithms rely on are explicit here:
//
//   - Workers keep taking until their queue is empty (they cannot rely on
//     work being stolen), which is what bounds THEP's echo wait (§5).
//   - After every successful Take the worker performs a configurable
//     number of scratch stores (PostTakeStores, default 1), mirroring the
//     CilkPlus runtime's store into the dequeued task. This both justifies
//     δ = ⌈S/2⌉ and prevents back-to-back stores to T from coalescing in
//     the drain stage (§7.3).
package sched

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/tso"
)

// Machine is the slice of the tso engines the scheduler needs; both
// tso.Machine and tso.TimedMachine satisfy it.
type Machine interface {
	tso.Allocator
	Run(progs ...func(tso.Context)) error
	Peek(a tso.Addr) uint64
	Config() tso.Config
}

// TaskFunc is a task body. It runs on some worker; it may call Fork (at
// most once, as its logically last action), Spawn, and Work.
type TaskFunc func(w *Worker)

// VictimPolicy selects how a thief picks its next victim. The policies
// are serving-regime ablation knobs (see internal/load): they change
// where steal traffic lands, not any queue protocol.
type VictimPolicy int

const (
	// VictimUniform draws victims uniformly at random — the paper's
	// runtime and the default.
	VictimUniform VictimPolicy = iota
	// VictimLastSuccess returns to the last victim this thief stole
	// from successfully, falling back to a uniform draw after any
	// failed visit. Under bursty single-source load the queue that fed
	// a thief once usually still has work.
	VictimLastSuccess
	// VictimPowerOfTwo samples two distinct victims and attacks the one
	// whose queue looks longer. The occupancy reads are real simulated
	// loads charged to the thief — the information is paid for, and may
	// be stale exactly as it would be on hardware.
	VictimPowerOfTwo
)

func (v VictimPolicy) String() string {
	switch v {
	case VictimUniform:
		return "uniform"
	case VictimLastSuccess:
		return "last"
	case VictimPowerOfTwo:
		return "p2c"
	default:
		return fmt.Sprintf("VictimPolicy(%d)", int(v))
	}
}

// VictimPolicies lists every implemented policy in flag order.
var VictimPolicies = []VictimPolicy{VictimUniform, VictimLastSuccess, VictimPowerOfTwo}

// ParseVictimPolicy resolves a policy by its String name. The boolean
// reports whether the name was recognized.
func ParseVictimPolicy(name string) (VictimPolicy, bool) {
	for _, v := range VictimPolicies {
		if v.String() == name {
			return v, true
		}
	}
	return 0, false
}

// Options configures a pool.
type Options struct {
	// Algo selects the queue algorithm; Delta parameterizes the
	// fence-free ones (ignored otherwise).
	Algo  core.Algo
	Delta int
	// QueueCap is each queue's task-array capacity (default 1<<14).
	QueueCap int
	// Victim selects the victim-selection policy (default
	// VictimUniform, the paper's runtime).
	Victim VictimPolicy
	// BatchSteal caps how many tasks a thief takes in one successful
	// steal visit when the victim's queue implements core.BatchStealer
	// (the Chase-Lev family). Values <= 1 mean single steal — the paper
	// behaviour and the default — and queues without batch support
	// always fall back to single steal. Stolen tasks beyond the first
	// are Put on the thief's own queue.
	BatchSteal int
	// PostTakeStores is the number of scratch stores the worker performs
	// after each successful Take; 0 means the default of 1 (CilkPlus
	// behaviour). Pass a negative value for literally zero stores, which
	// on a DrainBuffer machine deliberately recreates the unsound L=0
	// coalescing regime of §7.3.
	PostTakeStores int
	// StealBackoff is the Work charged between failed steal attempts
	// (default 4 cycles).
	StealBackoff uint64
	// Seed drives victim selection and backoff dither. Each worker
	// derives its own RNG from (Seed, worker id), so victim sequences
	// are deterministic per seed regardless of how workers interleave.
	Seed int64
	// TolerateDuplicates suppresses the double-execution panic; it is
	// implied by idempotent algorithms and required by their clients.
	TolerateDuplicates bool
}

func (o Options) withDefaults() Options {
	if o.QueueCap == 0 {
		o.QueueCap = 1 << 14
	}
	if o.PostTakeStores == 0 {
		o.PostTakeStores = 1
	} else if o.PostTakeStores < 0 {
		o.PostTakeStores = 0
	}
	if o.StealBackoff == 0 {
		o.StealBackoff = 4
	}
	return o
}

// Stats aggregates scheduler-level counters for one Run.
type Stats struct {
	Executed    int64 // task executions (including duplicate deliveries)
	Duplicates  int64 // executions beyond the first delivery of a task
	Spawned     int64 // tasks enqueued (root included)
	Steals      int64 // successful steal visits
	StolenTasks int64 // tasks obtained by stealing (== Steals without batching)
	Aborts      int64 // fence-free steal aborts
	FailedSteal int64 // empty/lost-race steals
	// StolenFrac is StolenTasks / Executed: the fraction of work
	// obtained by stealing (Figure 11b's metric). Tasks a batched steal
	// moves onto the thief's queue count as stolen even though the
	// thief later Takes them — they crossed queues via the steal path.
	StolenFrac float64
	// Elapsed is the virtual-cycle makespan when run on a TimedMachine, 0
	// on the chaos engine.
	Elapsed uint64
	// Workers holds per-worker steal-outcome counters. Populated only
	// when the machine's Config.Metrics is set (the observability layer);
	// nil otherwise, so the scheduler's hot path stays untouched.
	Workers []WorkerStats `json:"Workers,omitempty"`
}

// WorkerStats is one worker's share of the pool's activity: how it
// obtained work and how its steal attempts ended. The per-worker split is
// what shows steal-path mix — e.g. a δ too large for the workload turns a
// thief's Steals into Aborts (§6, Figure 10's FF-THE collapse).
type WorkerStats struct {
	// Takes counts tasks the worker took from its own queue.
	Takes int64
	// Steals counts its successful steal visits.
	Steals int64
	// Batched counts tasks it obtained beyond the first in batched
	// steal visits (0 without batching).
	Batched int64
	// Aborts counts fence-free steal aborts it hit.
	Aborts int64
	// Empties counts steal attempts that found the victim empty or lost
	// the race.
	Empties int64
}

// ErrDoubleExecution reports that an exact (non-idempotent) queue delivered
// some task twice — a safety violation of the queue under test.
var ErrDoubleExecution = errors.New("sched: task delivered twice by an exact queue")

// task is the scheduler's meta-level task record.
type task struct {
	fn         TaskFunc
	completion *join // decremented when this task's subtree completes
	delivered  int   // number of times handed out by a queue
}

// join is a fork/join countdown: when remaining reaches zero the
// continuation is enqueued, inheriting the fork's completion obligation.
type join struct {
	remaining  int
	cont       TaskFunc
	completion *join
}

// Pool schedules tasks over the workers of one machine run.
type Pool struct {
	opts       Options
	m          Machine
	queues     []core.Deque
	sizers     []core.MetaSizer
	scratch    []tso.Addr
	tasks      []task
	rngs       []*rand.Rand // per-worker, derived from (Seed, worker id)
	lastVictim []int        // per-worker VictimLastSuccess memory (-1 none)
	// loot holds per-worker batched-steal scratch (nil when BatchSteal
	// <= 1). Per worker because steal visits interleave: two thieves
	// can be mid-batch at once, each parked inside a simulated op.
	loot    [][]uint64
	idle    []bool
	stats   Stats
	failure error
}

// Worker is the per-thread handle passed to task bodies.
type Worker struct {
	pool   *Pool
	id     int
	ctx    tso.Context
	forked bool // current task called Fork
	cur    int  // current task index
}

// ID returns the worker's thread id.
func (w *Worker) ID() int { return w.id }

// Work charges cycles of computation to the worker (see tso.Context.Work).
func (w *Worker) Work(cycles uint64) { w.ctx.Work(cycles) }

// Now returns the worker's current virtual clock when the pool runs on
// a timed machine, and 0 otherwise. The machine computes one simulated
// thread at a time, so the read is race-free; serving workloads (see
// internal/load) use it to stamp request arrivals and completions.
func (w *Worker) Now() uint64 {
	if tm, ok := w.pool.m.(interface{ ThreadCycles(int) uint64 }); ok {
		return tm.ThreadCycles(w.id)
	}
	return 0
}

// NewPool builds a pool with one queue per machine thread. Queues and
// scratch space are allocated on m; call before m runs.
func NewPool(m Machine, opts Options) *Pool {
	opts = opts.withDefaults()
	n := m.Config().Threads
	if n < 1 {
		panic("sched: machine has no threads")
	}
	p := &Pool{
		opts:       opts,
		m:          m,
		queues:     make([]core.Deque, n),
		sizers:     make([]core.MetaSizer, n),
		scratch:    make([]tso.Addr, n),
		rngs:       make([]*rand.Rand, n),
		lastVictim: make([]int, n),
		idle:       make([]bool, n),
	}
	for i := range p.rngs {
		// Distinct deterministic per-worker streams: a worker's victim
		// and dither sequence depends only on (Seed, i), never on how
		// the workers' steal attempts interleave. The streams are
		// math/rand's, but the source seeds lazily: a worker that draws
		// a few victims computes only the register words it reads.
		p.rngs[i] = rand.New(tso.NewRandSource(opts.Seed + int64(i)*0x6A09E667F3BCC909))
	}
	if opts.BatchSteal > 1 {
		p.loot = make([][]uint64, n)
		for i := range p.loot {
			p.loot[i] = make([]uint64, opts.BatchSteal)
		}
	}
	if opts.Algo.Idempotent() {
		p.opts.TolerateDuplicates = true
	}
	for i := range p.queues {
		q := core.New(opts.Algo, m, opts.QueueCap, opts.Delta)
		p.queues[i] = q
		sizer, ok := q.(core.MetaSizer)
		if !ok {
			panic(fmt.Sprintf("sched: %s does not expose MetaSize", q.Name()))
		}
		p.sizers[i] = sizer
		p.scratch[i] = m.Alloc(8)
	}
	return p
}

// Run seeds root onto worker 0's queue and runs the machine until every
// task (transitively spawned) has executed and all workers are idle. It
// returns scheduler stats; queue-safety violations and simulated-thread
// panics surface as errors.
func (p *Pool) Run(root TaskFunc) (Stats, error) {
	p.stats = Stats{}
	if p.m.Config().Metrics {
		p.stats.Workers = make([]WorkerStats, len(p.queues))
	}
	p.failure = nil
	p.tasks = p.tasks[:0]
	for i := range p.lastVictim {
		p.lastVictim[i] = -1
	}
	rootID := p.addTask(root, nil)

	n := len(p.queues)
	progs := make([]func(tso.Context), n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(c tso.Context) {
			w := &Worker{pool: p, id: i, ctx: c}
			if i == 0 {
				p.queues[0].Put(c, taskWord(rootID))
			}
			p.workerLoop(w)
		}
	}
	err := p.m.Run(progs...)
	if err == nil {
		err = p.failure
	}
	if p.stats.Executed > 0 {
		p.stats.StolenFrac = float64(p.stats.StolenTasks) / float64(p.stats.Executed)
	}
	if tm, ok := p.m.(interface{ Elapsed() uint64 }); ok {
		p.stats.Elapsed = tm.Elapsed()
	}
	return p.stats, err
}

// taskWord encodes a task index as a queue value; ids are offset by one so
// the zero word never denotes a task.
func taskWord(id int) uint64 { return uint64(id) + 1 }

func wordTask(v uint64) int { return int(v) - 1 }

func (p *Pool) addTask(fn TaskFunc, completion *join) int {
	p.tasks = append(p.tasks, task{fn: fn, completion: completion})
	p.stats.Spawned++
	return len(p.tasks) - 1
}

// done is the termination detector: every worker idle and every queue
// empty as read from memory. Meta-state reads are serialized by the
// machine (only one simulated thread holds the floor at a time), so this
// requires no locking; see the package comment in core/metasize.go for why
// memory lag is only ever conservative here.
func (p *Pool) done() bool {
	for _, idle := range p.idle {
		if !idle {
			return false
		}
	}
	for _, s := range p.sizers {
		if s.MetaSize(p.m.Peek) > 0 {
			return false
		}
	}
	return true
}

func (p *Pool) workerLoop(w *Worker) {
	myQ := p.queues[w.id]
	for {
		v, st := myQ.Take(w.ctx)
		if st == core.OK {
			if p.stats.Workers != nil {
				p.stats.Workers[w.id].Takes++
			}
			p.postTake(w)
			p.exec(w, v, false)
			continue
		}
		// Own queue empty: become a thief.
		p.idle[w.id] = true
		if !p.stealLoop(w) {
			return
		}
	}
}

// postTake performs the client stores after a take (CilkPlus's x >= 1
// store into the dequeued task), rotating addresses so consecutive scratch
// stores never coalesce either.
func (p *Pool) postTake(w *Worker) {
	base := p.scratch[w.id]
	for i := 0; i < p.opts.PostTakeStores; i++ {
		w.ctx.Store(base+tso.Addr(i%8), uint64(i))
	}
}

// stealLoop runs until a steal succeeds (executes it and returns true) or
// the pool is done (returns false).
//
// Failed steals back off exponentially (capped), as real work-stealing
// runtimes do. Besides reducing contention, this is load-bearing on the
// timed engine: a THE thief's lock-CAS drains its own buffered unlock and
// can re-acquire the victim's queue lock in the same instant, so without a
// growing gap between attempts a two-thread configuration can starve the
// victim's take() on its own lock forever — a livelock that timing noise
// breaks on real hardware. The backoff is seeded-random-dithered, keeping
// runs reproducible per seed.
func (p *Pool) stealLoop(w *Worker) bool {
	n := len(p.queues)
	rng := p.rngs[w.id]
	streak := 0
	for {
		if p.done() || p.failure != nil {
			return false
		}
		if n == 1 {
			// Single-worker pool: nothing to steal; spin until done.
			w.ctx.Work(p.opts.StealBackoff)
			continue
		}
		victim := p.pickVictim(w, rng)
		v, extra, st := p.stealFrom(w, victim)
		p.noteVictim(w, victim, st)
		if p.stats.Workers != nil {
			ws := &p.stats.Workers[w.id]
			switch st {
			case core.OK:
				ws.Steals++
				ws.Batched += int64(extra)
			case core.Abort:
				ws.Aborts++
			default:
				ws.Empties++
			}
		}
		switch st {
		case core.OK:
			p.idle[w.id] = false
			p.stats.Steals++
			p.stats.StolenTasks += int64(1 + extra)
			p.exec(w, v, true)
			return true
		case core.Abort:
			p.stats.Aborts++
		default:
			p.stats.FailedSteal++
		}
		if streak < 8 {
			streak++
		}
		backoff := p.opts.StealBackoff << streak
		w.ctx.Work(backoff + uint64(rng.Intn(int(backoff)+1)))
	}
}

// pickVictim chooses a victim != w.id under the configured policy.
// Callers guarantee n > 1. The uniform draw samples [0, n-1) and remaps
// past the thief's own id, so a single draw suffices — no Work-free
// re-roll on a self-draw.
func (p *Pool) pickVictim(w *Worker, rng *rand.Rand) int {
	n := len(p.queues)
	uniform := func() int {
		v := rng.Intn(n - 1)
		if v >= w.id {
			v++
		}
		return v
	}
	switch p.opts.Victim {
	case VictimLastSuccess:
		if lv := p.lastVictim[w.id]; lv >= 0 {
			return lv
		}
	case VictimPowerOfTwo:
		a := uniform()
		if n == 2 {
			return a
		}
		// Draw b from the n-2 queues that are neither the thief nor a,
		// remapping upward past both in ascending order.
		b := rng.Intn(n - 2)
		lo, hi := w.id, a
		if lo > hi {
			lo, hi = hi, lo
		}
		if b >= lo {
			b++
		}
		if b >= hi {
			b++
		}
		// Read both occupancies through the thief's own context: the
		// loads cost real cycles on the timed machine and may observe
		// memory that lags the owners' buffered updates, exactly like a
		// hardware thief peeking at H and T.
		peek := func(a tso.Addr) uint64 { return w.ctx.Load(a) }
		if p.sizers[b].MetaSize(peek) > p.sizers[a].MetaSize(peek) {
			return b
		}
		return a
	}
	return uniform()
}

// noteVictim updates the last-successful-victim memory after a visit.
// Any failed visit (empty, lost race, δ-abort) clears the affinity so
// the thief does not fixate on a drained or uncertain queue.
func (p *Pool) noteVictim(w *Worker, victim int, st core.Status) {
	if p.opts.Victim != VictimLastSuccess {
		return
	}
	if st == core.OK {
		p.lastVictim[w.id] = victim
	} else if p.lastVictim[w.id] == victim {
		p.lastVictim[w.id] = -1
	}
}

// stealFrom performs one steal visit against victim. A batched visit
// (Options.BatchSteal > 1 against a core.BatchStealer queue) delivers
// the oldest stolen task for immediate execution and Puts the rest of
// the loot on the thief's own queue — seeding it so the thief's next
// tasks are cheap fence-free takes and rival thieves spread the burst
// further; extra is that loot count. Every other configuration is a
// plain single Steal.
func (p *Pool) stealFrom(w *Worker, victim int) (v uint64, extra int, st core.Status) {
	if p.loot != nil {
		if bs, ok := p.queues[victim].(core.BatchStealer); ok {
			loot := p.loot[w.id]
			k, st := bs.StealBatch(w.ctx, loot)
			if st != core.OK {
				return 0, 0, st
			}
			for _, task := range loot[1:k] {
				p.queues[w.id].Put(w.ctx, task)
			}
			return loot[0], k - 1, core.OK
		}
	}
	v, st = p.queues[victim].Steal(w.ctx)
	return v, 0, st
}

// exec runs a delivered task and settles its completion.
func (p *Pool) exec(w *Worker, word uint64, stolen bool) {
	id := wordTask(word)
	if id < 0 || id >= len(p.tasks) {
		panic(fmt.Sprintf("sched: queue delivered unknown task word %d", word))
	}
	t := &p.tasks[id]
	t.delivered++
	p.stats.Executed++
	if t.delivered > 1 {
		p.stats.Duplicates++
		if !p.opts.TolerateDuplicates {
			if p.failure == nil {
				p.failure = fmt.Errorf("%w: task %d (algorithm %s)", ErrDoubleExecution, id, p.queues[0].Name())
			}
			return
		}
	}
	w.forked = false
	w.cur = id
	t.fn(w)
	if !w.forked {
		p.complete(w, t.completion)
	}
}

// complete settles a finished subtree: the last child of a join enqueues
// the continuation, which inherits the join's own completion obligation
// (so completion keeps propagating when the continuation later finishes).
func (p *Pool) complete(w *Worker, j *join) {
	if j == nil {
		return
	}
	j.remaining--
	if j.remaining > 0 {
		return
	}
	id := p.addTask(j.cont, j.completion)
	p.queues[w.id].Put(w.ctx, taskWord(id))
}

// Spawn enqueues an independent task (no join) on the calling worker's
// queue.
func (w *Worker) Spawn(fn TaskFunc) {
	id := w.pool.addTask(fn, nil)
	w.pool.queues[w.id].Put(w.ctx, taskWord(id))
}

// Fork enqueues children and registers cont to run after all their
// subtrees complete; the current task's own completion obligation
// transfers to cont. Fork may be called at most once per task execution
// and must be its logically last action.
func (w *Worker) Fork(cont TaskFunc, children ...TaskFunc) {
	if w.forked {
		panic("sched: Fork called twice in one task")
	}
	if len(children) == 0 {
		panic("sched: Fork with no children")
	}
	if w.pool.opts.Algo.Idempotent() {
		// A duplicated delivery would decrement the join twice and fire
		// the continuation early. Idempotent queues therefore only
		// support flat Spawn-style task graphs, as in Michael et al.'s
		// own benchmarks.
		panic("sched: Fork/join task graphs require an exact queue; idempotent queues support Spawn only")
	}
	w.forked = true
	cur := &w.pool.tasks[w.cur]
	j := &join{remaining: len(children), cont: cont, completion: cur.completion}
	for _, ch := range children {
		id := w.pool.addTask(ch, j)
		w.pool.queues[w.id].Put(w.ctx, taskWord(id))
	}
}

// DebugState reports the termination detector's inputs: worker idleness
// and per-queue memory sizes. Harness debugging only; racy by nature.
func (p *Pool) DebugState() string {
	s := fmt.Sprintf("idle=%v sizes=[", p.idle)
	for _, sz := range p.sizers {
		s += fmt.Sprintf(" %d", sz.MetaSize(p.m.Peek))
	}
	return s + " ] executed=" + fmt.Sprint(p.stats.Executed) + " spawned=" + fmt.Sprint(p.stats.Spawned)
}
