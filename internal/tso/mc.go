package tso

// This file is the exhaustive model-checking engine behind
// ExploreExhaustive: the same replay-based schedule enumeration as
// ExploreWithChoices, restructured around three scalability mechanisms
// the sequential reference engine lacks.
//
//   - An explicit frontier: the decision tree is partitioned into
//     choice-prefix work units held in a Checkpoint (frontier.go), so
//     independent subtrees run in parallel on a worker pool and the
//     unexplored remainder can be serialized and resumed later. Every
//     exploration resumes a checkpoint: a fresh one starts from the
//     zero-progress frontier ShardFrontier returns.
//
//   - Canonical-state memoization: at every new tree node the engine
//     hashes the machine's canonical state — shared memory, every store
//     buffer's contents, each thread's operation/response history, and the
//     step count — and, when the state was fully explored before, credits
//     the memoized outcome multiset instead of re-exploring the subtree.
//     Because the credit is the exact multiset of schedules under the
//     node, pruned exploration produces byte-identical OutcomeSet.Counts
//     to the sequential engine; redundant interleavings that converge to
//     the same state (the classic drain/op commutation diamonds) collapse
//     to a single exploration. The step count is part of the key so a
//     memoized suffix can never behave differently under MaxStepsPerRun
//     than it did when first explored; the cost is that only same-depth
//     convergence dedups, which is where virtually all of it lives.
//
//   - Commutativity sleep sets (optional): the drain/drain fragment of
//     dependent() (depend.go). Store-buffer drains by different threads
//     whose memory effects target different addresses commute, so of the
//     two interleavings only one needs running. Sleep sets prune the
//     redundant orders outright, which reduces the *multiplicity* of each
//     outcome while provably preserving the set of reachable final
//     states, Complete-ness, and the per-thread occupancy high-water
//     marks (a buffer's occupancy history depends only on its own
//     thread's order of pushes and drains, which is invariant across the
//     pruned reorderings). Use it for verdict-style questions ("is this
//     outcome reachable?"); leave it off when exact schedule counts
//     matter. DPOR keeps sleep sets over the whole of dependent(); both
//     run through the one childSleep below.
//
//   - Source-set DPOR (optional, DPOR): the strongest reduction. The
//     dependence layer (depend.go) classifies every action by read/write
//     footprint; race detection over each executed run (dpor.go) adds
//     backtrack points only where dependent actions actually met, so the
//     engine explores one representative per Mazurkiewicz class instead
//     of enumerating the tree. Same preservation contract as SleepSets
//     (outcome set, Complete, MaxOccupancy — not counts), typically
//     orders of magnitude fewer executed runs.
//
// A thread's local state (registers, loop counters) lives in its program
// closure and cannot be inspected, so the canonical state instead hashes
// the thread's full request/response history: a replay-deterministic
// program is a deterministic function of the responses it received, so
// equal histories imply equal future behaviour. This is exactly the
// replay-determinism contract every exploration already imposes.

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// ExhaustiveOptions configures ExploreExhaustive. The zero value matches
// the sequential reference engine (one worker, no pruning).
type ExhaustiveOptions struct {
	ExploreOptions

	// Parallel is the number of worker goroutines exploring subtree work
	// units (<= 1: sequential). With Parallel > 1 the mkProgs and outcome
	// callbacks are invoked concurrently on distinct machines and must not
	// write shared captured state (compute address layouts up front).
	Parallel int

	// Prune enables canonical-state memoization. Counts stay byte-identical
	// to the sequential engine; Runs shrinks by the deduplicated subtrees.
	Prune bool

	// SleepSets additionally prunes redundant orders of commuting drains:
	// sleep sets over the drain/drain fragment of dependent() (depend.go).
	// The set of reachable outcomes, Complete, and MaxOccupancy are
	// preserved; per-outcome counts are reduced to one representative per
	// commutation class. Implies Prune's bookkeeping but not its memo
	// table; the two compose.
	SleepSets bool

	// DPOR switches the engine to source-set dynamic partial-order
	// reduction over the dependence layer (depend.go, dpor.go): races
	// detected on each executed run add backtrack points, and only one
	// schedule per Mazurkiewicz class is explored. The outcome set,
	// Complete, and MaxOccupancy are preserved exactly; per-outcome
	// counts are not (one representative per class), so Prune's
	// count-preserving memoization is auto-disabled under DPOR — a memo
	// credit would also hide the executed suffixes race detection needs.
	// SleepSets is likewise superseded by the dependence-derived sleep
	// sets DPOR maintains itself. Requires ModelTSO and is mutually
	// exclusive with MaxReorderings (see Validate for why). Composes
	// with MaxStepsPerRun — which is what makes spin-lock duels
	// tractable as bounded proofs — but not for free: a truncated run
	// never exhibits its post-horizon races, so every frame such a run
	// crosses is tainted to explore all branches (mcFrame.all). Within
	// the truncated region the exploration is unreduced; reduction
	// survives only in subtrees whose runs all complete.
	DPOR bool

	// Units is the target number of frontier work units (default
	// 4×Parallel when parallel, 1 when sequential).
	Units int

	// memoLimit bounds the memo arena (entries across all stripes); once a
	// stripe is full, admitting a new state evicts its oldest entry —
	// sound, because losing an entry only costs future dedup, never a
	// count. Default 1 << 22; set only by this package's tests.
	memoLimit int

	// memoStripes is the number of lock stripes of the memo arena, rounded
	// up to a power of two. Zero selects automatically: one stripe when
	// sequential, scaled with Parallel otherwise. More stripes reduce
	// memo-lock contention between workers at a small fixed memory cost.
	memoStripes int

	// dporCheck, under DPOR, rebuilds each run's event table from scratch
	// alongside the kept one and panics when the two differ after the run
	// (dporState.diff). Set only by this package's tests.
	dporCheck bool

	// MaxReorderings, when >= 1, bounds the store→load reorderings of each
	// explored schedule: a load that reads shared memory (no forwarding
	// hit) while its own thread still holds buffered stores counts as one
	// reordering, and branches that would push a schedule past the bound
	// are pruned. Zero and negative values (normalized to -1) disable the
	// bound, reproducing the unbounded exploration byte-identically. The
	// reorder-bounded literature's observation applies on TSO[S]: most
	// verdicts need only a handful of reorderings, so small k shrinks the
	// tree by orders of magnitude. Composes with Prune and SleepSets
	// (bounded counts stay exact over the bounded schedule set); under a
	// bound, MaxOccupancy may over-approximate by prefixes whose
	// completions were all pruned.
	MaxReorderings int

	// Label is an optional tag stamped into checkpoints this exploration
	// writes and checked against Resume's (when both are non-empty) — the
	// guard that keeps two explorations spooling under one path prefix from
	// silently swapping frontiers.
	Label string

	// Resume continues a budget-interrupted exploration from its
	// serialized frontier. The configuration must match the one that
	// produced the checkpoint. MaxRuns is a fresh budget for this call;
	// reported Runs accumulate across resumes. A checkpoint written in
	// this process also hands over its exploration's memo table
	// (Checkpoint.memo), so the resume must explore the same program
	// with the same outcome function — which its counts already assume.
	Resume *Checkpoint

	// Interrupt, when non-nil, stops the exploration early once it
	// becomes receivable (typically a context's Done channel or a signal
	// handler's): workers stop at their next run boundary and the result
	// carries a resumable Checkpoint, exactly as if MaxRuns had been
	// exhausted. This is how SIGTERM drains land a final checkpoint
	// instead of dying mid-frontier.
	Interrupt <-chan struct{}
}

func (o ExhaustiveOptions) withDefaults() ExhaustiveOptions {
	o.ExploreOptions = o.ExploreOptions.withDefaults()
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	if o.Units <= 0 {
		if o.Parallel > 1 {
			o.Units = 4 * o.Parallel
		} else {
			o.Units = 1
		}
	}
	if o.memoLimit <= 0 {
		o.memoLimit = 1 << 22
	}
	if o.memoStripes <= 0 {
		if o.Parallel > 1 {
			o.memoStripes = 4 * o.Parallel
		} else {
			o.memoStripes = 1
		}
	}
	if o.MaxReorderings <= 0 {
		o.MaxReorderings = -1
	}
	if o.DPOR {
		// See the DPOR field comment: memo credits are count-preserving,
		// DPOR counts are per-class, and a memo cut would hide executed
		// suffixes from race detection; SleepSets' drain/drain sleep sets
		// are a strict subset of the ones DPOR keeps over all of
		// dependent().
		o.Prune = false
		o.SleepSets = false
	}
	return o
}

// stateKey is a 2×64-bit canonical-state fingerprint. Collisions would be
// unsound, so the key is wide enough to make them implausible at model-
// checking scale: two word mixers with independent constants and
// rotations each fold the canonical state one 64-bit word at a time into
// one half. Neither mixer maps (0, 0) to 0 and neither seed is 0, so no
// half can sit at a zero fixed point that absorbs runs of zero words, as
// a zero-seeded FNV-1a hash does.
type stateKey struct{ a, b uint64 }

// keySeed is the fingerprint of the empty word stream.
var keySeed = stateKey{mixSeedA, mixSeedB}

const (
	mixSeedA uint64 = 0x243f6a8885a308d3 // π
	mixSeedB uint64 = 0x13198a2e03707344 // π, next word
	mixMulA1 uint64 = 0x9e3779b185ebca87
	mixMulA2 uint64 = 0xc2b2ae3d27d4eb4f
	mixMulB1 uint64 = 0x87c37b91114253d5
	mixMulB2 uint64 = 0x4cf5ad432745937f
)

// mixA folds the word v into the running hash h: one xxHash64-style
// round over v xored with the seed, so mixA(0, 0) is not 0.
func mixA(h, v uint64) uint64 {
	return bits.RotateLeft64(h+(v^mixSeedA)*mixMulA2, 31) * mixMulA1
}

// mixB is mixA's independent twin: other multipliers, another rotation,
// and an xor where mixA adds.
func mixB(h, v uint64) uint64 {
	return bits.RotateLeft64(h^(v^mixSeedB)*mixMulB2, 27) * mixMulB1
}

// mix returns k with the word v folded into both halves. A value
// receiver keeps the key in registers across a hashing loop.
func (k stateKey) mix(v uint64) stateKey {
	return stateKey{mixA(k.a, v), mixB(k.b, v)}
}

// historyMix folds one executed request and its response into a thread's
// history hash as a fixed-width record of four words: kind, ok bit and
// address packed into the first (addresses index the simulated memory, so
// they fit the 55 bits above kind and ok), then the request's two
// operands and the response value.
func historyMix(h uint64, req *request, resp response) uint64 {
	head := uint64(req.addr)<<9 | uint64(req.kind)
	if resp.ok {
		head |= 1 << 8
	}
	h = mixA(h, head)
	h = mixA(h, req.val)
	h = mixA(h, req.val2)
	return mixA(h, resp.val)
}

// memoEntry is the exact aggregate of one fully explored subtree: the
// multiset of final outcomes as (id, n) pairs sorted by id, the number of
// schedules it contains, how many hit the step limit, and the per-thread
// occupancy high-water mark over the subtree's schedules. Every schedule
// ends in one outcome, so the counts sum to runs. A recycled frame's
// accumulator keeps its buffers (mcRunner.newFrame); the memo arena holds
// its own encoded copy of a published aggregate.
type memoEntry struct {
	counts      []outcomeCount
	runs        int64
	stepLimited int
	maxOcc      []int
}

func (a *memoEntry) addLeaf(outcome uint32, hw []int, stepLimited bool) {
	a.counts = addCount(a.counts, outcome, 1)
	a.runs++
	if stepLimited {
		a.stepLimited++
	}
	a.foldOcc(hw)
}

// fold absorbs a finished child subtree.
func (a *memoEntry) fold(b *memoEntry) {
	for _, p := range b.counts {
		a.counts = addCount(a.counts, p.id, p.n)
	}
	a.runs += b.runs
	a.stepLimited += b.stepLimited
	a.foldOcc(b.maxOcc)
}

// foldCredit absorbs a memoized subtree reached at a point whose
// schedules so far peaked at hwNow buffered stores per thread. The
// credited high-water mark max(hwNow, memo) can only over-approximate by
// a value some executed schedule genuinely reached, so the exploration's
// final MaxOccupancy is exact (see the equivalence tests).
func (a *memoEntry) foldCredit(b *memoEntry, hwNow []int) {
	if b != nil {
		a.fold(b)
	}
	a.foldOcc(hwNow)
}

func (a *memoEntry) foldOcc(hw []int) {
	if len(hw) == 0 {
		return
	}
	if len(a.maxOcc) == 0 {
		a.maxOcc = append(a.maxOcc, hw...)
		return
	}
	for i, v := range hw {
		if v > a.maxOcc[i] {
			a.maxOcc[i] = v
		}
	}
}

// mcFrame is the engine's bookkeeping for one tree node on the current
// DFS path of a work unit. Frames are recycled through the runner's free
// list (mcRunner.newFrame, release), and everything of variable size
// lives on runner stacks or in the frame's reused marks array.
type mcFrame struct {
	depth  int
	fanout int
	// acc aggregates the node's fully explored children and leaves when
	// a memo table may publish it; without one, runs are accounted to the
	// unit directly and acc stays zero (mcEngine.accFor).
	acc memoEntry
	// key/hashed: canonical state (Prune mode).
	key    stateKey
	hashed bool
	// noMemo marks frames whose exploration spans a checkpoint boundary:
	// their accumulators miss pre-checkpoint results, so they must never
	// be published to the memo table.
	noMemo bool
	// Sleep-set bookkeeping (SleepSets or DPOR; nil otherwise, and on
	// resumed frames, whose action identities are gone). procs/fps
	// classify each branch's action by dependence proc and footprint —
	// outside DPOR only drains get a footprint, since thread steps never
	// sleep there; dsleep is the sleep set arriving at this node; skip[b]
	// marks branch b as covered by an earlier commuting exploration (or,
	// under MaxReorderings, as past the bound).
	procs  []int32
	fps    []footprint
	dsleep []dsleepEntry
	skip   []bool
	// Where this frame's share of each runner stack ends (mcRunner.
	// procStack): procs/fps, their footprint addresses, dsleep and skip.
	// A frame that takes no share of a stack inherits its parent's end.
	brEnd, addrEnd, sleepEnd, skipEnd int

	// DPOR bookkeeping (nil otherwise). bt is the backtrack set (race
	// handling grows it; nil on resumed frames, meaning every branch);
	// done marks fully explored branches — backtracking can schedule
	// branches below the current one, so "everything before it" no
	// longer describes what finished.
	bt   []bool
	done []bool
	// marks backs bt and done (bt first) and survives recycling.
	marks []bool
	// all marks a DPOR node a step-limited run passed through. A
	// truncated run never exhibits its post-horizon races, so the
	// backtrack sets of the frames it crossed may be missing reversals
	// whose runs would themselves have completed within the limit.
	// Every branch of such a node is explored (and its sleep skips
	// ignored) — the unreduced behavior, restored exactly where the
	// reduction's completeness argument breaks.
	all bool
}

// next returns the branch to explore after cur (-1 before the first),
// or -1 when none is left: not yet done, not skipped (unless all), and
// in the backtrack set when there is one. Frames without done marks
// scan upward from cur+1; DPOR frames rescan from zero, since race
// handling can schedule branches below cur.
func (f *mcFrame) next(cur int) int {
	from := cur + 1
	if f.done != nil {
		from = 0
	}
	for b := from; b < f.fanout; b++ {
		if f.done != nil && f.done[b] {
			continue
		}
		if f.all {
			return b
		}
		if f.skip != nil && f.skip[b] {
			continue
		}
		if f.bt == nil || f.bt[b] {
			return b
		}
	}
	return -1
}

// dsleepEntry is one member of a sleep set: the proc whose action was
// fully explored at an ancestor and found independent of everything
// chosen since, plus the footprint it had there (an action's footprint
// cannot change while only independent actions run).
type dsleepEntry struct {
	proc int32
	fp   footprint
}

// mcUnit is one frontier work unit: the subtree under a choice prefix,
// explored by exactly one worker.
type mcUnit struct {
	// root is the unit's choice prefix; rootFan the recorded fanout at
	// each root depth (for the replay-determinism check).
	root    []int
	rootFan []int
	// prefix/fanout are the DFS position: the full current path, root
	// included. Non-nil before the first run only when resuming a unit
	// that had started.
	prefix, fanout []int

	frames []*mcFrame
	// acc aggregates the unit root's fully explored subtree.
	acc      memoEntry
	res      ExploreResult
	complete bool

	// DPOR bookkeeping. freshFrom is the depth the current run first
	// diverges from the previous run's path: the events below it are the
	// previous run's, already race-scanned and still in the runner's event
	// table, which keeps them instead of recording them again. doneMask
	// carries the per-frame explored-branch bitmasks across a
	// checkpoint: collected by snapshot, serialized per unit, and
	// restored into the rebuilt frames on resume so out-of-order
	// backtracking never re-runs or loses a subtree.
	freshFrom int
	doneMask  []uint64
}

// mcRunner is one worker's reusable execution state: a machine (Reset
// between schedules instead of rebuilt), the chooser policy driving it
// with its pre-bound choose/onExec hooks, the per-thread history hashes,
// the DPOR event table of the unit it last ran, a free list of tree
// frames, the stacks that back the frames' variable-size bookkeeping, and
// the sorting and footprint scratch. Each frontier worker owns exactly one
// runner for its whole lifetime, so the steady-state exploration loop
// constructs no machine and, outside the memo arena's chunks, new
// outcomes and new witnesses, allocates nothing per run or per tree node.
type mcRunner struct {
	e    *mcEngine
	m    *Machine
	pol  *chooserPolicy
	hist []uint64 // per-thread request/response history hashes (Prune)

	// Per-run state referenced by the pre-bound choose hook.
	u        *mcUnit
	depth    int
	mismatch bool
	cut      bool
	credit   *memoEntry
	cutHW    []int
	// reorder counts the store→load reorderings accumulated along the
	// current schedule (bounded mode only; see MaxReorderings).
	reorder int
	// creditBuf is the runner-owned copy a memo hit decodes into: the
	// arena may evict the slot after the lookup, so credit never aliases
	// it.
	creditBuf memoEntry

	// dp is the DPOR event table (events, clocks, race tables) of the
	// path dpUnit last ran; nil unless ExhaustiveOptions.DPOR. shadow is
	// a new table each run, recording every event of it, under
	// ExhaustiveOptions.dporCheck only.
	dp     *dporState
	dpUnit *mcUnit
	shadow *dporState

	// free holds released frames for newFrame to reuse.
	free []*mcFrame

	hw          []int         // leaf high-water-mark scratch
	sleepSorted []dsleepEntry // stateKeyFor's sorted-sleep-set scratch
	fpR, fpW    []fpAddr      // footprintInto scratch for frame footprints

	// procStack, fpStack, addrStack, sleepStack and skipStack back the
	// procs, fps, footprint addresses, sleep sets and skip marks of the
	// frames on the current path, in path order: a new node's share
	// starts where its parent's ends, so descending reuses the space of
	// finalized subtrees instead of allocating per node. Older slices stay
	// valid when a stack grows: they keep the old backing array, which is
	// never written again.
	procStack  []int32
	fpStack    []footprint
	addrStack  []fpAddr
	sleepStack []dsleepEntry
	skipStack  []bool
}

// newRunner builds a worker's runner: the one machine and policy it will
// reuse for every schedule it executes. Callers own the machine's
// lifetime (Close it when the worker retires).
func (e *mcEngine) newRunner() *mcRunner {
	c := e.cfg
	c.MaxSteps = e.opts.MaxStepsPerRun
	r := &mcRunner{e: e, pol: &chooserPolicy{}}
	r.pol.choose = r.choose
	r.m = newChooserMachine(c, r.pol)
	if e.opts.Prune {
		// Each rolling history hash starts from a nonzero seed and mixes
		// a fixed-width record per request: a zero seed under a mixer with
		// a zero fixed point could not tell apart histories that differ
		// only by a prefix of all-zero records (repeated loads of address 0
		// reading 0 — exactly a thief polling an untouched head index),
		// and a variable-width record would leave the stream ambiguous.
		// Such histories would share a key and falsely merge their
		// subtrees.
		r.hist = make([]uint64, c.Threads)
		r.pol.onExec = func(req *request, resp response) {
			r.hist[req.tid] = historyMix(r.hist[req.tid], req, resp)
		}
	}
	if e.opts.DPOR {
		r.dp = newDPORState(c.Threads)
		// End-of-run forced drains are part of the run for dependence
		// purposes: they carry the remaining memory writes, so races
		// against them must still add backtrack points. Their events sit
		// past the last choice point, so they are never race *targets*
		// (dporRace's depth check rejects them) — only sources.
		r.m.flushHook = func(tid int) {
			r.dporStep(len(r.dp.events), action{drain: true, id: tid}, true)
		}
	}
	return r
}

// mcEngine is the shared state of one ExploreExhaustive call.
type mcEngine struct {
	cfg     Config
	mk      func(m *Machine) []func(Context)
	outcome func(m *Machine) string
	opts    ExhaustiveOptions
	bound   int // normalized MaxReorderings (-1: unbounded)

	memo *memoTable // nil unless Prune
	// outcomes numbers the outcome strings: the memo table's when there
	// is one, so its entries' ids stay valid across resumed legs.
	outcomes *outcomeIDs

	executed atomic.Int64 // machine runs charged against MaxRuns
	stopped  atomic.Bool  // budget exhausted or a worker panicked
}

// reorderDelta reports whether executing act in the machine's current
// state constitutes one store→load reordering: a load that reads shared
// memory while at least one of its own thread's earlier stores is still
// buffered (so the load completes ahead of them). A load satisfied by
// store-to-load forwarding contributes nothing — its value is the one
// program order demands — and drains and non-load requests never do.
func reorderDelta(m *Machine, act action) int {
	if act.drain {
		return 0
	}
	r := m.pending[act.id]
	if r == nil || r.kind != opLoad {
		return 0
	}
	b := m.bufs[act.id]
	if b.occupancy() == 0 {
		return 0
	}
	if _, fwd := b.forward(r.addr); fwd {
		return 0
	}
	return 1
}

// mixMemory folds words [0, n) of mem into k in address order, an
// unbacked word as 0: the same word sequence a flat array would give, so
// a key never depends on which words happen to be backed. It walks each
// page's backed slice directly, then the page's unbacked tail.
func mixMemory(k stateKey, mem *memory, n Addr) stateKey {
	for p, rest := 0, int(n); rest > 0; p++ {
		span := min(rest, pageWords)
		var pg []uint64
		if p < len(mem.pages) {
			pg = mem.pages[p]
		}
		pg = pg[:min(len(pg), span)]
		for _, w := range pg {
			k = k.mix(w)
		}
		for range span - len(pg) {
			k = k.mix(0)
		}
		rest -= span
	}
	return k
}

// stateKeyFor hashes the machine's canonical state at a choice point:
// step count, reserved memory, per-thread buffer contents and
// request/response histories, plus the arriving sleep set (two states
// explored under different sleep sets have different residual subtrees,
// so the sleep set is part of the identity in SleepSets mode). Outside
// DPOR a sleep set holds only drains, hashed as its size and then sorted
// (thread, drain effect address) pairs. Every variable-length component
// is preceded by its length, so each word lands at a fixed position.
func (r *mcRunner) stateKeyFor(m *Machine, hist []uint64, sleep []dsleepEntry) stateKey {
	k := keySeed.mix(uint64(m.steps)).mix(uint64(m.next))
	k = mixMemory(k, m.mem, m.next)
	for tid, b := range m.bufs {
		k = k.mix(uint64(tid)<<32 | uint64(len(b.entries)))
		for _, en := range b.entries {
			k = k.mix(uint64(en.addr)).mix(en.val)
		}
		if b.hasStage {
			k = k.mix(1).mix(uint64(b.stage.addr)).mix(b.stage.val)
		} else {
			k = k.mix(0)
		}
		k = k.mix(hist[tid])
	}
	k = k.mix(uint64(len(sleep)))
	if len(sleep) > 0 {
		// Sort into the runner's scratch: this runs once per visited
		// state, so a per-key copy would dominate the allocation profile.
		sorted := append(r.sleepSorted[:0], sleep...)
		slices.SortFunc(sorted, func(a, b dsleepEntry) int {
			if c := cmp.Compare(a.proc, b.proc); c != 0 {
				return c
			}
			return cmp.Compare(drainFPEffect(a.fp), drainFPEffect(b.fp))
		})
		r.sleepSorted = sorted
		for _, t := range sorted {
			tid := int(t.proc) - len(m.bufs)
			k = k.mix(uint64(tid)<<32 ^ uint64(drainFPEffect(t.fp)))
		}
	}
	if r.e.bound >= 0 {
		// Bounded mode: two otherwise-identical machine states with
		// different consumed reorder counts have different residual
		// budgets, hence different admissible subtrees — the count is part
		// of the canonical identity.
		k = k.mix(uint64(r.reorder))
	}
	return k
}

// childSleep fills the sleep set arriving at f, the child reached from
// the unit's deepest frame via its current branch: inherited entries
// still independent of the chosen action, plus every fully explored
// sibling that commutes with it. Explored siblings are the done ones
// under DPOR and the ones before the chosen branch otherwise. The set is
// carved from the runner's sleep stack past the parent's share.
func (r *mcRunner) childSleep(f *mcFrame) {
	u := r.u
	if len(u.frames) == 0 {
		return
	}
	p := u.frames[len(u.frames)-1]
	if p.procs == nil {
		return // resumed frame: action identities unknown
	}
	chosen := u.prefix[p.depth]
	cp, cfp := p.procs[chosen], p.fps[chosen]
	lo := f.sleepEnd
	out := r.sleepStack[:lo]
	for _, t := range p.dsleep {
		if !r.sleepDependent(t.proc, t.fp, cp, cfp) {
			out = append(out, t)
		}
	}
	for b := 0; b < p.fanout; b++ {
		explored := b < chosen
		if p.done != nil {
			explored = b != chosen && p.done[b]
		}
		if !explored {
			continue
		}
		if p.skip != nil && p.skip[b] {
			continue // never explored here; covered via an ancestor
		}
		if !r.sleepDependent(p.procs[b], p.fps[b], cp, cfp) {
			out = append(out, dsleepEntry{proc: p.procs[b], fp: p.fps[b]})
		}
	}
	r.sleepStack = out
	if len(out) > lo {
		f.dsleep = out[lo:len(out):len(out)]
		f.sleepEnd = len(out)
	}
}

// skipMarks gives f cleared skip marks, one per branch, carved from the
// runner's skip stack past the parent's share.
func (r *mcRunner) skipMarks(f *mcFrame) {
	lo := f.skipEnd
	st := r.skipStack[:lo]
	for range f.fanout {
		st = append(st, false)
	}
	r.skipStack = st
	f.skip = st[lo:len(st):len(st)]
	f.skipEnd = len(st)
}

// newFrame returns a frame for the node at depth with fanout branches,
// below u's deepest frame: a released one when there is one, else a new
// one. A reused frame keeps its marks array and its acc's buffers, which
// it empties: publishing copied the aggregate out, so no memo entry
// shares them.
func (r *mcRunner) newFrame(u *mcUnit, depth, fanout int) *mcFrame {
	var f *mcFrame
	if k := len(r.free); k > 0 {
		f = r.free[k-1]
		r.free = r.free[:k-1]
		*f = mcFrame{marks: f.marks, acc: memoEntry{counts: f.acc.counts[:0], maxOcc: f.acc.maxOcc[:0]}}
	} else {
		f = &mcFrame{}
	}
	f.depth, f.fanout = depth, fanout
	if k := len(u.frames); k > 0 {
		p := u.frames[k-1]
		f.brEnd, f.addrEnd, f.sleepEnd, f.skipEnd = p.brEnd, p.addrEnd, p.sleepEnd, p.skipEnd
	}
	return f
}

// release returns a frame no path holds any more to the free list.
func (r *mcRunner) release(f *mcFrame) {
	r.free = append(r.free, f)
}

// dporMarks gives f cleared backtrack and done sets over its marks array.
func (f *mcFrame) dporMarks() {
	n := f.fanout
	if cap(f.marks) < 2*n {
		f.marks = make([]bool, 2*n)
	}
	m := f.marks[:2*n]
	clear(m)
	f.bt, f.done = m[:n:n], m[n:]
}

// sleepDependent is the dependence relation sleep sets are computed
// over: dependent() under DPOR, and its drain/drain fragment otherwise —
// there a thread step counts as dependent on everything.
func (r *mcRunner) sleepDependent(procA int32, a footprint, procB int32, b footprint) bool {
	if r.dp == nil && (int(procA) < r.e.cfg.Threads || int(procB) < r.e.cfg.Threads) {
		return true
	}
	return dependent(procA, a, procB, b)
}

// sleepStep fills a new frame's sleep-set bookkeeping: each branch's
// proc and footprint (thread steps get one only under DPOR, since they
// never sleep outside it), the arriving sleep set, and the branches it
// covers — an entry covers a branch when proc and footprint both match,
// which under PSO tells apart the several drains of one buffer.
func (r *mcRunner) sleepStep(f *mcFrame, acts []action) {
	n := len(acts)
	br, ad := f.brEnd, f.addrEnd
	procs, fps, addrs := r.procStack[:br], r.fpStack[:br], r.addrStack[:ad]
	for _, a := range acts {
		procs = append(procs, procFor(r.e.cfg.Threads, a))
		var fp footprint
		if a.drain || r.dp != nil {
			fp = footprintInto(r.m, a, r.fpR, r.fpW)
			r.fpR, r.fpW = fp.reads, fp.writes // keep grown scratch
			lo := len(addrs)
			addrs = append(addrs, fp.reads...)
			mid := len(addrs)
			addrs = append(addrs, fp.writes...)
			fp = footprint{reads: addrs[lo:mid:mid], writes: addrs[mid:len(addrs):len(addrs)]}
		}
		fps = append(fps, fp)
	}
	r.procStack, r.fpStack, r.addrStack = procs, fps, addrs
	f.procs, f.fps = procs[br:br+n:br+n], fps[br:br+n:br+n]
	f.brEnd, f.addrEnd = br+n, len(addrs)
	r.childSleep(f)
	if len(f.dsleep) == 0 {
		return
	}
	r.skipMarks(f)
	for i := range acts {
		for _, t := range f.dsleep {
			if t.proc == f.procs[i] && fpEqual(t.fp, f.fps[i]) {
				f.skip[i] = true
				if r.dp != nil {
					r.u.res.Prune.DPORSleepSkips++
				} else {
					r.u.res.Prune.SleepSkips++
				}
				r.u.res.Prune.SubtreesCut++
				break
			}
		}
	}
}

// machineHWInto fills dst with the per-thread occupancy high-water marks.
// Callers pass a reusable scratch slice; every consumer (foldOcc) copies
// the values out, so aliasing the scratch is safe.
func machineHWInto(m *Machine, dst []int) []int {
	dst = dst[:0]
	for _, b := range m.bufs {
		dst = append(dst, b.maxOcc)
	}
	return dst
}

// exploreUnit runs the unit's subtree to completion or until the shared
// budget stops the engine, in which case the unit snapshots its resumable
// position. r is the calling worker's reusable runner.
func (e *mcEngine) exploreUnit(r *mcRunner, u *mcUnit) {
	rootLen := len(u.root)
	if u.prefix == nil {
		u.prefix = append([]int(nil), u.root...)
		u.fanout = append([]int(nil), u.rootFan...)
	} else {
		// Resumed mid-unit: rebuild empty frames for the checkpointed
		// path. Their subtrees were partially counted before the
		// checkpoint, so they must not be memoized, and sleep-set
		// identities are gone: the remaining
		// branches are all explored (sound, merely less pruned). Under
		// DPOR the checkpoint's done-masks say which branches finished
		// before the interruption; bt stays nil (= every branch), since
		// the backtrack reasoning that pruned the rest is gone too.
		for d := rootLen; d < len(u.prefix); d++ {
			f := r.newFrame(u, d, u.fanout[d])
			f.noMemo = true
			if e.opts.DPOR {
				f.dporMarks()
				f.bt = nil
				if di := d - rootLen; di < len(u.doneMask) {
					for b := range f.done {
						f.done[b] = u.doneMask[di]&(1<<b) != 0
					}
				}
			}
			u.frames = append(u.frames, f)
		}
		u.doneMask = nil
	}
	for {
		if e.stopped.Load() {
			u.snapshot(r)
			return
		}
		if n := e.executed.Add(1); int(n) > e.opts.MaxRuns {
			e.stopped.Store(true)
			u.snapshot(r)
			return
		}
		e.runOne(r, u)
		if !e.advance(r, u, rootLen) {
			return
		}
	}
}

// choose is the runner's pre-bound chooserPolicy hook: replay the unit's
// current prefix, then descend into new nodes. Every mode shares the one
// new-node path: build the frame, run the sleep step (SleepSets or
// DPOR), skip branches past the reorder bound, consult the memo table
// (Prune), then take the first branch left — seeding the backtrack set
// and recording the event under DPOR.
func (r *mcRunner) choose(acts []action) int {
	e, u, m := r.e, r.u, r.m
	d := r.depth
	n := len(acts)
	if d < len(u.prefix) {
		if e.bound >= 0 {
			r.reorder += reorderDelta(m, acts[u.prefix[d]])
		}
		if u.fanout[d] != n {
			r.mismatch = true
		}
		if r.dp != nil {
			// Race detection only fires from the depth this run first
			// diverges at.
			r.dporStep(d, acts[u.prefix[d]], d >= u.freshFrom)
		}
		r.depth++
		return u.prefix[d]
	}
	if e.bound >= 0 && r.reorder > e.bound {
		// The node itself sits past the bound. Reachable only through
		// positions recorded without per-branch skip marking — a unit root
		// from frontier splitting (splitting probes don't respect the
		// bound) or a sibling of a resumed frame (its skip array is gone).
		// No schedule through here is admissible, so nothing — not even
		// the occupancy high-water mark — is credited.
		u.res.Prune.ReorderSkips++
		u.res.Prune.SubtreesCut++
		r.cutHW = r.cutHW[:0]
		r.cut = true
		r.pol.cancel = true
		return 0
	}
	f := r.newFrame(u, d, n)
	u.res.Tree.node(d, n)
	if e.opts.SleepSets || r.dp != nil {
		r.sleepStep(f, acts)
	}
	if e.bound >= 0 && r.reorder >= e.bound {
		// At the bound exactly: any branch whose action is one more
		// reordering would exceed it, so prune it here. This is the whole
		// reduction — a load past a thread's own buffered stores is the
		// only way the count grows, so cutting these branches cuts every
		// over-bound schedule and nothing else. Sound alongside SleepSets:
		// the skipped drain orders commute, and commuting two drains of
		// different threads never changes any thread's own-buffer
		// occupancy, hence no load's reorder delta.
		for i := range acts {
			if (f.skip == nil || !f.skip[i]) && reorderDelta(m, acts[i]) > 0 {
				if f.skip == nil {
					r.skipMarks(f)
				}
				f.skip[i] = true
				u.res.Prune.ReorderSkips++
				u.res.Prune.SubtreesCut++
			}
		}
	}
	if e.opts.Prune {
		f.key = r.stateKeyFor(m, r.hist, f.dsleep)
		f.hashed = true
		u.res.Prune.StatesSeen++
		if e.memo.get(f.key, &r.creditBuf) {
			r.release(f)
			r.credit = &r.creditBuf
			r.cutHW = machineHWInto(m, r.cutHW)
			r.cut = true
			r.pol.cancel = true
			return 0
		}
	}
	b := f.next(-1)
	if b < 0 {
		// Every branch is covered by commuting explorations elsewhere:
		// the node contributes nothing of its own.
		r.release(f)
		r.cutHW = machineHWInto(m, r.cutHW)
		r.cut = true
		r.pol.cancel = true
		return 0
	}
	if r.dp != nil {
		f.dporMarks()
		f.bt[b] = true
		r.dporStep(d, acts[b], true)
	}
	if e.bound >= 0 {
		r.reorder += reorderDelta(m, acts[b])
	}
	u.frames = append(u.frames, f)
	u.prefix = append(u.prefix, b)
	u.fanout = append(u.fanout, n)
	r.depth++
	return b
}

// runOne executes one schedule on the runner's reused machine and
// accounts it in the deepest frame: a leaf, which may become its
// outcome's witness, or — when the run was abandoned at a memoized (or
// fully slept) node — that node's credit. A credit adds no witness: the
// schedule it stands for ran earlier, where its outcome was recorded.
// Either way the unit's prefix ends at the node the run stopped at.
func (e *mcEngine) runOne(r *mcRunner, u *mcUnit) {
	r.u = u
	r.depth = 0
	r.mismatch = false
	r.cut = false
	r.credit = nil
	r.reorder = 0
	for i := range r.hist {
		r.hist[i] = mixSeedA
	}
	m := r.m
	m.Reset()
	progs := e.mk(m)
	if r.dp != nil {
		// After mk, so every address is allocated. The table keeps the
		// events of the depths this run shares with the unit's previous
		// one; a unit's first run keeps none.
		keep := u.freshFrom
		if r.dpUnit != u {
			keep, r.dpUnit = 0, u
		}
		r.dp.begin(m, keep)
		if e.opts.dporCheck {
			r.shadow = newDPORState(e.cfg.Threads)
			r.shadow.begin(m, 0)
		}
	}
	err := m.Run(progs...)
	if r.shadow != nil {
		if d := r.dp.diff(r.shadow); d != "" {
			panic("tso: DPOR kept event table differs from a rebuild: " + d)
		}
	}
	if r.mismatch {
		panic("tso: Explore program is not replay-deterministic (fanout changed under an identical choice prefix)")
	}
	if r.cut {
		if !errors.Is(err, errRunCut) && err != nil && !errors.Is(err, ErrStepLimit) {
			panic(fmt.Sprintf("tso: litmus program failed: %v", err))
		}
		if e.opts.DPOR && errors.Is(err, ErrStepLimit) {
			// A cut run that also hit the step limit still crossed its
			// frames without exhibiting post-horizon races; taint them
			// like any truncated leaf (mcFrame.all).
			for _, f := range u.frames {
				f.all = true
			}
		}
		u.res.Runs++ // the aborted pass-through still ran on a machine
		if r.credit != nil {
			u.res.Prune.StatesDeduped++
			u.res.Prune.SubtreesCut++
			u.res.Prune.SchedulesSaved += r.credit.runs
		}
		e.accFor(u).foldCredit(r.credit, r.cutHW)
		return
	}

	// A run can end before consuming the whole prefix only on the replay
	// of choices that previously went deeper — which replay determinism
	// rules out — so the depth reached always covers the prefix.
	if r.depth < len(u.prefix) {
		panic("tso: exhaustive engine: run ended inside its replay prefix")
	}
	if e.bound >= 0 && r.reorder > e.bound {
		// The schedule's final action pushed it past the bound with no
		// later choice point to cut at — possible only through positions
		// without skip marking (resumed frames, unit roots). Discard the
		// leaf: it is not part of the bounded schedule set.
		u.res.Runs++
		u.res.Prune.ReorderSkips++
		u.res.Prune.SubtreesCut++
		return
	}
	stepLimited := false
	var o string
	switch {
	case errors.Is(err, ErrStepLimit):
		stepLimited = true
		o = StepLimitOutcome
	case err != nil:
		panic(fmt.Sprintf("tso: litmus program failed: %v", err))
	default:
		o = e.outcome(m)
	}
	u.res.Runs++
	if stepLimited {
		u.res.StepLimited++
		if e.opts.DPOR {
			// Bounded-DPOR soundness: the truncated run never exhibited
			// its post-horizon races, so the backtrack sets of the
			// frames it crossed may be missing reversals whose own runs
			// would have completed within the limit. Re-open every
			// branch of every node on its path (mcFrame.all).
			for _, f := range u.frames {
				f.all = true
			}
		}
	}
	r.hw = machineHWInto(m, r.hw)
	e.accFor(u).addLeaf(e.outcomes.id(o), r.hw, stepLimited)
	keepWitness(u.res.Witnesses, o, u.prefix[:r.depth])
}

// accFor is where a run is accounted: the deepest frame's accumulator
// when a memo table may publish that frame's subtree, else the unit's,
// since then nothing reads a frame's aggregate but the unit's total.
func (e *mcEngine) accFor(u *mcUnit) *memoEntry {
	if e.memo != nil && len(u.frames) > 0 {
		return &u.frames[len(u.frames)-1].acc
	}
	return &u.acc
}

// advance marks the retreating branch done (DPOR frames), then moves the
// unit's DFS position to the next unexplored branch at or below the unit
// root, finalizing (and memoizing) every node it retreats past. It
// reports false when the unit's subtree is exhausted.
func (e *mcEngine) advance(r *mcRunner, u *mcUnit, rootLen int) bool {
	for i := len(u.prefix) - 1; i >= rootLen; i-- {
		f := u.frames[i-rootLen]
		if f.done != nil {
			f.done[u.prefix[i]] = true
		}
		if nb := f.next(u.prefix[i]); nb >= 0 {
			e.finalizeFrames(r, u, i+1)
			u.prefix = u.prefix[:i+1]
			u.fanout = u.fanout[:i+1]
			u.prefix[i] = nb
			u.freshFrom = i
			return true
		}
	}
	e.finalizeFrames(r, u, rootLen)
	u.complete = true
	return false
}

// finalizeFrames pops every frame at depth >= downTo, publishing complete
// subtrees to the memo table, folding them into their parent, and
// releasing the frame.
func (e *mcEngine) finalizeFrames(r *mcRunner, u *mcUnit, downTo int) {
	for len(u.frames) > 0 {
		f := u.frames[len(u.frames)-1]
		if f.depth < downTo {
			return
		}
		u.frames = u.frames[:len(u.frames)-1]
		if f.hashed && !f.noMemo {
			e.memo.put(f.key, &f.acc)
		}
		e.accFor(u).fold(&f.acc)
		r.release(f)
	}
}

// snapshot flushes partial frame accumulators into the unit result (they
// are part of the counts already reported via the checkpoint), releases
// the frames to r, and leaves prefix/fanout as the resumable position.
// Nothing is memoized: the flushed subtrees are incomplete. DPOR frames
// additionally deposit their explored-branch bitmasks in doneMask so the
// checkpoint can restore them — without this, an out-of-order backtrack
// schedule would make the resumed ascending sweep unsound.
func (u *mcUnit) snapshot(r *mcRunner) {
	rootLen := len(u.root)
	for len(u.frames) > 0 {
		f := u.frames[len(u.frames)-1]
		u.frames = u.frames[:len(u.frames)-1]
		if f.done != nil {
			if u.doneMask == nil {
				u.doneMask = make([]uint64, len(u.prefix)-rootLen)
			}
			if di := f.depth - rootLen; di >= 0 && di < len(u.doneMask) {
				u.doneMask[di] = doneMaskOf(f.done)
			}
		}
		if len(u.frames) > 0 {
			u.frames[len(u.frames)-1].acc.fold(&f.acc)
		} else {
			u.acc.fold(&f.acc)
		}
		r.release(f)
	}
}
