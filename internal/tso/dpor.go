package tso

import (
	"errors"
	"fmt"
	"slices"
)

// Source-set dynamic partial-order reduction (ExhaustiveOptions.DPOR),
// built on the dependence layer in depend.go.
//
// The algorithm is Abdulla/Aronis/Jonsson/Sagonas source-DPOR
// specialized to the TSO[S] machine's two proc kinds (threads and
// store buffers):
//
//   - Every executed run records one event per choice point, carrying
//     the chosen action's proc and footprint plus a vector clock over
//     the 2T procs. Happens-before is per-proc order plus a
//     dependence edge between every ordered conflicting pair.
//   - Race detection: while extending the run, each fresh event e is
//     checked against the last writer of every address it touches and
//     the readers since (a sound over-approximation of "dependent and
//     adjacent in happens-before"); a pair (i, e) with different procs
//     and no intermediate happens-before path is a reversible race.
//   - For each race the engine ensures the backtrack set of the frame
//     where i was chosen contains some initial of the reversing
//     sequence v = (events after i not ordered after i) · e — the
//     source-set condition. Frames explore exactly their backtrack set
//     minus their sleep set.
//   - Sleep sets use the same dependence relation in full; SleepSets
//     uses only its drain/drain fragment. Both run through mc.go's one
//     childSleep, so SleepSets is a strict special case and is
//     superseded under DPOR.
//
// What DPOR preserves and what it rejects:
//
//   - The outcome *set* (and Complete, and MaxOccupancy — a thread's
//     own-buffer push/drain order is invariant within a Mazurkiewicz
//     class because store_t and drain_t conflict on bufAddr(t)) is
//     preserved; per-outcome counts collapse to one representative per
//     class, so canonical-state memoization's count-preserving credit
//     would be wrong above a DPOR node and Prune is auto-disabled
//     (withDefaults) — DPOR's race detection must see every executed
//     suffix anyway, which a memo cut would hide.
//   - MaxStepsPerRun composes soundly: equivalent runs are
//     permutations of the same events, hence equal length, so uniform
//     truncation at the step budget cuts whole classes, never part of
//     one. This is what upgrades the spin-lock duel to a completed
//     bounded proof (core/laws_test.go).
//   - ModelPSO is rejected: PSO drains of one buffer are not mutually
//     ordered (per-address FIFO only), which breaks the buffer-as-proc
//     abstraction. MaxReorderings >= 1 is rejected: the bound is not
//     closed under commuting swaps (a class's representative can carry
//     a different reorder count than the member that witnessed it), so
//     bounded outcome sets would not be preserved (ExhaustiveOptions.
//     Validate returns these refusals). Bounded POR à la
//     Coons/Musuvathi (BPOR) is the documented open follow-up.

// DPOR refusals, returned by ExhaustiveOptions.Validate (and so by every
// entry point that consults it); wrap-compare with errors.Is.
var (
	// ErrDPORModel: DPOR under ModelPSO.
	ErrDPORModel = errors.New("tso: DPOR requires ModelTSO: PSO drains of one buffer are not serialized, which breaks the dependence layer's buffer-as-proc abstraction")
	// ErrDPORReorder: DPOR combined with MaxReorderings >= 1.
	ErrDPORReorder = errors.New("tso: DPOR cannot combine with MaxReorderings: the reorder bound is not closed under commuting swaps, so a class representative may be pruned while the class stays reachable")
	// ErrDPORThreads: DPOR with more threads than a checkpoint done-mask
	// can cover.
	ErrDPORThreads = errors.New("tso: DPOR supports at most 31 threads (checkpoint done-masks hold one bit per branch, fanout <= 2*threads <= 62)")
)

// Validate reports whether the options can explore programs on c: nil,
// or the DPOR refusal (ErrDPORModel, ErrDPORReorder, ErrDPORThreads)
// that ExploreExhaustive would panic with and ShardFrontier would
// return. Callers holding externally supplied options check here first.
func (o ExhaustiveOptions) Validate(c Config) error {
	if !o.DPOR {
		return nil
	}
	switch {
	case c.Model == ModelPSO:
		return ErrDPORModel
	case o.MaxReorderings > 0:
		return ErrDPORReorder
	case c.Threads > 31:
		return ErrDPORThreads
	}
	return nil
}

// dporVCap bounds the reversing-sequence window race handling analyzes
// exactly; beyond it the handler falls back to the first-event initial,
// which is always sound (merely adds backtrack points it could have
// proven redundant).
const dporVCap = 128

// dporState is one runner's DPOR event table: the executed events (one
// per choice point, so event index == depth, then the end-of-run forced
// drains), their vector clocks and footprints, and the per-address
// last-writer/readers tables driving race detection. The table outlives
// the run that built it. A run replays the previous run's choices up to
// the depth it first diverges at (mcUnit.freshFrom), and by replay
// determinism those events are the previous run's, so begin keeps them
// and undoes only what later events wrote. Every event carries the undo
// record for that: the lastW and reader-window start of each slot it
// writes, and its proc's previous latest event. readers[s] is
// append-only, so undoing an event pops its reads off the tail. The
// table lives in the process only; a resumed unit rebuilds it.
type dporState struct {
	threads int
	nProcs  int // 2*threads: thread procs then buffer procs
	base    int // real-address slot count; buffer t maps to base+t; -1 before the first begin

	events []dporEvent
	clocks []int32    // len(events) × nProcs, row-major; clocks[e][q] = index of q's latest event happening-before e, or -1
	arena  []fpAddr   // every event's reads then writes
	undo   []slotUndo // per event, one record per write, in write order

	lastOfProc []int32   // latest event per proc, -1 if none
	lastW      []int32   // per slot: latest writer event, -1
	readers    [][]int32 // per slot: every reader event of the table, in event order
	rStart     []int32   // per slot: where the readers since lastW begin in readers[s]

	// scratch
	fpR, fpW []fpAddr
	vbuf     []int32
	initBuf  []int32
	seenBuf  []int32
}

// dporEvent is one event of the table: its proc, its footprint's place in
// the arena, where its write undo records start, and the proc's latest
// event before it.
type dporEvent struct {
	proc                   int32
	prevOfProc             int32
	rOff, rLen, wOff, wLen int32
	uOff                   int32
}

// slotUndo is what an event's write to a slot overwrote.
type slotUndo struct{ lastW, rStart int32 }

func newDPORState(threads int) *dporState {
	dp := &dporState{threads: threads, nProcs: 2 * threads, base: -1}
	dp.lastOfProc = make([]int32, dp.nProcs)
	for i := range dp.lastOfProc {
		dp.lastOfProc[i] = -1
	}
	return dp
}

// begin prepares the table for a run whose first keep events are the
// ones it already holds, truncating every later one. Called after the
// run's programs are built (all addresses allocated) and before the
// first step. A run whose address layout differs from the table's keeps
// nothing; truncating to zero is also how the first run of a unit starts.
func (dp *dporState) begin(m *Machine, keep int) {
	base := int(m.next)
	if base != dp.base {
		keep = 0
	}
	dp.truncate(min(keep, len(dp.events)))
	if base != dp.base {
		dp.base = base
		slots := base + dp.threads
		dp.lastW, dp.rStart, dp.readers = dp.lastW[:0], dp.rStart[:0], dp.readers[:0]
		for range slots {
			dp.lastW = append(dp.lastW, -1)
			dp.rStart = append(dp.rStart, 0)
			dp.readers = append(dp.readers, nil)
		}
	}
}

// truncate undoes every event at index >= k, newest first: pop its
// reads off their reader lists, restore each written slot's writer and
// reader window, and restore its proc's latest event.
func (dp *dporState) truncate(k int) {
	for e := len(dp.events) - 1; e >= k; e-- {
		ev := &dp.events[e]
		for _, x := range dp.arena[ev.rOff : ev.rOff+ev.rLen] {
			s := dp.slot(x)
			dp.readers[s] = dp.readers[s][:len(dp.readers[s])-1]
		}
		writes := dp.arena[ev.wOff : ev.wOff+ev.wLen]
		for i := len(writes) - 1; i >= 0; i-- {
			s, u := dp.slot(writes[i]), dp.undo[int(ev.uOff)+i]
			dp.lastW[s], dp.rStart[s] = u.lastW, u.rStart
		}
		dp.lastOfProc[ev.proc] = ev.prevOfProc
	}
	if k < len(dp.events) {
		ev := dp.events[k]
		dp.arena = dp.arena[:ev.rOff]
		dp.undo = dp.undo[:ev.uOff]
		dp.events = dp.events[:k]
		dp.clocks = dp.clocks[:k*dp.nProcs]
	}
}

// slot maps an extended address to its table index.
func (dp *dporState) slot(x fpAddr) int {
	if x >= 0 {
		if int(x) >= dp.base {
			panic("tso: DPOR saw an address allocated after the run started; allocate all addresses in the program factory")
		}
		return int(x)
	}
	return dp.base + int(-x) - 1
}

func (dp *dporState) clockOf(ev int32) []int32 {
	off := int(ev) * dp.nProcs
	return dp.clocks[off : off+dp.nProcs]
}

func (dp *dporState) eventFP(ev int32) footprint {
	e := &dp.events[ev]
	return footprint{
		reads:  dp.arena[e.rOff : e.rOff+e.rLen],
		writes: dp.arena[e.wOff : e.wOff+e.wLen],
	}
}

// readersSince returns the reader events of slot s since its latest write.
func (dp *dporState) readersSince(s int) []int32 {
	return dp.readers[s][dp.rStart[s]:]
}

// diff describes the first difference between dp and o as event tables
// of the same path — event procs, clocks and footprints, each slot's
// latest writer and readers since it, each proc's latest event — or
// returns "" when they agree. Undo records and reader events older than
// a slot's latest write are bookkeeping, not table state, and are not
// compared. It backs the kept-table check ExhaustiveOptions.dporCheck
// turns on.
func (dp *dporState) diff(o *dporState) string {
	if len(dp.events) != len(o.events) || dp.base != o.base {
		return fmt.Sprintf("%d events over %d addresses, rebuilt %d over %d", len(dp.events), dp.base, len(o.events), o.base)
	}
	for e := int32(0); e < int32(len(dp.events)); e++ {
		a, b := dp.eventFP(e), o.eventFP(e)
		switch {
		case dp.events[e].proc != o.events[e].proc:
			return fmt.Sprintf("event %d: proc %d, rebuilt %d", e, dp.events[e].proc, o.events[e].proc)
		case !slices.Equal(dp.clockOf(e), o.clockOf(e)):
			return fmt.Sprintf("event %d: clock %v, rebuilt %v", e, dp.clockOf(e), o.clockOf(e))
		case !fpEqual(a, b):
			return fmt.Sprintf("event %d: footprint %v, rebuilt %v", e, a, b)
		}
	}
	if !slices.Equal(dp.lastOfProc, o.lastOfProc) {
		return fmt.Sprintf("latest event per proc %v, rebuilt %v", dp.lastOfProc, o.lastOfProc)
	}
	for s := range dp.lastW {
		if dp.lastW[s] != o.lastW[s] {
			return fmt.Sprintf("slot %d: last writer %d, rebuilt %d", s, dp.lastW[s], o.lastW[s])
		}
		if !slices.Equal(dp.readersSince(s), o.readersSince(s)) {
			return fmt.Sprintf("slot %d: readers %v, rebuilt %v", s, dp.readersSince(s), o.readersSince(s))
		}
	}
	return ""
}

// dporStep records the event of executing act as event ev of the run:
// into the event table unless the table kept it from the previous run
// (ev below its length), and into the from-scratch shadow when one is
// checked against it.
func (r *mcRunner) dporStep(ev int, act action, fresh bool) {
	if ev >= len(r.dp.events) {
		r.dporRecord(r.dp, act, fresh)
	}
	if r.shadow != nil {
		r.dporRecord(r.shadow, act, false)
	}
}

// dporRecord appends to dp the event for executing act at the current
// depth, updating clocks and — when the event is fresh (not a replay of
// an already-scanned prefix) — running race detection, which may add
// backtrack points to ancestor frames.
func (r *mcRunner) dporRecord(dp *dporState, act action, fresh bool) {
	fp := footprintInto(r.m, act, dp.fpR, dp.fpW)
	dp.fpR, dp.fpW = fp.reads, fp.writes // keep grown scratch
	p := procFor(dp.threads, act)
	n := len(dp.events)

	// Materialize the event's clock row: program order from the proc's
	// previous event, then joins for every conflict edge found below.
	need := (n + 1) * dp.nProcs
	if cap(dp.clocks) < need {
		nc := make([]int32, len(dp.clocks), need*2)
		copy(nc, dp.clocks)
		dp.clocks = nc
	}
	dp.clocks = dp.clocks[:need]
	clk := dp.clocks[n*dp.nProcs : need]
	if lp := dp.lastOfProc[p]; lp >= 0 {
		copy(clk, dp.clockOf(lp))
	} else {
		for i := range clk {
			clk[i] = -1
		}
	}
	clk[p] = int32(n)

	join := func(w int32) {
		for i, v := range dp.clockOf(w) {
			if v > clk[i] {
				clk[i] = v
			}
		}
	}
	// A partner i races with the new event iff it belongs to another
	// proc and no happens-before path reaches it through the edges
	// accumulated so far (program order plus conflicts already joined):
	// such a path would pass through an intermediate event, and races
	// are exactly the conflict pairs with no intermediate.
	check := func(w int32) {
		if fresh && dp.events[w].proc != p && clk[dp.events[w].proc] < w {
			r.dporRace(w, p, fp)
		}
	}
	for _, x := range fp.reads {
		s := dp.slot(x)
		if w := dp.lastW[s]; w >= 0 {
			check(w)
			join(w)
		}
	}
	for _, x := range fp.writes {
		s := dp.slot(x)
		if w := dp.lastW[s]; w >= 0 {
			check(w)
			join(w)
		}
		for _, rd := range dp.readersSince(s) {
			check(rd)
			join(rd)
		}
	}
	uOff := int32(len(dp.undo))
	for _, x := range fp.writes {
		s := dp.slot(x)
		dp.undo = append(dp.undo, slotUndo{dp.lastW[s], dp.rStart[s]})
		dp.lastW[s] = int32(n)
		dp.rStart[s] = int32(len(dp.readers[s]))
	}
	for _, x := range fp.reads {
		s := dp.slot(x)
		dp.readers[s] = append(dp.readers[s], int32(n))
	}
	rOff := int32(len(dp.arena))
	dp.arena = append(dp.arena, fp.reads...)
	wOff := int32(len(dp.arena))
	dp.arena = append(dp.arena, fp.writes...)
	dp.events = append(dp.events, dporEvent{
		proc: p, prevOfProc: dp.lastOfProc[p],
		rOff: rOff, rLen: int32(len(fp.reads)), wOff: wOff, wLen: int32(len(fp.writes)),
		uOff: uOff,
	})
	dp.lastOfProc[p] = int32(n)
}

// dporRace handles one reversible race between event i and the event
// being appended (proc eProc, footprint eFP, index len(dp.events)): it
// ensures the backtrack set of the frame that chose i schedules some
// initial of the reversing sequence v = (events after i not ordered
// after i) · e. Races whose frame sits in the unit's fixed root prefix
// are ignored — sibling units own those reversals — as are races into
// resumed frames, which already explore every remaining branch.
func (r *mcRunner) dporRace(i int32, eProc int32, eFP footprint) {
	u, dp := r.u, r.dp
	rootLen := len(u.root)
	d := int(i) // event index == tree depth: one event per choice point
	if d < rootLen {
		return
	}
	fi := d - rootLen
	if fi >= len(u.frames) {
		return
	}
	f := u.frames[fi]
	if f.procs == nil {
		return // resumed frame: bt == all, nothing to add
	}
	u.res.Prune.DPORRaces++

	ip := dp.events[i].proc
	n := int32(len(dp.events))
	v := dp.vbuf[:0]
	for k := i + 1; k < n; k++ {
		if dp.clockOf(k)[ip] >= i {
			continue // i happens-before k: not part of the reversal
		}
		v = append(v, k)
	}
	dp.vbuf = v

	// Initials of v·e: procs whose first event in the sequence has no
	// dependent predecessor in it. The first event of the sequence is
	// always an initial; when the window is too large for the exact
	// O(|v|²) computation, using that single initial is sound (the
	// skip check below just fires less often).
	initProcs := dp.initBuf[:0]
	seen := dp.seenBuf[:0]
	exact := len(v) <= dporVCap
	for idx, k := range v {
		kp := dp.events[k].proc
		if procsContain(seen, kp) {
			continue
		}
		seen = append(seen, kp)
		dep := false
		if exact {
			kfp := dp.eventFP(k)
			for _, j := range v[:idx] {
				if fpConflict(dp.eventFP(j), kfp) {
					dep = true
					break
				}
			}
		} else {
			dep = idx > 0
		}
		if !dep {
			initProcs = append(initProcs, kp)
		}
	}
	if !procsContain(seen, eProc) {
		dep := false
		if exact {
			for _, j := range v {
				if fpConflict(dp.eventFP(j), eFP) {
					dep = true
					break
				}
			}
		} else {
			dep = len(v) > 0
		}
		if !dep {
			initProcs = append(initProcs, eProc)
		}
	}
	dp.initBuf, dp.seenBuf = initProcs, seen

	// Source-set condition: if the backtrack set already schedules an
	// initial, this race's reversal is covered.
	for b := 0; b < f.fanout; b++ {
		if f.bt[b] && procsContain(initProcs, f.procs[b]) {
			return
		}
	}
	for _, q := range initProcs {
		for b := 0; b < f.fanout; b++ {
			if f.procs[b] == q {
				if !f.bt[b] {
					f.bt[b] = true
					u.res.Prune.DPORBacktracks++
				}
				return
			}
		}
	}
	// No initial has a branch at the frame. The enabledness argument in
	// depend.go's model says this cannot happen; schedule everything as
	// a sound fallback rather than trusting it.
	for b := 0; b < f.fanout; b++ {
		if !f.bt[b] {
			f.bt[b] = true
			u.res.Prune.DPORBacktracks++
		}
	}
}

func procsContain(s []int32, p int32) bool {
	for _, v := range s {
		if v == p {
			return true
		}
	}
	return false
}

// doneMaskOf packs a frame's done set into a checkpoint bitmask.
func doneMaskOf(done []bool) uint64 {
	if len(done) > 64 {
		panic(fmt.Sprintf("tso: DPOR fanout %d exceeds the checkpoint done-mask width", len(done)))
	}
	var m uint64
	for b, d := range done {
		if d {
			m |= 1 << b
		}
	}
	return m
}
