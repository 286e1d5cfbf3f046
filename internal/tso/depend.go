package tso

// This file is the exhaustive engine's dependence layer: one
// classification of every schedulable action — thread steps (load,
// store, fence, CAS, work) and store-buffer drains — by its read/write
// footprint over an extended address space, and the relations every
// pruning mode derives from it.
//
//   - dependent(): the single commutativity oracle. Two actions commute
//     (swapping them in any schedule changes neither the final state nor
//     each other's enabledness) unless they belong to the same proc or
//     their footprints conflict (write/write or read/write overlap).
//     Source-set DPOR (dpor.go) consumes exactly this relation.
//   - Sleep sets (mc.go's childSleep) are computed over dependent() in
//     every mode: over all of it under DPOR, and over its drain/drain
//     fragment under SleepSets, where only drains ever sleep and a
//     thread step counts as dependent on everything.
//   - Per-run vector clocks over the executed events (dpor.go) define
//     happens-before as the transitive closure of per-proc order plus
//     dependence across procs — the relation race detection needs.
//
// The extended address space: every shared-memory word keeps its Addr,
// and every thread's store buffer gets one pseudo-address bufAddr(t)
// (encoded negative so it can never collide with a real word). The
// pseudo-address is what makes buffer mutations visible to a purely
// read/write relation: a store pushes into its own buffer (writes B_t),
// a drain pops from it (writes B_t plus the drained word), and a load
// consults it for forwarding (reads B_t). Footprints are conservative
// over-approximations of the true effect — e.g. a store into a full
// buffer forces a drain, so it is charged with every address the buffer
// currently holds — which is sound for every consumer: an
// over-approximated dependence can only schedule extra explorations,
// never skip a required one.
//
// Procs: thread t is proc t; thread t's store buffer is proc T+t. A
// buffer's drains are serialized with each other (TSO's FIFO drain
// rule) but interleave freely with the owning thread's steps — exactly
// the asynchrony the paper's TSO[S] machine models — so a buffer gets
// its own proc rather than sharing its thread's. Under PSO the drains
// of one buffer are *not* serialized (the order is per-address only),
// which breaks the proc abstraction; DPOR therefore requires ModelTSO
// (see ExhaustiveOptions.Validate). SleepSets does run under PSO: its
// sleep entries match on footprint as well as proc, which tells the
// drains of one buffer apart.

import "slices"

// fpAddr is an address in the extended (memory ∪ buffer pseudo-address)
// space: real words are their non-negative Addr, buffers are negative.
type fpAddr int32

// bufAddr is the pseudo-address of thread tid's store buffer.
func bufAddr(tid int) fpAddr { return fpAddr(-(tid + 1)) }

// footprint is an action's read and write sets over the extended address
// space. The slices are tiny (a handful of entries) and unsorted.
type footprint struct {
	reads, writes []fpAddr
}

func fpContains(s []fpAddr, x fpAddr) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func fpOverlap(a, b []fpAddr) bool {
	for _, x := range a {
		if fpContains(b, x) {
			return true
		}
	}
	return false
}

// fpConflict reports whether two footprints conflict: any write of one
// overlaps a read or write of the other.
func fpConflict(a, b footprint) bool {
	return fpOverlap(a.writes, b.writes) ||
		fpOverlap(a.reads, b.writes) ||
		fpOverlap(a.writes, b.reads)
}

// dependent is the engine's one commutativity oracle: two actions are
// dependent iff they belong to the same proc (per-proc order is fixed)
// or their footprints conflict.
func dependent(procA int32, a footprint, procB int32, b footprint) bool {
	return procA == procB || fpConflict(a, b)
}

// procFor maps an action to its dependence proc: thread t is proc t,
// thread t's store buffer is proc threads+t.
func procFor(threads int, act action) int32 {
	if act.drain {
		return int32(threads + act.id)
	}
	return int32(act.id)
}

// footprintInto computes act's footprint in m's current state, appending
// into the provided backing slices (reset to length zero first) so hot
// paths can reuse scratch. The returned footprint aliases them.
func footprintInto(m *Machine, act action, reads, writes []fpAddr) footprint {
	reads, writes = reads[:0], writes[:0]
	if act.drain {
		// A drain mutates its buffer and, unless the step is internal (a
		// move into the stage, or a same-address coalesce), writes one
		// memory word.
		writes = append(writes, bufAddr(act.id))
		if eff := drainEffect(m, act); eff >= 0 {
			writes = append(writes, fpAddr(eff))
		}
		return footprint{reads: reads, writes: writes}
	}
	req := m.pending[act.id]
	if req == nil {
		return footprint{reads: reads, writes: writes}
	}
	b := m.bufs[act.id]
	switch req.kind {
	case opLoad:
		// Reads the word (from memory or by forwarding) and consults the
		// buffer; charged with both so it conflicts with its own buffer's
		// drains — a drain changes whether the load forwards.
		reads = append(reads, fpAddr(req.addr), bufAddr(act.id))
	case opStore:
		writes = append(writes, bufAddr(act.id))
		if b.full() {
			// A store into a full buffer forces a drain before pushing;
			// charge it with everything the buffer could flush.
			writes = appendBuffered(writes, b)
		}
	case opFence:
		writes = append(writes, bufAddr(act.id))
		writes = appendBuffered(writes, b)
	case opCAS:
		// Drains the whole buffer, then reads and writes the target word
		// atomically.
		reads = append(reads, fpAddr(req.addr))
		writes = append(writes, fpAddr(req.addr), bufAddr(act.id))
		writes = appendBuffered(writes, b)
	case opWork:
		// Thread-local; no shared effect.
	}
	return footprint{reads: reads, writes: writes}
}

// drainFPEffect inverts footprintInto for a drain: the memory word the
// drain writes, or -1 for a buffer-internal step.
func drainFPEffect(fp footprint) Addr {
	if len(fp.writes) < 2 {
		return -1
	}
	return Addr(fp.writes[1])
}

// fpEqual reports whether two footprints are element-wise identical.
func fpEqual(a, b footprint) bool {
	return slices.Equal(a.reads, b.reads) && slices.Equal(a.writes, b.writes)
}

// appendBuffered adds every address the buffer currently holds (entries
// and drain stage), deduplicated against dst.
func appendBuffered(dst []fpAddr, b *storeBuffer) []fpAddr {
	for _, en := range b.entries {
		if x := fpAddr(en.addr); !fpContains(dst, x) {
			dst = append(dst, x)
		}
	}
	if b.hasStage {
		if x := fpAddr(b.stage.addr); !fpContains(dst, x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// drainEffect mirrors storeBuffer.drainOne/drainAt: the address the drain
// writes to memory, or -1 for buffer-internal steps.
func drainEffect(m *Machine, act action) Addr {
	b := m.bufs[act.id]
	if m.cfg.Model == ModelPSO {
		return b.entries[act.idx].addr
	}
	if !b.useStage {
		return b.entries[0].addr
	}
	switch {
	case len(b.entries) == 0 && b.hasStage:
		return b.stage.addr
	case !b.hasStage:
		return -1 // head moves into the empty stage
	case b.entries[0].addr == b.stage.addr:
		return -1 // same-address coalesce
	default:
		return b.stage.addr
	}
}
