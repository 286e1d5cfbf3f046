package tso

// This file is the exhaustive engine's memo arena: the canonical-state →
// subtree-aggregate table behind Prune, restructured from one global
// RWMutex-guarded map into power-of-two lock stripes with arena-backed
// entry storage. Each stripe owns a slab of memoEntry values (admitted
// entries are copied in, so the per-entry header allocations of a
// map[stateKey]*memoEntry disappear), an index from key to slot, and a
// FIFO clock that evicts the stripe's oldest entry once the slab is
// full. Eviction is sound for the same reason the old stop-admitting
// policy was: entries are exact immutable aggregates consulted only for
// dedup, so losing one can cost re-exploration but never moves a count.
//
// The stripe is chosen from the low bits of the key's first fingerprint
// word, whose mixer ends every round with a rotate and an odd multiply,
// so those bits depend on the whole state; workers exploring
// different subtrees therefore contend only when they genuinely converge
// on the same stripe, and the contended counter (lock acquisitions that
// found the lock held) makes the residual contention observable — the
// tsoserve /metrics gauges read it out.

import "sync"

// MemoStats describes the memo arena at the end of an exploration — the
// saturation signals (occupancy, evictions) and the stripe-lock
// contention the table absorbed. All zero when pruning was off. An
// exploration that continues a resumed checkpoint's table reports what it
// added to it, so the stats of a chain of legs sum to the table's.
type MemoStats struct {
	// Stripes is the number of lock stripes the arena ran with.
	Stripes int `json:"stripes,omitempty"`
	// Entries is the number of memoized states resident at the end.
	Entries int `json:"entries,omitempty"`
	// Admitted counts entries written over the exploration (evicted slots
	// are re-admitted, so Admitted can exceed the arena capacity).
	Admitted int64 `json:"admitted,omitempty"`
	// Evicted counts entries displaced by the per-stripe FIFO clock once
	// their stripe filled.
	Evicted int64 `json:"evicted,omitempty"`
	// Contended counts lock acquisitions that found the stripe lock held
	// by another worker — the direct measure of memo-table contention.
	Contended int64 `json:"contended,omitempty"`
}

// since returns the statistics s accumulated after base, a snapshot of
// the same table: what one exploration added to a table it continued.
func (s MemoStats) since(base MemoStats) MemoStats {
	s.Entries -= base.Entries
	s.Admitted -= base.Admitted
	s.Evicted -= base.Evicted
	s.Contended -= base.Contended
	return s
}

func (s *MemoStats) merge(o MemoStats) {
	if o.Stripes > s.Stripes {
		s.Stripes = o.Stripes
	}
	s.Entries += o.Entries
	s.Admitted += o.Admitted
	s.Evicted += o.Evicted
	s.Contended += o.Contended
}

// memoStripe is one lock-striped slice of the arena. All fields are
// guarded by mu; contended is incremented after acquisition, so it needs
// no atomics.
type memoStripe struct {
	mu    sync.Mutex
	idx   map[stateKey]int32
	slab  []memoEntry
	keys  []stateKey
	clock int // next eviction victim once the slab is full

	admitted  int64
	evicted   int64
	contended int64
}

// lock acquires the stripe, counting the acquisitions that had to wait.
func (s *memoStripe) lock() {
	if s.mu.TryLock() {
		return
	}
	s.mu.Lock()
	s.contended++
}

// memoTable is the striped memo arena. The stripe count is a power of
// two so stripe selection is a mask of the key's fingerprint.
type memoTable struct {
	stripes []memoStripe
	mask    uint64
	perCap  int // per-stripe entry capacity (memoLimit / stripes, >= 1)
	scope   memoScope
}

// memoScope is what an entry's aggregate depends on besides its state
// key: sleep sets reduce the counts below a state and the step limit
// truncates its runs. A resumed exploration continues its checkpoint's
// table only under the same scope (the reorder bound is hashed into the
// key, and resume refuses a different one anyway).
type memoScope struct {
	sleepSets bool
	maxSteps  int64
}

func newMemoScope(o ExhaustiveOptions) memoScope {
	return memoScope{sleepSets: o.SleepSets, maxSteps: o.MaxStepsPerRun}
}

// newMemoTable sizes the arena: stripes rounded up to a power of two,
// the entry limit divided evenly among them.
func newMemoTable(stripes, limit int) *memoTable {
	n := 1
	for n < stripes {
		n <<= 1
	}
	perCap := limit / n
	if perCap < 1 {
		perCap = 1
	}
	return &memoTable{stripes: make([]memoStripe, n), mask: uint64(n - 1), perCap: perCap}
}

// get copies the entry for k into dst and reports whether one existed.
// Copying under the stripe lock is what makes eviction safe: a slot may
// be overwritten the instant the lock drops, but dst — and the immutable
// counts map and occupancy slice it references — never goes stale.
func (t *memoTable) get(k stateKey, dst *memoEntry) bool {
	s := &t.stripes[k.a&t.mask]
	s.lock()
	i, ok := s.idx[k]
	if ok {
		*dst = s.slab[i]
	}
	s.mu.Unlock()
	return ok
}

// put admits the aggregate for k, copying *ent into the arena (the
// caller's frame accumulator is about to be discarded; its maps and
// slices transfer to the slab and are immutable from here on). A full
// stripe evicts its oldest entry FIFO — the states hashed longest ago
// are the ones the DFS is least likely to converge back to. Duplicate
// keys keep the first-published entry, matching the old map's semantics
// (both candidates are the same exact aggregate anyway).
func (t *memoTable) put(k stateKey, ent *memoEntry) {
	s := &t.stripes[k.a&t.mask]
	s.lock()
	if _, dup := s.idx[k]; dup {
		s.mu.Unlock()
		return
	}
	if s.idx == nil {
		s.idx = make(map[stateKey]int32)
	}
	if len(s.slab) < t.perCap {
		s.idx[k] = int32(len(s.slab))
		s.slab = append(s.slab, *ent)
		s.keys = append(s.keys, k)
	} else {
		v := s.clock
		s.clock++
		if s.clock == t.perCap {
			s.clock = 0
		}
		delete(s.idx, s.keys[v])
		s.slab[v] = *ent
		s.keys[v] = k
		s.idx[k] = int32(v)
		s.evicted++
	}
	s.admitted++
	s.mu.Unlock()
}

// stats snapshots the arena's end-of-run statistics. Called after the
// worker pool has quiesced, but takes the locks anyway so mid-run
// callers would read consistent values.
func (t *memoTable) stats() MemoStats {
	st := MemoStats{Stripes: len(t.stripes)}
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		st.Entries += len(s.idx)
		st.Admitted += s.admitted
		st.Evicted += s.evicted
		st.Contended += s.contended
		s.mu.Unlock()
	}
	return st
}
