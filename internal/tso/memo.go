package tso

// This file is the exhaustive engine's memo arena: the canonical-state →
// subtree-aggregate table behind Prune, split into power-of-two lock
// stripes. A stripe keeps its entries in compact, pointer-free storage
// the garbage collector never scans:
//
//   - slots, in fixed chunks of memoChunk allocated once and never
//     copied, each holding an entry's key, its schedule totals and the
//     position of its record;
//   - records, in fixed chunks of memoWordChunk words: an entry's
//     per-thread occupancy marks packed a few bits each, then its
//     outcome counts as (id, n) pairs, where the id is the
//     exploration-wide number outcomeIDs gave the outcome string;
//   - an open-addressed index from key to slot.
//
// Publishing copies a frame's aggregate into a new record, and a lookup
// decodes a record into the caller's buffers, so nothing the arena holds
// is shared with a frame or a runner. Once a stripe is full, a FIFO clock
// evicts its oldest entry. Records are written in admission order and,
// FIFO, freed in the same order, so a record chunk empties as a whole
// and is reused. Eviction is sound because entries are exact immutable
// aggregates consulted only for dedup: losing one can cost
// re-exploration but never moves a count.
//
// The stripe is chosen from the low bits of the key's first fingerprint
// word, whose mixer ends every round with a rotate and an odd multiply,
// so those bits depend on the whole state; workers exploring
// different subtrees therefore contend only when they genuinely converge
// on the same stripe, and the contended counter (lock acquisitions that
// found the lock held) makes the residual contention observable — the
// tsoserve /metrics gauges read it out. The index probes from the second
// fingerprint word, which the stripe choice leaves uniform.

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

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
	// Bytes is what the arena's slot chunks, record chunks and key
	// indexes hold at the end.
	Bytes int64 `json:"bytes,omitempty"`
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
	s.Bytes -= base.Bytes
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
	s.Bytes += o.Bytes
	s.Admitted += o.Admitted
	s.Evicted += o.Evicted
	s.Contended += o.Contended
}

// outcomeIDs numbers the outcome strings of an exploration, so that
// aggregates count small ids instead of holding strings. A memo table
// owns one, since its records keep the ids across the legs of a resumed
// exploration; an exploration without a table has its own.
type outcomeIDs struct {
	mu    sync.Mutex
	ids   map[string]uint32
	names []string
}

// id returns o's id, numbering it if it is new.
func (t *outcomeIDs) id(o string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[o]
	if !ok {
		if t.ids == nil {
			t.ids = map[string]uint32{}
		}
		id = uint32(len(t.names))
		t.ids[o] = id
		t.names = append(t.names, o)
	}
	return id
}

// counts rebuilds the outcome multiset an aggregate's pairs encode; nil
// when it counts nothing.
func (t *outcomeIDs) counts(pairs []outcomeCount) map[string]int {
	if len(pairs) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]int, len(pairs))
	for _, p := range pairs {
		m[t.names[p.id]] = int(p.n)
	}
	return m
}

const (
	// memoChunk is the number of slots in a full slot chunk.
	memoChunk = 1024
	// memoWordShift sizes a record chunk (1<<memoWordShift words) and
	// splits a record position into chunk and word offset.
	memoWordShift = 10
	memoWordChunk = 1 << memoWordShift
)

// memoSlot is one resident entry: its key, how many schedules its
// subtree holds and how many of them hit the step limit, and where its
// record starts in the stripe's record chunks (memoTable.encode).
type memoSlot struct {
	key         stateKey
	runs        int64
	stepLimited int64
	ref         uint32 // record chunk << memoWordShift | word offset
	pairs       uint32 // outcome pairs in the record
}

// memoWords is one record chunk, and how many resident entries' records
// it holds.
type memoWords struct {
	w    []uint64
	live int32
}

// memoStripe is one lock-striped slice of the arena. All fields are
// guarded by mu; contended is incremented after acquisition, so it needs
// no atomics. The index and the first record chunk are made by the
// stripe's first put.
type memoStripe struct {
	mu sync.Mutex
	// idx maps keys to slots by linear probing: slot number + 1, 0 when
	// empty. At most half full.
	idx   []int32
	slots [][]memoSlot
	n     int // resident slots: slots 0..n-1
	clock int // next eviction victim once n reaches the capacity

	words []memoWords
	free  []uint32 // emptied record chunks, for reuse
	tail  int      // record chunk new records go to
	used  int      // words used in the tail chunk

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

func (s *memoStripe) slot(i int32) *memoSlot {
	return &s.slots[i/memoChunk][i%memoChunk]
}

// find returns k's slot, or -1 when k is not resident, and the index
// position the probe for k ended at: k's, or the empty one k would take.
func (s *memoStripe) find(k stateKey) (int32, int) {
	mask := len(s.idx) - 1
	for pos := int(k.b) & mask; ; pos = (pos + 1) & mask {
		v := s.idx[pos]
		if v == 0 {
			return -1, pos
		}
		if s.slot(v-1).key == k {
			return v - 1, pos
		}
	}
}

// grow doubles the index and re-inserts every resident slot.
func (s *memoStripe) grow() {
	s.idx = make([]int32, max(16, 2*len(s.idx)))
	mask := len(s.idx) - 1
	for i := range int32(s.n) {
		pos := int(s.slot(i).key.b) & mask
		for s.idx[pos] != 0 {
			pos = (pos + 1) & mask
		}
		s.idx[pos] = i + 1
	}
}

// unindex empties index position pos, moving each later key of its probe
// run back into the gap when the gap lies on that key's own probe path,
// so every resident key stays reachable from its home position.
func (s *memoStripe) unindex(pos int) {
	mask := len(s.idx) - 1
	for j := (pos + 1) & mask; s.idx[j] != 0; j = (j + 1) & mask {
		home := int(s.slot(s.idx[j]-1).key.b) & mask
		if (j-home)&mask >= (j-pos)&mask {
			s.idx[pos] = s.idx[j]
			pos = j
		}
	}
	s.idx[pos] = 0
}

// alloc reserves n words for a new record and returns its position and
// the words, which may hold a freed record's data. A record longer than
// memoWordChunk gets a chunk of its own length, so a position's word
// offset always fits below memoWordShift.
func (s *memoStripe) alloc(n int) (uint32, []uint64) {
	if s.used+n > len(s.words[s.tail].w) {
		if s.words[s.tail].live == 0 {
			s.freeWords(s.tail)
		}
		s.tail, s.used = s.newWords(max(memoWordChunk, n)), 0
	}
	c := &s.words[s.tail]
	c.live++
	ref := uint32(s.tail)<<memoWordShift | uint32(s.used)
	s.used += n
	return ref, c.w[s.used-n : s.used]
}

// newWords returns a record chunk of size words: an emptied one when
// there is one, else a new one.
func (s *memoStripe) newWords(size int) int {
	var c int
	if k := len(s.free); k > 0 {
		c = int(s.free[k-1])
		s.free = s.free[:k-1]
	} else {
		if len(s.words) == 1<<(32-memoWordShift) {
			panic("tso: memo stripe record storage exhausted")
		}
		c = len(s.words)
		s.words = append(s.words, memoWords{})
	}
	w := &s.words[c]
	if cap(w.w) < size {
		w.w = make([]uint64, size)
	}
	w.w = w.w[:size]
	return c
}

// release drops an evicted entry's record, freeing its chunk once the
// chunk holds no resident record and takes no new ones.
func (s *memoStripe) release(ref uint32) {
	c := int(ref >> memoWordShift)
	w := &s.words[c]
	w.live--
	if w.live == 0 && c != s.tail {
		s.freeWords(c)
	}
}

// freeWords lists record chunk c for reuse, dropping a long record's own
// chunk.
func (s *memoStripe) freeWords(c int) {
	if len(s.words[c].w) > memoWordChunk {
		s.words[c].w = nil
	}
	s.free = append(s.free, uint32(c))
}

// record returns the words from the record at ref to its chunk's end.
func (s *memoStripe) record(ref uint32) []uint64 {
	return s.words[ref>>memoWordShift].w[ref&(memoWordChunk-1):]
}

// bytes is what the stripe's storage holds.
func (s *memoStripe) bytes() int64 {
	b := int64(len(s.idx)) * int64(unsafe.Sizeof(int32(0)))
	for _, c := range s.slots {
		b += int64(len(c)) * int64(unsafe.Sizeof(memoSlot{}))
	}
	for _, c := range s.words {
		b += int64(cap(c.w)) * int64(unsafe.Sizeof(uint64(0)))
	}
	return b
}

// memoTable is the striped memo arena. The stripe count is a power of
// two so stripe selection is a mask of the key's fingerprint.
type memoTable struct {
	stripes []memoStripe
	mask    uint64
	perCap  int // per-stripe entry capacity (memoLimit / stripes, >= 1)
	scope   memoScope

	// Record layout: threads occupancy marks of markBits bits each,
	// 64/markBits to a word, in markWords words.
	threads, markBits, markWords int

	outcomes outcomeIDs
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
// the entry limit divided evenly among them, and occupancy marks wide
// enough for c's observable bound (a buffer's occupancy counts its drain
// stage).
func newMemoTable(c Config, stripes, limit int) *memoTable {
	n := 1
	for n < stripes {
		n <<= 1
	}
	perCap := limit / n
	if perCap < 1 {
		perCap = 1
	}
	markBits := bits.Len(uint(c.ObservableBound()))
	perWord := 64 / markBits
	return &memoTable{
		stripes: make([]memoStripe, n), mask: uint64(n - 1), perCap: perCap,
		threads: c.Threads, markBits: markBits, markWords: (c.Threads + perWord - 1) / perWord,
	}
}

// get decodes the entry for k into dst, reusing dst's buffers, and
// reports whether one existed. Decoding under the stripe lock is what
// makes eviction safe: a slot and its record may be overwritten the
// instant the lock drops, but dst holds its own copy.
func (t *memoTable) get(k stateKey, dst *memoEntry) bool {
	s := &t.stripes[k.a&t.mask]
	s.lock()
	defer s.mu.Unlock()
	if len(s.idx) == 0 {
		return false
	}
	v, _ := s.find(k)
	if v < 0 {
		return false
	}
	t.decode(s, s.slot(v), dst)
	return true
}

// put admits the aggregate for k, copying *ent into the arena; the
// caller's frame goes on to reuse its buffers. A full stripe evicts its
// oldest entry FIFO — the states hashed longest ago are the ones the DFS
// is least likely to converge back to. Duplicate keys keep the
// first-published entry (both candidates are the same exact aggregate
// anyway).
func (t *memoTable) put(k stateKey, ent *memoEntry) {
	s := &t.stripes[k.a&t.mask]
	s.lock()
	defer s.mu.Unlock() // a failed check must not leave the stripe locked
	if s.idx == nil {
		s.tail, s.used = s.newWords(memoWordChunk), 0
	}
	if s.n < t.perCap && 2*(s.n+1) > len(s.idx) {
		s.grow()
	}
	dup, pos := s.find(k)
	if dup >= 0 {
		return
	}
	var v int32
	if s.n < t.perCap {
		v = int32(s.n)
		if v%memoChunk == 0 {
			s.slots = append(s.slots, make([]memoSlot, min(memoChunk, t.perCap-s.n)))
		}
		s.n++
	} else {
		v = int32(s.clock)
		s.clock++
		if s.clock == t.perCap {
			s.clock = 0
		}
		old := s.slot(v)
		_, opos := s.find(old.key)
		s.unindex(opos)
		s.release(old.ref)
		_, pos = s.find(k) // unindex may have moved k's empty position
		s.evicted++
	}
	s.idx[pos] = v + 1
	*s.slot(v) = memoSlot{
		key: k, runs: ent.runs, stepLimited: int64(ent.stepLimited),
		ref: t.encode(s, ent), pairs: uint32(len(ent.counts)),
	}
	s.admitted++
}

// encode writes ent's record into s's record chunks and returns its
// position. The record is the packed occupancy marks, the outcome ids two
// to a word, then every count but the last: the counts sum to the
// entry's runs, which imply the last.
func (t *memoTable) encode(s *memoStripe, ent *memoEntry) uint32 {
	np := len(ent.counts)
	idWords := (np + 1) / 2
	ref, w := s.alloc(t.markWords + idWords + max(np-1, 0))
	clear(w)
	perWord := 64 / t.markBits
	for i, m := range ent.maxOcc {
		if m >= 1<<t.markBits {
			panic("tso: occupancy mark past the buffer's observable bound")
		}
		w[i/perWord] |= uint64(m) << (i % perWord * t.markBits)
	}
	ids, ns := w[t.markWords:t.markWords+idWords], w[t.markWords+idWords:]
	rest := ent.runs
	for i, p := range ent.counts {
		ids[i/2] |= uint64(p.id) << (i % 2 * 32)
		if i < np-1 {
			ns[i] = uint64(p.n)
		}
		rest -= p.n
	}
	if rest != 0 {
		panic("tso: memo aggregate's outcome counts do not sum to its runs")
	}
	return ref
}

// decode fills dst, reusing its buffers, with the entry in slot sl.
func (t *memoTable) decode(s *memoStripe, sl *memoSlot, dst *memoEntry) {
	w := s.record(sl.ref)
	dst.runs, dst.stepLimited = sl.runs, int(sl.stepLimited)
	perWord, mask := 64/t.markBits, uint64(1)<<t.markBits-1
	dst.maxOcc = dst.maxOcc[:0]
	for i := range t.threads {
		dst.maxOcc = append(dst.maxOcc, int(w[i/perWord]>>(i%perWord*t.markBits)&mask))
	}
	np := int(sl.pairs)
	idWords := (np + 1) / 2
	ids, ns := w[t.markWords:t.markWords+idWords], w[t.markWords+idWords:]
	dst.counts = dst.counts[:0]
	rest := sl.runs
	for i := range np {
		n := rest
		if i < np-1 {
			n = int64(ns[i])
			rest -= n
		}
		dst.counts = append(dst.counts, outcomeCount{id: uint32(ids[i/2] >> (i % 2 * 32)), n: n})
	}
}

// stats snapshots the arena's end-of-run statistics. Called after the
// worker pool has quiesced, but takes the locks anyway so mid-run
// callers would read consistent values.
func (t *memoTable) stats() MemoStats {
	st := MemoStats{Stripes: len(t.stripes)}
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		st.Entries += s.n
		st.Bytes += s.bytes()
		st.Admitted += s.admitted
		st.Evicted += s.evicted
		st.Contended += s.contended
		s.mu.Unlock()
	}
	return st
}

// outcomeCount is one outcome's share of an aggregate: the outcome's id
// (outcomeIDs) and the number of schedules that ended in it.
type outcomeCount struct {
	id uint32
	n  int64
}

// addCount adds n schedules ending in outcome id to pairs, kept sorted by
// id.
func addCount(pairs []outcomeCount, id uint32, n int64) []outcomeCount {
	i, found := slices.BinarySearchFunc(pairs, id, func(p outcomeCount, id uint32) int {
		return int(p.id) - int(id)
	})
	if found {
		pairs[i].n += n
		return pairs
	}
	return slices.Insert(pairs, i, outcomeCount{id: id, n: n})
}
