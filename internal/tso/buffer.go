package tso

// entry is one buffered store: a (64-bit address, 64-bit data) pair, exactly
// the store-buffer entry of the x86-TSO abstract machine, annotated with
// the engine timestamps the unified core's policies and metrics need.
type entry struct {
	addr Addr
	val  uint64
	done uint64 // timed policy: virtual time at which the store reaches memory
	born uint64 // issue time (virtual cycles) or issue step (chaos), for drain-latency metrics
	id   int64  // op id of the issuing store (buffered engines), linking the drain event back to it
}

// storeBuffer is a bounded FIFO store buffer, optionally extended with the
// §7.3 post-retirement drain stage B. Entries enter at the tail on a store
// and leave from the head on a drain; with the stage enabled, a drained
// entry first moves into B and only reaches memory on a subsequent drain,
// unless the next drained entry targets the same address, in which case it
// overwrites B (same-address coalescing).
type storeBuffer struct {
	cap      int // S: capacity of the entries FIFO proper
	entries  []entry
	stage    entry // valid iff hasStage; older than every entries element
	hasStage bool
	useStage bool // Config.DrainBuffer

	// instrumentation
	drains    int64
	coalesces int64
	maxOcc    int

	// onDrain, when non-nil, observes every entry that reaches memory
	// (coalesced-away entries excluded). Set only when Config.Metrics is
	// enabled, so the common path pays one nil check.
	onDrain func(entry)

	// elig is eligibleDrains' reusable result slice, so the PSO hot path
	// allocates nothing.
	elig []int
}

// reset empties the buffer and clears its counters, keeping the entry
// array and any armed onDrain hook — the buffer half of Machine.Reset.
func (b *storeBuffer) reset() {
	b.entries = b.entries[:0]
	b.hasStage = false
	b.drains = 0
	b.coalesces = 0
	b.maxOcc = 0
}

func newStoreBuffer(capacity int, drainStage bool) *storeBuffer {
	return &storeBuffer{
		cap:      capacity,
		entries:  make([]entry, 0, capacity),
		useStage: drainStage,
	}
}

// occupancy is the number of stores not yet globally visible, counting the
// drain stage. This is the quantity the TSO[S] reordering bound caps.
func (b *storeBuffer) occupancy() int {
	n := len(b.entries)
	if b.hasStage {
		n++
	}
	return n
}

// empty reports whether every issued store has reached memory. Fences and
// atomic operations require this.
func (b *storeBuffer) empty() bool {
	return len(b.entries) == 0 && !b.hasStage
}

// full reports whether a new store would not fit in the FIFO proper. Per
// §7.1 a store that finds the buffer full stalls the pipeline until an
// entry drains.
func (b *storeBuffer) full() bool {
	return len(b.entries) >= b.cap
}

// push buffers a store. The caller must have ensured !full().
func (b *storeBuffer) push(e entry) {
	if b.full() {
		panic("tso: push into full store buffer")
	}
	b.entries = append(b.entries, e)
	if occ := b.occupancy(); occ > b.maxOcc {
		b.maxOcc = occ
	}
}

// popFront removes and returns the FIFO head, shifting the remaining
// entries down in place. The backing array stays anchored at its original
// allocation — slicing the head off (entries = entries[1:]) would walk
// the array forward and force a reallocation on a later push, which is
// what the zero-allocation guarantee of the step path forbids.
func (b *storeBuffer) popFront() entry {
	e := b.entries[0]
	n := copy(b.entries, b.entries[1:])
	b.entries = b.entries[:n]
	return e
}

// forward returns the newest buffered value for address a, searching the
// FIFO from tail to head and then the drain stage (rule 2 of the abstract
// machine: a load reads the newest matching store in its own buffer).
func (b *storeBuffer) forward(a Addr) (uint64, bool) {
	for i := len(b.entries) - 1; i >= 0; i-- {
		if b.entries[i].addr == a {
			return b.entries[i].val, true
		}
	}
	if b.hasStage && b.stage.addr == a {
		return b.stage.val, true
	}
	return 0, false
}

// drainOne advances the oldest buffered store one step toward memory and
// returns any store that became globally visible. With the drain stage
// disabled this simply pops the head into memory. With it enabled, the
// semantics follow the paper's §7.3 hypothesis: the head moves into B,
// first flushing B to memory unless the head targets B's address, in which
// case B is overwritten and the older value is never written (coalescing).
//
// drainOne must only be called when occupancy() > 0.
func (b *storeBuffer) drainOne(mem *memory) {
	if !b.useStage {
		if len(b.entries) == 0 {
			panic("tso: drain of empty store buffer")
		}
		e := b.popFront()
		mem.write(e.addr, e.val)
		b.drains++
		if b.onDrain != nil {
			b.onDrain(e)
		}
		return
	}
	switch {
	case len(b.entries) == 0 && b.hasStage:
		// Nothing left in the FIFO: retire B itself.
		mem.write(b.stage.addr, b.stage.val)
		b.hasStage = false
		b.drains++
		if b.onDrain != nil {
			b.onDrain(b.stage)
		}
	case len(b.entries) > 0 && !b.hasStage:
		b.stage = b.popFront()
		b.hasStage = true
		b.drains++
	case len(b.entries) > 0 && b.hasStage:
		head := b.entries[0]
		if head.addr == b.stage.addr {
			// Same-address coalescing: the older value is discarded
			// without ever reaching memory. This is legal under TSO only
			// because the two stores are consecutive in the drain order.
			b.stage = b.popFront()
			b.coalesces++
			b.drains++
			return
		}
		old := b.stage
		mem.write(old.addr, old.val)
		b.stage = b.popFront()
		b.drains++
		if b.onDrain != nil {
			b.onDrain(old)
		}
	default:
		panic("tso: drain of empty store buffer")
	}
}

// drainAll writes every buffered store to memory in FIFO order. Used for
// fences, atomics, and end-of-run flushes.
func (b *storeBuffer) drainAll(mem *memory) {
	for !b.empty() {
		b.drainOne(mem)
	}
}

// eligibleDrains returns the indices of entries the PSO drain rule may
// write next: the oldest entry for each distinct address (per-address FIFO
// is all PSO preserves). Only valid without the drain stage. The returned
// slice is owned by the buffer and valid until the next call; the
// first-occurrence scan is quadratic in occupancy, which the capacity
// bound keeps tiny (S ≤ a few dozen).
func (b *storeBuffer) eligibleDrains() []int {
	if b.useStage {
		panic("tso: PSO drains with drain stage")
	}
	out := b.elig[:0]
	for i, e := range b.entries {
		first := true
		for j := 0; j < i; j++ {
			if b.entries[j].addr == e.addr {
				first = false
				break
			}
		}
		if first {
			out = append(out, i)
		}
	}
	b.elig = out
	return out
}

// drainAt writes the entry at index i to memory and removes it (PSO). The
// caller must pass an index returned by eligibleDrains.
func (b *storeBuffer) drainAt(mem *memory, i int) {
	e := b.entries[i]
	mem.write(e.addr, e.val)
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	b.drains++
	if b.onDrain != nil {
		b.onDrain(e)
	}
}

// pageShift sets the memory page: 1<<pageShift words, 32 KiB.
const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
	// minBacking is the least capacity a page's first backing gets, so a
	// machine writing its words in address order does not reallocate at
	// every power of two on its way to a hundred words.
	minBacking = 64
)

// memory is the simulated shared memory: 64-bit words, all initially
// zero. Reserving addresses (Machine.Alloc) backs nothing; a word is
// backed by the first write to it. Memory is held in pages of pageWords
// words. A page's slice is allocated by the first write into the page and
// extends only to its highest written word, its capacity doubling as it
// grows from minBacking, so a reserved range no run writes costs nothing
// and a machine that writes a hundred words holds one small slice, not a
// page. Reading an unbacked word returns 0 and allocates nothing.
type memory struct {
	// pages[p] backs words [p<<pageShift, p<<pageShift+len(pages[p]));
	// a nil entry is a page nothing has written.
	pages [][]uint64
}

func newMemory() *memory {
	return &memory{}
}

// reset rezeroes every backed word, keeping it backed — the memory half
// of Machine.Reset. Words above a page's length were never written, so
// clearing the backed slices clears everything a run wrote.
func (m *memory) reset() {
	for _, pg := range m.pages {
		clear(pg)
	}
}

func (m *memory) read(a Addr) uint64 {
	if a < 0 {
		panic("tso: negative address")
	}
	if p := int(a >> pageShift); p < len(m.pages) {
		if pg, o := m.pages[p], int(a&pageMask); o < len(pg) {
			return pg[o]
		}
	}
	return 0
}

func (m *memory) write(a Addr, v uint64) {
	if a < 0 {
		panic("tso: negative address")
	}
	p, o := int(a>>pageShift), int(a&pageMask)
	if p < len(m.pages) {
		if pg := m.pages[p]; o < len(pg) {
			pg[o] = v
			return
		}
	}
	m.back(p, o)[o] = v
}

// back extends page p's slice to cover offset o and returns it. The words
// it adds are zero: nothing has written past a page's length, and a grown
// slice is freshly allocated.
func (m *memory) back(p, o int) []uint64 {
	if p >= len(m.pages) {
		m.pages = append(m.pages, make([][]uint64, p+1-len(m.pages))...)
	}
	pg := m.pages[p]
	if o >= cap(pg) {
		grown := make([]uint64, len(pg), min(pageWords, max(o+1, 2*cap(pg), minBacking)))
		copy(grown, pg)
		pg = grown
	}
	pg = pg[:o+1]
	m.pages[p] = pg
	return pg
}
