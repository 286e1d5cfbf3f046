package tso

import "testing"

func TestStoreBufferForwardNewest(t *testing.T) {
	b := newStoreBuffer(4, false)
	b.push(entry{addr: 1, val: 10})
	b.push(entry{addr: 2, val: 20})
	b.push(entry{addr: 1, val: 11})
	if v, ok := b.forward(1); !ok || v != 11 {
		t.Fatalf("forward(1) = %v,%v want 11,true", v, ok)
	}
	if v, ok := b.forward(2); !ok || v != 20 {
		t.Fatalf("forward(2) = %v,%v want 20,true", v, ok)
	}
	if _, ok := b.forward(3); ok {
		t.Fatal("forward(3) unexpectedly hit")
	}
}

func TestStoreBufferFIFODrainOrder(t *testing.T) {
	mem := newMemory()
	b := newStoreBuffer(4, false)
	b.push(entry{addr: 5, val: 1})
	b.push(entry{addr: 5, val: 2})
	b.push(entry{addr: 5, val: 3})
	b.drainOne(mem)
	if got := mem.read(5); got != 1 {
		t.Fatalf("after first drain mem[5]=%d want 1 (FIFO)", got)
	}
	b.drainOne(mem)
	if got := mem.read(5); got != 2 {
		t.Fatalf("after second drain mem[5]=%d want 2", got)
	}
	b.drainAll(mem)
	if got := mem.read(5); got != 3 {
		t.Fatalf("after drainAll mem[5]=%d want 3", got)
	}
	if !b.empty() {
		t.Fatal("buffer not empty after drainAll")
	}
}

func TestStoreBufferFullEmptyOccupancy(t *testing.T) {
	b := newStoreBuffer(2, false)
	if !b.empty() || b.full() || b.occupancy() != 0 {
		t.Fatal("fresh buffer state wrong")
	}
	b.push(entry{addr: 0, val: 1})
	b.push(entry{addr: 1, val: 2})
	if !b.full() || b.occupancy() != 2 {
		t.Fatalf("full=%v occ=%d want true,2", b.full(), b.occupancy())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push into full buffer did not panic")
		}
	}()
	b.push(entry{addr: 2, val: 3})
}

func TestDrainStageMovesThroughB(t *testing.T) {
	mem := newMemory()
	b := newStoreBuffer(4, true)
	b.push(entry{addr: 1, val: 100})
	// First drain moves the entry into B; memory is not yet written.
	b.drainOne(mem)
	if got := mem.read(1); got != 0 {
		t.Fatalf("entry reached memory while in stage B: mem[1]=%d", got)
	}
	if b.occupancy() != 1 || b.empty() {
		t.Fatalf("stage entry must count toward occupancy: occ=%d", b.occupancy())
	}
	// The staged value must still forward to the owner's loads.
	if v, ok := b.forward(1); !ok || v != 100 {
		t.Fatalf("forward from stage = %v,%v want 100,true", v, ok)
	}
	// Second drain retires B.
	b.drainOne(mem)
	if got := mem.read(1); got != 100 {
		t.Fatalf("mem[1]=%d want 100", got)
	}
	if !b.empty() {
		t.Fatal("buffer should be empty")
	}
}

func TestDrainStageCoalescesSameAddress(t *testing.T) {
	mem := newMemory()
	b := newStoreBuffer(4, true)
	b.push(entry{addr: 7, val: 1})
	b.push(entry{addr: 7, val: 2})
	b.push(entry{addr: 7, val: 3})
	b.drainOne(mem) // 1 -> B
	b.drainOne(mem) // 2 overwrites B (coalesce); 1 never reaches memory
	b.drainOne(mem) // 3 overwrites B (coalesce)
	if got := mem.read(7); got != 0 {
		t.Fatalf("coalesced values leaked to memory: mem[7]=%d", got)
	}
	if b.coalesces != 2 {
		t.Fatalf("coalesces=%d want 2", b.coalesces)
	}
	b.drainOne(mem) // retire B
	if got := mem.read(7); got != 3 {
		t.Fatalf("mem[7]=%d want 3 (only the newest value)", got)
	}
}

func TestDrainStageDifferentAddressWritesB(t *testing.T) {
	mem := newMemory()
	b := newStoreBuffer(4, true)
	b.push(entry{addr: 1, val: 10})
	b.push(entry{addr: 2, val: 20})
	b.drainOne(mem) // 10 -> B
	b.drainOne(mem) // B(=10) -> memory, 20 -> B
	if got := mem.read(1); got != 10 {
		t.Fatalf("mem[1]=%d want 10", got)
	}
	if got := mem.read(2); got != 0 {
		t.Fatalf("mem[2]=%d want 0 (still staged)", got)
	}
	b.drainAll(mem)
	if got := mem.read(2); got != 20 {
		t.Fatalf("mem[2]=%d want 20", got)
	}
}

func TestDrainStageCoalescingIsTSOLegal(t *testing.T) {
	// The §7.3 example: with buffered A:=1; B:=1; A:=2, coalescing A:=2
	// into A:=1 would let another processor observe A=2 while B=0, which
	// is illegal under TSO. Our stage only coalesces *consecutive* drains
	// to one address, so this must not happen.
	mem := newMemory()
	const a, bAddr = 0, 1
	buf := newStoreBuffer(4, true)
	buf.push(entry{addr: a, val: 1})
	buf.push(entry{addr: bAddr, val: 1})
	buf.push(entry{addr: a, val: 2})
	seenIllegal := false
	for !buf.empty() {
		buf.drainOne(mem)
		if mem.read(a) == 2 && mem.read(bAddr) == 0 {
			seenIllegal = true
		}
	}
	if seenIllegal {
		t.Fatal("observed A=2 with B=0: stage coalesced non-consecutive stores")
	}
	if mem.read(a) != 2 || mem.read(bAddr) != 1 {
		t.Fatalf("final state A=%d B=%d want 2,1", mem.read(a), mem.read(bAddr))
	}
}

func TestDrainEmptyPanics(t *testing.T) {
	mem := newMemory()
	for _, stage := range []bool{false, true} {
		b := newStoreBuffer(2, stage)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("drain of empty buffer (stage=%v) did not panic", stage)
				}
			}()
			b.drainOne(mem)
		}()
	}
}

// TestMemoryGrowsOnDemand: a write backs its word, and a write far
// beyond every other backs at most one page, not the words below it.
func TestMemoryGrowsOnDemand(t *testing.T) {
	m := newMemory()
	m.write(100, 42)
	if got := m.read(100); got != 42 {
		t.Fatalf("mem[100]=%d want 42", got)
	}
	if got := m.read(50); got != 0 {
		t.Fatalf("mem[50]=%d want 0", got)
	}
	far := newMemory()
	far.write(1<<20, 43)
	if got := far.read(1 << 20); got != 43 {
		t.Fatalf("mem[1<<20]=%d want 43", got)
	}
	if words, pages := backedWords(far); pages != 1 || words > pageWords {
		t.Fatalf("a write at 1<<20 backed %d words on %d pages, want at most %d on 1", words, pages, pageWords)
	}
}

func TestMemoryNegativeAddressPanics(t *testing.T) {
	for name, access := range map[string]func(m *memory){
		"read":  func(m *memory) { m.read(-1) },
		"write": func(m *memory) { m.write(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a negative address did not panic", name)
				}
			}()
			access(newMemory())
		}()
	}
}

// backedWords counts the words m holds on the host and the pages it has
// backed.
func backedWords(m *memory) (words, pages int) {
	for _, pg := range m.pages {
		if pg != nil {
			words += cap(pg)
			pages++
		}
	}
	return words, pages
}

// TestMemoryReadUnbackedAllocatesNothing: reading a word nothing wrote,
// directly or through Peek, returns 0, allocates nothing and backs
// nothing — however far past the backed words it lies.
func TestMemoryReadUnbackedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	m := NewMachine(Config{Threads: 1, BufferSize: 1})
	defer m.Close()
	big := m.Alloc(1 << 20)
	m.Poke(3, 1)
	var sum uint64
	allocs := testing.AllocsPerRun(100, func() {
		sum += m.Peek(big+pageWords) + m.Peek(big+1<<20-1) + m.Peek(4) + m.mem.read(1<<30)
	})
	if allocs != 0 || sum != 0 {
		t.Fatalf("unbacked reads: %v allocations, sum %d; want 0, 0", allocs, sum)
	}
	if words, pages := backedWords(m.mem); pages != 1 || words > minBacking {
		t.Fatalf("reads backed memory: %d words on %d pages, want at most %d on 1", words, pages, minBacking)
	}
}

// TestMemoryResetZeroesWrittenWords: reset zeroes every written word on
// every page and keeps the pages backed for the next run.
func TestMemoryResetZeroesWrittenWords(t *testing.T) {
	m := newMemory()
	addrs := []Addr{0, 7, pageWords - 1, pageWords, 3*pageWords + 5, 1 << 20}
	for i, a := range addrs {
		m.write(a, uint64(i)+1)
	}
	words, pages := backedWords(m)
	m.reset()
	for _, a := range addrs {
		if got := m.read(a); got != 0 {
			t.Errorf("after reset mem[%d]=%d want 0", a, got)
		}
	}
	if w, p := backedWords(m); w != words || p != pages {
		t.Errorf("reset changed the backing: %d words on %d pages, was %d on %d", w, p, words, pages)
	}
}
