package tso

// Context is the instruction-set interface simulated threads program
// against. Both engines implement it, so algorithm code (internal/core,
// internal/sched) is engine-agnostic.
//
// All operations act on 64-bit words of simulated shared memory. Context
// values are only valid inside the program function they were passed to and
// must not be shared across simulated threads.
type Context interface {
	// Load reads a word. If the issuing thread has a buffered store to the
	// address, the newest such value is forwarded; otherwise the value
	// comes from memory, which may lag up to the reordering bound behind
	// the thread's own program order — the effect the paper exploits.
	Load(a Addr) uint64

	// Store buffers a write. It becomes globally visible only when drained;
	// a store issued into a full buffer stalls until space frees up.
	Store(a Addr, v uint64)

	// Fence drains the issuing thread's store buffer: every prior store is
	// globally visible when Fence returns. This is the instruction the
	// paper's algorithms remove from the worker's path.
	Fence()

	// CAS atomically compares the word at a with old and, if equal, writes
	// new. It returns the observed value and whether the swap happened.
	// As on x86/SPARC, an atomic read-modify-write drains the issuing
	// thread's store buffer first (it is performed while holding the
	// memory-subsystem lock with an empty buffer, rule 4 of §2).
	CAS(a Addr, old, new uint64) (uint64, bool)

	// Work models cycles of thread-local computation with no memory
	// effects. The chaos engine treats it as a scheduling point; the timed
	// engine advances the thread's clock. Store-buffer drains proceed in
	// the background during Work, which is what makes "x stores between
	// take()s" lower the required δ (§4).
	Work(cycles uint64)

	// ThreadID returns the simulated hardware-thread index, 0-based.
	ThreadID() int
}

// Allocator hands out simulated memory. Both engines implement it; queue
// constructors take an Allocator so they can be built for either.
type Allocator interface {
	// Alloc reserves n fresh zero-initialized words and returns the base
	// address. It must be called before Run starts the machine. It
	// reserves addresses only; memory is backed where a run writes.
	Alloc(n int) Addr
}
