package tso

import "testing"

// BenchmarkHandoff measures the raw cost of one simulated operation: the
// scheduling turn a program goroutine takes for it, plus a goroutine
// switch whenever the policy picks another thread. This is the floor
// under every simulated load/store/CAS in the repo, so a regression here
// taxes every figure and every exhaustive proof. The single-thread cases
// measure the path with no switch (the thread always continues);
// timed/pingpong measures the cross-thread switch, because the timed
// policy's min-clock rule strictly alternates two threads doing
// equal-cost loads.
func BenchmarkHandoff(b *testing.B) {
	b.Run("chaos/load", func(b *testing.B) {
		m := NewMachine(Config{Threads: 1, BufferSize: 4, Seed: 1})
		x := m.Alloc(1)
		b.ResetTimer()
		err := m.Run(func(c Context) {
			for i := 0; i < b.N; i++ {
				c.Load(x)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("chaos/store", func(b *testing.B) {
		m := NewMachine(Config{Threads: 1, BufferSize: 4, Seed: 1})
		x := m.Alloc(1)
		b.ResetTimer()
		err := m.Run(func(c Context) {
			for i := 0; i < b.N; i++ {
				c.Store(x, uint64(i))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("timed/load", func(b *testing.B) {
		m := NewTimedMachine(Config{Threads: 1, BufferSize: 33})
		x := m.Alloc(1)
		b.ResetTimer()
		err := m.Run(func(c Context) {
			for i := 0; i < b.N; i++ {
				c.Load(x)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("timed/pingpong", func(b *testing.B) {
		m := NewTimedMachine(Config{Threads: 2, BufferSize: 33})
		x := m.Alloc(1)
		loads := func(n int) func(Context) {
			return func(c Context) {
				for i := 0; i < n; i++ {
					c.Load(x)
				}
			}
		}
		b.ResetTimer()
		if err := m.Run(loads((b.N+1)/2), loads(b.N/2)); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkMachineRun measures whole-run overhead: on a small SB-shaped
// program, the cost every explored schedule pays around its handful of
// simulated operations; and on a reused timed machine shaped like the
// serving cells' platform (8 threads, S=11, drain stage), the machine
// step every Figure 10/11 run and serving cell pays per operation.
func BenchmarkMachineRun(b *testing.B) {
	prog0 := func(x, y Addr) func(Context) {
		return func(c Context) { c.Store(x, 1); c.Load(y) }
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewMachine(Config{Threads: 2, BufferSize: 4, Seed: 1})
			x, y := m.Alloc(1), m.Alloc(1)
			if err := m.Run(prog0(x, y), prog0(y, x)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		m := NewMachine(Config{Threads: 2, BufferSize: 4, Seed: 1})
		defer m.Close()
		x, y := m.Alloc(1), m.Alloc(1)
		p0, p1 := prog0(x, y), prog0(y, x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			m.Alloc(2) // re-reserve the words the reset rewound
			if err := m.Run(p0, p1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("timed", func(b *testing.B) {
		const threads = 8
		m := NewTimedMachine(Config{Threads: threads, BufferSize: 11, DrainBuffer: true})
		defer m.Close()
		var words Addr
		progs := make([]func(Context), threads)
		for tid := range progs {
			progs[tid] = func(c Context) {
				// Each thread reads the threads' words in turn, as a
				// worker polls its own deque and its victims', writes
				// its own, and computes for an uneven grain, so the
				// min-clock order and the drains interleave the
				// threads unevenly.
				for i := 0; i < 32; i++ {
					c.Load(words + Addr((tid+i)%threads))
					c.Store(words+Addr(tid), uint64(i))
					c.Work(uint64(16 + 8*((tid+i)%4)))
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			words = m.Alloc(threads)
			if err := m.Run(progs...); err != nil {
				b.Fatal(err)
			}
		}
	})
}
