package tso

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func quickCheck(f func(int64) bool, n int) error {
	return quick.Check(f, &quick.Config{MaxCount: n})
}

// The paper's §10 asks how bounded reordering extends to weaker memory
// models. ModelPSO answers one direction concretely: relaxing the drain
// rule to per-address FIFO (store→store reordering, as on SPARC PSO)
// invalidates the FIFO-publication argument every queue in the paper
// relies on. These tests pin the model's semantics.

func TestPSORejectsDrainStage(t *testing.T) {
	if _, err := (Config{Threads: 1, BufferSize: 2, Model: ModelPSO, DrainBuffer: true}).withDefaults(); err == nil {
		t.Fatal("PSO with drain stage accepted")
	}
}

func TestPSOTimedEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("timed engine accepted PSO")
		}
	}()
	NewTimedMachine(Config{Threads: 1, BufferSize: 2, Model: ModelPSO})
}

func TestModelString(t *testing.T) {
	if ModelTSO.String() != "TSO" || ModelPSO.String() != "PSO" {
		t.Fatal("model names wrong")
	}
}

// TestExploreMessagePassingBreaksUnderPSO: the flag=1,data=0 outcome that
// TSO forbids (and TestExploreMessagePassing proves unreachable) becomes
// reachable once stores to different addresses can drain out of order.
func TestExploreMessagePassingBreaksUnderPSO(t *testing.T) {
	var x, y, r0a, r1a Addr
	mk := func(m *Machine) []func(Context) {
		x, y = m.Alloc(1), m.Alloc(1)
		r0a, r1a = m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(x, 1) // data
				c.Store(y, 1) // flag
			},
			func(c Context) {
				r0 := c.Load(y)
				r1 := c.Load(x)
				c.Store(r0a, r0)
				c.Store(r1a, r1)
			},
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("flag=%d data=%d", m.Peek(r0a), m.Peek(r1a))
	}
	set, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 2, Model: ModelPSO}, mk, out, ExploreOptions{})
	if !res.Complete {
		t.Fatalf("incomplete after %d runs", res.Runs)
	}
	if !set.Has("flag=1 data=0") {
		t.Fatalf("PSO did not exhibit store-store reordering: %v", set.Counts)
	}
}

// TestPSOPreservesPerAddressOrder: coherence still holds — a single
// location's values are observed in store order.
func TestPSOPreservesPerAddressOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := NewMachine(Config{Threads: 2, BufferSize: 3, Model: ModelPSO, Seed: seed, DrainBias: 0.2})
		x := m.Alloc(1)
		var obs []uint64
		err := m.Run(
			func(c Context) {
				for i := uint64(1); i <= 60; i++ {
					c.Store(x, i)
				}
			},
			func(c Context) {
				for i := 0; i < 120; i++ {
					obs = append(obs, c.Load(x))
				}
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(obs); i++ {
			if obs[i] < obs[i-1] {
				t.Fatalf("seed %d: per-address order violated: %d after %d", seed, obs[i], obs[i-1])
			}
		}
	}
}

// TestPSOReadOwnWriteStillHolds: forwarding is program-order regardless of
// drain order.
func TestPSOReadOwnWriteStillHolds(t *testing.T) {
	m := NewMachine(Config{Threads: 1, BufferSize: 4, Model: ModelPSO, Seed: 1, DrainBias: 0.05})
	x, y := m.Alloc(1), m.Alloc(1)
	err := m.Run(func(c Context) {
		c.Store(x, 1)
		c.Store(y, 2)
		c.Store(x, 3)
		if c.Load(x) != 3 || c.Load(y) != 2 {
			panic("read-own-write broken under PSO")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPSOFenceRestoresOrder: with a fence between the data and flag
// stores, message passing is safe again even under PSO.
func TestPSOFenceRestoresOrder(t *testing.T) {
	var x, y, r0a, r1a Addr
	mk := func(m *Machine) []func(Context) {
		x, y = m.Alloc(1), m.Alloc(1)
		r0a, r1a = m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(x, 1)
				c.Fence()
				c.Store(y, 1)
			},
			func(c Context) {
				r0 := c.Load(y)
				r1 := c.Load(x)
				c.Store(r0a, r0)
				c.Store(r1a, r1)
			},
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("flag=%d data=%d", m.Peek(r0a), m.Peek(r1a))
	}
	set, res := ExploreOutcomes(Config{Threads: 2, BufferSize: 2, Model: ModelPSO}, mk, out, ExploreOptions{})
	if !res.Complete {
		t.Fatalf("incomplete after %d runs", res.Runs)
	}
	if set.Has("flag=1 data=0") {
		t.Fatalf("fenced MP still broken under PSO: %v", set.Counts)
	}
}

// TestEligibleDrains pins the buffer-side rule: one candidate per distinct
// address, oldest first.
func TestEligibleDrains(t *testing.T) {
	b := newStoreBuffer(8, false)
	b.push(entry{addr: 1, val: 10})
	b.push(entry{addr: 2, val: 20})
	b.push(entry{addr: 1, val: 11})
	b.push(entry{addr: 3, val: 30})
	el := b.eligibleDrains()
	want := []int{0, 1, 3}
	if len(el) != len(want) {
		t.Fatalf("eligible = %v want %v", el, want)
	}
	for i := range want {
		if el[i] != want[i] {
			t.Fatalf("eligible = %v want %v", el, want)
		}
	}
	mem := newMemory()
	b.drainAt(mem, 1) // drain the store to address 2 first
	if mem.read(2) != 20 || mem.read(1) != 0 {
		t.Fatal("drainAt wrote the wrong entry")
	}
	if got := b.eligibleDrains(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("eligible after drain = %v", got)
	}
}

// TestQuickPSOFinalState: whatever the drain order, the final memory value
// of each address is that address's newest store (per-address FIFO), for
// random single-thread programs.
func TestQuickPSOFinalState(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := NewMachine(Config{Threads: 1, BufferSize: 3, Model: ModelPSO, Seed: seed, DrainBias: 0.2})
		base := m.Alloc(6)
		want := map[Addr]uint64{}
		type op struct {
			addr Addr
			val  uint64
		}
		var ops []op
		for i := 0; i < 150; i++ {
			o := op{addr: Addr(r.Intn(6)), val: uint64(r.Intn(1000)) + 1}
			ops = append(ops, o)
			want[o.addr] = o.val
		}
		if err := m.Run(func(c Context) {
			for _, o := range ops {
				c.Store(base+o.addr, o.val)
			}
		}); err != nil {
			return false
		}
		for a, v := range want {
			if m.Peek(base+a) != v {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 60); err != nil {
		t.Fatal(err)
	}
}
