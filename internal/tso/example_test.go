package tso_test

import (
	"fmt"

	"repro/internal/tso"
)

// ExampleMachine runs the classic store-buffering litmus test on one
// adversarial schedule: with drains starved, both threads read the other's
// variable before either store has reached memory — the reordering TSO
// permits and sequential consistency forbids.
func ExampleMachine() {
	m := tso.NewMachine(tso.Config{
		Threads:    2,
		BufferSize: 4,
		Seed:       3,
		DrainBias:  0.01, // starve drains: maximize reordering
	})
	x, y := m.Alloc(1), m.Alloc(1)
	var r0, r1 uint64
	err := m.Run(
		func(c tso.Context) { c.Store(x, 1); r0 = c.Load(y) },
		func(c tso.Context) { c.Store(y, 1); r1 = c.Load(x) },
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("r0=%d r1=%d\n", r0, r1)
	// Output:
	// r0=0 r1=0
}

// ExampleExploreOutcomes proves a property instead of sampling it: across every
// schedule of the message-passing idiom, TSO's FIFO store buffer never
// lets the reader see the flag without the data.
func ExampleExploreOutcomes() {
	var x, y, flagA, dataA tso.Addr
	mk := func(m *tso.Machine) []func(tso.Context) {
		x, y = m.Alloc(1), m.Alloc(1)
		flagA, dataA = m.Alloc(1), m.Alloc(1)
		return []func(tso.Context){
			func(c tso.Context) {
				c.Store(x, 1) // data
				c.Store(y, 1) // flag
			},
			func(c tso.Context) {
				f := c.Load(y)
				d := c.Load(x)
				c.Store(flagA, f)
				c.Store(dataA, d)
			},
		}
	}
	outcome := func(m *tso.Machine) string {
		return fmt.Sprintf("flag=%d data=%d", m.Peek(flagA), m.Peek(dataA))
	}
	set, res := tso.ExploreOutcomes(
		tso.Config{Threads: 2, BufferSize: 2},
		mk, outcome, tso.ExploreOptions{},
	)
	fmt.Println("complete:", res.Complete)
	fmt.Println("flag-without-data reachable:", set.Has("flag=1 data=0"))
	// Output:
	// complete: true
	// flag-without-data reachable: false
}

// ExampleConfig_ObservableBound shows the §7.3 distinction the litmus
// experiment turns on: the drain-stage buffer makes one more store
// observable than the documented capacity.
func ExampleConfig_ObservableBound() {
	documented := tso.Config{BufferSize: 32}
	withStage := tso.Config{BufferSize: 32, DrainBuffer: true}
	fmt.Println(documented.ObservableBound(), withStage.ObservableBound())
	// Output:
	// 32 33
}
