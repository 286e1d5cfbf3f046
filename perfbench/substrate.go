package main

import (
	"time"

	"repro/internal/tso"
)

// probeSubstrate times the machine handoff every simulated operation
// pays, on a reused chaos-scheduled Machine and on a TimedMachine: host
// nanoseconds per simulated load (BenchmarkHandoff's chaos/load and
// timed/load); then Reset plus Run of the proof programs.
func probeSubstrate(m map[string]metric) error {
	const ops = 1 << 20
	loop := func(x tso.Addr) func(tso.Context) {
		return func(c tso.Context) {
			for i := 0; i < ops; i++ {
				c.Load(x)
			}
		}
	}
	chaos := tso.NewMachine(tso.Config{Threads: 1, BufferSize: 4, Seed: 1})
	x := chaos.Alloc(1)
	_ = chaos.Run(loop(x)) // warm the reused machine's workers
	chaos.Reset()
	x = chaos.Alloc(1)
	t0 := time.Now()
	_ = chaos.Run(loop(x)) // a one-thread load loop cannot fail
	m["tso.handoff_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / ops, "ns"}
	chaos.Close()

	timed := tso.NewTimedMachine(tso.Config{Threads: 1, BufferSize: 33})
	x = timed.Alloc(1)
	t0 = time.Now()
	_ = timed.Run(loop(x))
	m["tso.timed_handoff_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / ops, "ns"}
	timed.Close()

	rr, err := resetRunUS()
	if err != nil {
		return err
	}
	m["tso.reset_run_us"] = metric{rr, "us"}
	return nil
}
