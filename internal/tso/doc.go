// Package tso implements the executable abstract TSO[S] machine from §2 of
// Morrison & Afek, "Fence-Free Work Stealing on Bounded TSO Processors"
// (ASPLOS 2014): Sewell et al.'s x86-TSO abstract machine with per-thread
// FIFO store buffers bounded at S entries.
//
// A load can be reordered with at most S prior stores by the same thread;
// this is the only reordering TSO permits, and the bound is the property the
// paper's fence-free work-stealing algorithms rely on. A single machine
// core (one request/grant executor, one memory + store-buffer substrate,
// one stats sink) hosts pluggable scheduling/cost policies (policy.go),
// giving two engines over the same store-buffer semantics:
//
//   - Machine (the "chaos" engine) explores interleavings and drain
//     schedules adversarially under a seeded RNG. It is the correctness
//     substrate: litmus tests, queue-safety property tests, and the Figure
//     8/9 experiments run on it. A configurable drain bias lets tests starve
//     store-buffer drains so that the maximum-reordering schedules that need
//     ~10^7 lottery runs on real hardware are forced deterministically.
//
//   - TimedMachine (the "timed" engine) is a discrete-event performance
//     model in virtual cycles. Stores occupy buffer entries that drain at a
//     fixed per-entry latency, a store into a full buffer stalls the thread
//     (§7.1's pipeline-entry stall), a fence waits for the thread's buffer
//     to empty, and atomic read-modify-write drains then pays a fixed cost.
//     It regenerates the shape of the paper's timing results (Figures 1, 7,
//     10, 11) without claiming absolute cycle counts.
//
// A third policy — deterministic choice enumeration — backs exhaustive
// schedule exploration over the chaos substrate: ExploreWithChoices, the
// sequential reference engine, and ExploreExhaustive, the parallel,
// pruned, resumable one.
//
// Both engines expose the same Context interface to simulated-thread code,
// so every queue algorithm in internal/core runs unchanged on either, and
// both record the same per-thread metric series when Config.Metrics is set
// (metrics.go).
//
// The §7.3 microarchitectural corner case — a post-retirement drain-stage
// buffer B that coalesces back-to-back stores to the same address, making
// the observable bound S+1 and unbounded for same-location store runs — is
// modelled by Config.DrainBuffer and is what the Figure 8 litmus grid
// exercises.
package tso
