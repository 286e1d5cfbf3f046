// Package oracle is the per-run deque-semantics oracle: a history
// recorder plus specification checker that rides every execution engine.
// An Instrumented wrapper around any core.Deque emits typed operation
// events (put/take/steal begin and end, task id, thread, outcome) into a
// per-run History; a pluggable Spec — Precise for the exact-once queues,
// Idempotent for Michael et al.'s at-least-once relaxation — classifies
// the completed run as ok, lost-task, duplicate, phantom, or torn, and
// Run wires the checker into schedule sampling, the sequential explorer,
// and the pruned exhaustive model checker, extracting a replayable
// counterexample (schedule choices plus a tso trace dump) when a
// violation is reachable.
//
// Soundness under pruning: the exhaustive engine memoizes canonical
// machine states whose identity includes each thread's full
// request/response history, so two runs that converge on a memoized
// state carry identical per-thread event subsequences even when their
// cross-thread interleavings differ. Every verdict below is therefore
// computed from order-insensitive data — per-task multisets of puts and
// removals, and per-thread begin/end matching — which makes the rendered
// verdict a function of exactly what the memo table preserves, and the
// oracle's outcome counts under Prune byte-identical to the sequential
// engine's.
package oracle

import (
	"fmt"

	"repro/internal/core"
)

// OpKind is the deque operation class an Event records.
type OpKind int

const (
	// OpPut is an owner enqueue.
	OpPut OpKind = iota
	// OpTake is an owner dequeue.
	OpTake
	// OpSteal is a thief dequeue.
	OpSteal
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpTake:
		return "take"
	case OpSteal:
		return "steal"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Event is one half of a recorded deque operation: its begin (the call)
// or its end (the return, with outcome). Events carry the global history
// position so a dumped history reads in schedule order.
type Event struct {
	// Seq is the event's position in the run's history (0, 1, …).
	Seq int
	// Thread is the simulated thread that issued the operation.
	Thread int
	// Kind is the operation class.
	Kind OpKind
	// Begin distinguishes the call (true) from the return (false).
	Begin bool
	// Task is the task value: always set on put events, set on take/steal
	// ends when Status is core.OK, zero otherwise.
	Task uint64
	// Status is the operation's outcome; meaningful on end events of
	// takes and steals only.
	Status core.Status
}

func (e Event) String() string {
	half := "end"
	if e.Begin {
		half = "begin"
	}
	switch {
	case e.Kind == OpPut:
		return fmt.Sprintf("%3d th%d put %s task=%d", e.Seq, e.Thread, half, e.Task)
	case e.Begin:
		return fmt.Sprintf("%3d th%d %s begin", e.Seq, e.Thread, e.Kind)
	case e.Status == core.OK:
		return fmt.Sprintf("%3d th%d %s end OK task=%d", e.Seq, e.Thread, e.Kind, e.Task)
	default:
		return fmt.Sprintf("%3d th%d %s end %s", e.Seq, e.Thread, e.Kind, e.Status)
	}
}

// History accumulates the deque events of one run. It needs no lock: the
// machine runs one simulated thread at a time, start-up and teardown
// included, and starts the threads in tid order. The events recorded
// before the first operation therefore arrive in a fixed order too, and
// replaying a schedule records the same events in the same order. A
// History must not be shared between concurrently executing runs.
type History struct {
	events  []Event
	prefill []uint64
	drained bool
}

// NewHistory returns an empty per-run history.
func NewHistory() *History { return &History{} }

// RecordPrefill notes tasks installed directly in memory before the run
// (core.Prefiller); they count as puts for every spec.
func (h *History) RecordPrefill(vals []uint64) {
	h.prefill = append(h.prefill, vals...)
}

// ExpectDrained marks that the scenario drains the queue before
// finishing (the worker ends with a take-until-Empty loop), so a task
// that was put but never removed is a genuine loss rather than a task
// legitimately left behind.
func (h *History) ExpectDrained() { h.drained = true }

// Drained reports whether ExpectDrained was called.
func (h *History) Drained() bool { return h.drained }

// Begin records the start of an operation. For puts, task is the value
// being enqueued; for takes and steals it is ignored.
func (h *History) Begin(thread int, kind OpKind, task uint64) {
	if kind != OpPut {
		task = 0
	}
	h.events = append(h.events, Event{Seq: len(h.events), Thread: thread, Kind: kind, Begin: true, Task: task})
}

// End records the completion of an operation. For takes and steals, task
// is the removed value when st is core.OK and ignored otherwise.
func (h *History) End(thread int, kind OpKind, task uint64, st core.Status) {
	if kind != OpPut && st != core.OK {
		task = 0
	}
	h.events = append(h.events, Event{Seq: len(h.events), Thread: thread, Kind: kind, Task: task, Status: st})
}

// Events returns the recorded events in schedule order. The slice is the
// history's own backing store; callers must not mutate it.
func (h *History) Events() []Event { return h.events }

// Prefilled returns the tasks recorded by RecordPrefill.
func (h *History) Prefilled() []uint64 { return h.prefill }

// Reset empties the history for reuse by a subsequent run.
func (h *History) Reset() {
	h.events = h.events[:0]
	h.prefill = h.prefill[:0]
	h.drained = false
}
