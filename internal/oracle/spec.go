package oracle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Verdict classifies one way a run can violate its specification.
type Verdict int

const (
	// VerdictLost flags a task that was put (or prefilled) but never
	// removed even though the scenario drained the queue.
	VerdictLost Verdict = iota
	// VerdictDuplicate flags a task removed more often than it was put —
	// a violation for precise queues, expected for idempotent ones.
	VerdictDuplicate
	// VerdictPhantom flags a removal of a task that was never put: the
	// queue handed out garbage (an uninitialized or torn-read value).
	VerdictPhantom
	// VerdictTorn flags a malformed history: an operation that ended
	// without beginning, began twice, or never ended on a completed run.
	// It indicates a broken harness or instrumentation, not a queue bug.
	VerdictTorn
	// VerdictDupBound flags a task removed more often than a Multiplicity
	// spec's per-task duplicate budget allows — the failure class of the
	// bounded-multiplicity relaxation (rendered "dup>k tN"). The plain
	// VerdictDuplicate remains the precise-contract class (any removal
	// beyond the puts).
	VerdictDupBound
)

func (v Verdict) String() string {
	switch v {
	case VerdictLost:
		return "lost"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictPhantom:
		return "phantom"
	case VerdictTorn:
		return "torn"
	case VerdictDupBound:
		return "dup-bound"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Violation is one spec violation found in a history.
type Violation struct {
	// Verdict is the violation class.
	Verdict Verdict
	// Task is the affected task value (zero for torn interleavings).
	Task uint64
	// Thread is the offending thread for torn interleavings, -1 when the
	// violation is a property of the whole history.
	Thread int
	// Bound is the exceeded per-task removal budget for VerdictDupBound
	// violations (0 otherwise).
	Bound int `json:",omitempty"`
	// Detail is a human-readable elaboration (counts, op kind).
	Detail string
}

func (v Violation) String() string {
	if v.Verdict == VerdictTorn {
		return fmt.Sprintf("torn th%d: %s", v.Thread, v.Detail)
	}
	if v.Verdict == VerdictDupBound {
		return fmt.Sprintf("dup>%d t%d: %s", v.Bound, v.Task, v.Detail)
	}
	return fmt.Sprintf("%s t%d: %s", v.Verdict, v.Task, v.Detail)
}

// Spec checks a completed run's history against a queue contract.
// Implementations must derive every violation from order-insensitive
// facts (per-task multisets, per-thread begin/end matching) — see the
// package comment for why the pruned exhaustive engine requires this.
type Spec interface {
	// Name identifies the spec in reports.
	Name() string
	// Check returns the history's violations, deterministically ordered;
	// an empty slice means the run satisfied the spec.
	Check(h *History) []Violation
}

// Precise is the exact-once specification (§3.1's deterministic
// work-stealing contract): every removal matches a put, no task is
// removed twice, and — when the scenario drains the queue — no task is
// left unremoved.
type Precise struct{}

// Name implements Spec.
func (Precise) Name() string { return "precise" }

// Check implements Spec.
func (Precise) Check(h *History) []Violation {
	puts, removals, viols := tally(h)
	for task, r := range removals {
		p := puts[task]
		switch {
		case p == 0:
			viols = append(viols, Violation{Verdict: VerdictPhantom, Task: task, Thread: -1,
				Detail: fmt.Sprintf("removed %dx but never put", r)})
		case r > p:
			viols = append(viols, Violation{Verdict: VerdictDuplicate, Task: task, Thread: -1,
				Detail: fmt.Sprintf("removed %dx for %d put(s)", r, p)})
		}
	}
	if h.Drained() {
		for task, p := range puts {
			if removals[task] < p {
				viols = append(viols, Violation{Verdict: VerdictLost, Task: task, Thread: -1,
					Detail: fmt.Sprintf("put %dx, removed %dx, queue drained", p, removals[task])})
			}
		}
	}
	return sortViolations(viols)
}

// Idempotent is Michael et al.'s at-least-once relaxation (the paper's
// §8.2 comparators, and the multiplicity relaxation of Castañeda & Piña):
// a task may be handed out more than once, but phantoms are still
// forbidden and — when the scenario drains the queue — every put task
// must be removed at least once.
type Idempotent struct{}

// Name implements Spec.
func (Idempotent) Name() string { return "idempotent" }

// Check implements Spec.
func (Idempotent) Check(h *History) []Violation {
	puts, removals, viols := tally(h)
	for task, r := range removals {
		if puts[task] == 0 {
			viols = append(viols, Violation{Verdict: VerdictPhantom, Task: task, Thread: -1,
				Detail: fmt.Sprintf("removed %dx but never put", r)})
		}
	}
	if h.Drained() {
		for task, p := range puts {
			if removals[task] == 0 {
				viols = append(viols, Violation{Verdict: VerdictLost, Task: task, Thread: -1,
					Detail: fmt.Sprintf("put %dx, never removed, queue drained", p)})
			}
		}
	}
	return sortViolations(viols)
}

// Multiplicity is the bounded-duplicates relaxation of Castañeda & Piña:
// Idempotent's contract (no phantoms, no losses on a drained run) plus a
// per-task removal budget. A task put p times may be removed at most
// p·max(K, 1) times; exceeding the budget is a VerdictDupBound
// violation. K ≤ 1 degenerates to the Precise spec's duplicate rule
// (any removal beyond the puts violates), with losses still judged by
// the relaxed at-least-once rule. Like every Spec, the check is a
// function of order-insensitive multiset facts only, so it is sound
// under the pruned exhaustive engines.
type Multiplicity struct {
	// K is the per-put removal budget (values below 1 behave as 1).
	K int
}

// Name implements Spec.
func (s Multiplicity) Name() string { return fmt.Sprintf("multiplicity(k=%d)", s.K) }

// budget is the allowed removal count for a task put p times.
func (s Multiplicity) budget(p int) int {
	k := s.K
	if k < 1 {
		k = 1
	}
	return p * k
}

// Check implements Spec.
func (s Multiplicity) Check(h *History) []Violation {
	puts, removals, viols := tally(h)
	for task, r := range removals {
		p := puts[task]
		switch {
		case p == 0:
			viols = append(viols, Violation{Verdict: VerdictPhantom, Task: task, Thread: -1,
				Detail: fmt.Sprintf("removed %dx but never put", r)})
		case r > s.budget(p):
			viols = append(viols, Violation{Verdict: VerdictDupBound, Task: task, Thread: -1,
				Bound:  s.budget(p),
				Detail: fmt.Sprintf("removed %dx for %d put(s), budget %d", r, p, s.budget(p))})
		}
	}
	if h.Drained() {
		for task, p := range puts {
			if removals[task] == 0 {
				viols = append(viols, Violation{Verdict: VerdictLost, Task: task, Thread: -1,
					Detail: fmt.Sprintf("put %dx, never removed, queue drained", p)})
			}
		}
	}
	return sortViolations(viols)
}

// SpecFor returns the specification the algorithm is expected to meet:
// Idempotent for the duplicate-tolerant queues (the idempotent
// comparators and the WS-MULT family), Precise for everything else.
// WS-MULT's *bounded*-multiplicity claim depends on the extractor
// count, which an Algo alone does not know — Program.Spec tightens it.
func SpecFor(a core.Algo) Spec {
	if a.Idempotent() {
		return Idempotent{}
	}
	return Precise{}
}

// tally folds a history into its order-insensitive facts: how often each
// task was put (prefill included) and removed, plus any torn-interleaving
// violations found by per-thread begin/end matching.
func tally(h *History) (puts, removals map[uint64]int, viols []Violation) {
	puts = map[uint64]int{}
	removals = map[uint64]int{}
	for _, t := range h.Prefilled() {
		puts[t]++
	}
	open := map[int]Event{}
	for _, e := range h.Events() {
		if e.Begin {
			if prev, ok := open[e.Thread]; ok {
				viols = append(viols, Violation{Verdict: VerdictTorn, Task: 0, Thread: e.Thread,
					Detail: fmt.Sprintf("%s begins inside open %s", e.Kind, prev.Kind)})
			}
			open[e.Thread] = e
			continue
		}
		prev, ok := open[e.Thread]
		switch {
		case !ok:
			viols = append(viols, Violation{Verdict: VerdictTorn, Task: 0, Thread: e.Thread,
				Detail: fmt.Sprintf("%s ends without beginning", e.Kind)})
		case prev.Kind != e.Kind:
			viols = append(viols, Violation{Verdict: VerdictTorn, Task: 0, Thread: e.Thread,
				Detail: fmt.Sprintf("%s ends inside open %s", e.Kind, prev.Kind)})
			delete(open, e.Thread)
		default:
			delete(open, e.Thread)
		}
		switch {
		case e.Kind == OpPut:
			puts[e.Task]++
		case e.Status == core.OK:
			removals[e.Task]++
		}
	}
	for tid, e := range open {
		viols = append(viols, Violation{Verdict: VerdictTorn, Task: 0, Thread: tid,
			Detail: fmt.Sprintf("%s never ends", e.Kind)})
	}
	return puts, removals, viols
}

// sortViolations orders violations canonically (verdict, then task, then
// thread, then detail) so a rendered verdict string is a deterministic,
// order-insensitive function of the history's facts.
func sortViolations(viols []Violation) []Violation {
	sort.Slice(viols, func(i, j int) bool {
		a, b := viols[i], viols[j]
		if a.Verdict != b.Verdict {
			return a.Verdict < b.Verdict
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		return a.Detail < b.Detail
	})
	return viols
}

// RenderVerdict collapses a violation list into the canonical outcome
// string the exploration engines bucket runs by: "ok" for a clean run,
// otherwise the sorted short forms joined with "; " (e.g. "lost t3" or
// "duplicate t5; duplicate t6").
func RenderVerdict(viols []Violation) string {
	if len(viols) == 0 {
		return "ok"
	}
	parts := make([]string, 0, len(viols))
	for _, v := range viols {
		switch v.Verdict {
		case VerdictTorn:
			parts = append(parts, fmt.Sprintf("torn th%d", v.Thread))
		case VerdictDupBound:
			parts = append(parts, fmt.Sprintf("dup>%d t%d", v.Bound, v.Task))
		default:
			parts = append(parts, fmt.Sprintf("%s t%d", v.Verdict, v.Task))
		}
	}
	return strings.Join(parts, "; ")
}
