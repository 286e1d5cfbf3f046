package oracle

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
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
func (s Precise) Check(h *History) []Violation { return h.check(s.rule()) }

func (Precise) rule() taskRule { return taskRule{exact: true} }

// Idempotent is Michael et al.'s at-least-once relaxation (the paper's
// §8.2 comparators, and the multiplicity relaxation of Castañeda & Piña):
// a task may be handed out more than once, but phantoms are still
// forbidden and — when the scenario drains the queue — every put task
// must be removed at least once.
type Idempotent struct{}

// Name implements Spec.
func (Idempotent) Name() string { return "idempotent" }

// Check implements Spec.
func (s Idempotent) Check(h *History) []Violation { return h.check(s.rule()) }

func (Idempotent) rule() taskRule { return taskRule{} }

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

// Check implements Spec.
func (s Multiplicity) Check(h *History) []Violation { return h.check(s.rule()) }

func (s Multiplicity) rule() taskRule { return taskRule{perPut: max(s.K, 1)} }

// taskRule is what tells the built-in specs apart. Each judges a task
// from its put and removal counts alone and flags at most one violation
// per task; a removal of a task never put is a phantom under all three.
type taskRule struct {
	// exact makes removals beyond the puts duplicates, and on a drained
	// run a task removed fewer times than put lost (Precise). Otherwise
	// a drained run loses only the tasks never removed.
	exact bool
	// perPut, when positive, bounds a task's removals at perPut per put
	// (Multiplicity).
	perPut int
}

// judge returns the violation, if any, of a task put p and removed r
// times, without its Detail.
func (rl taskRule) judge(task uint64, p, r int, drained bool) (Violation, bool) {
	v := Violation{Task: task, Thread: -1}
	switch {
	case p == 0:
		v.Verdict = VerdictPhantom
	case rl.exact && r > p:
		v.Verdict = VerdictDuplicate
	case rl.perPut > 0 && r > p*rl.perPut:
		v.Verdict, v.Bound = VerdictDupBound, p*rl.perPut
	case drained && (r == 0 || rl.exact && r < p):
		v.Verdict = VerdictLost
	default:
		return v, false
	}
	return v, true
}

// detail elaborates a violation judge found on a task put p and removed
// r times.
func (rl taskRule) detail(v Violation, p, r int) string {
	switch {
	case v.Verdict == VerdictPhantom:
		return fmt.Sprintf("removed %dx but never put", r)
	case v.Verdict == VerdictDuplicate:
		return fmt.Sprintf("removed %dx for %d put(s)", r, p)
	case v.Verdict == VerdictDupBound:
		return fmt.Sprintf("removed %dx for %d put(s), budget %d", r, p, v.Bound)
	case rl.exact:
		return fmt.Sprintf("put %dx, removed %dx, queue drained", p, r)
	default:
		return fmt.Sprintf("put %dx, never removed, queue drained", p)
	}
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

// verdictScratch is the working memory a history's verdicts reuse, so a
// warmed verdict allocates nothing: the task values put and removed,
// each thread's open operation, the violations found, and the rendered
// verdict with its interned strings.
type verdictScratch struct {
	puts, removals []uint64
	open           []Event
	viols          []Violation
	buf            []byte
	interned       map[string]string
}

// check judges h under rl into a slice the caller owns (nil when the run
// satisfies the spec): the Spec.Check of every built-in spec.
func (h *History) check(rl taskRule) []Violation {
	viols := h.judge(rl, true)
	if len(viols) == 0 {
		return nil
	}
	return append([]Violation(nil), viols...)
}

// verdict renders spec's verdict on h, as RenderVerdict(spec.Check(h))
// does. A built-in spec judges in h's scratch without details and
// returns an interned string, so a warmed verdict allocates nothing.
func (h *History) verdict(spec Spec) string {
	s, ok := spec.(interface{ rule() taskRule })
	if !ok {
		return RenderVerdict(spec.Check(h))
	}
	viols := h.judge(s.rule(), false)
	if len(viols) == 0 {
		return "ok"
	}
	sc := &h.scratch
	sc.buf = appendVerdict(sc.buf[:0], viols)
	if v, ok := sc.interned[string(sc.buf)]; ok {
		return v
	}
	if sc.interned == nil {
		sc.interned = map[string]string{}
	}
	v := string(sc.buf)
	sc.interned[v] = v
	return v
}

// judge folds h into its order-insensitive facts — how often each task
// was put (prefill included) and removed, and each thread's begin/end
// matching — and returns rl's violations plus the torn interleavings,
// sorted canonically, in h's scratch (valid until the next judge).
func (h *History) judge(rl taskRule, detail bool) []Violation {
	sc := &h.scratch
	puts := append(sc.puts[:0], h.prefill...)
	removals, open, viols := sc.removals[:0], sc.open[:0], sc.viols[:0]
	// Torn interleavings come only from broken instrumentation: too rare
	// for the boxing of their detail arguments to matter.
	torn := func(thread int, format string, kinds ...any) {
		v := Violation{Verdict: VerdictTorn, Thread: thread}
		if detail {
			v.Detail = fmt.Sprintf(format, kinds...)
		}
		viols = append(viols, v)
	}
	for _, e := range h.events {
		i := slices.IndexFunc(open, func(o Event) bool { return o.Thread == e.Thread })
		if e.Begin {
			if i < 0 {
				open = append(open, e)
			} else {
				torn(e.Thread, "%s begins inside open %s", e.Kind, open[i].Kind)
				open[i] = e
			}
			continue
		}
		switch {
		case i < 0:
			torn(e.Thread, "%s ends without beginning", e.Kind)
		case open[i].Kind != e.Kind:
			torn(e.Thread, "%s ends inside open %s", e.Kind, open[i].Kind)
			open = slices.Delete(open, i, i+1)
		default:
			open = slices.Delete(open, i, i+1)
		}
		switch {
		case e.Kind == OpPut:
			puts = append(puts, e.Task)
		case e.Status == core.OK:
			removals = append(removals, e.Task)
		}
	}
	for _, e := range open {
		torn(e.Thread, "%s never ends", e.Kind)
	}
	// Walk the sorted task values, one group per task.
	slices.Sort(puts)
	slices.Sort(removals)
	for i, j := 0, 0; i < len(puts) || j < len(removals); {
		var task uint64
		if j == len(removals) || i < len(puts) && puts[i] <= removals[j] {
			task = puts[i]
		} else {
			task = removals[j]
		}
		p, r := 0, 0
		for ; i < len(puts) && puts[i] == task; i++ {
			p++
		}
		for ; j < len(removals) && removals[j] == task; j++ {
			r++
		}
		if v, bad := rl.judge(task, p, r, h.drained); bad {
			if detail {
				v.Detail = rl.detail(v, p, r)
			}
			viols = append(viols, v)
		}
	}
	sortViolations(viols)
	sc.puts, sc.removals, sc.open, sc.viols = puts, removals, open, viols
	return viols
}

// sortViolations orders violations canonically (verdict, then task, then
// thread, then detail) so a rendered verdict string is a deterministic,
// order-insensitive function of the history's facts.
func sortViolations(viols []Violation) {
	slices.SortFunc(viols, func(a, b Violation) int {
		if c := cmp.Compare(a.Verdict, b.Verdict); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Task, b.Task); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Thread, b.Thread); c != 0 {
			return c
		}
		return strings.Compare(a.Detail, b.Detail)
	})
}

// RenderVerdict collapses a violation list into the canonical outcome
// string the exploration engines bucket runs by: "ok" for a clean run,
// otherwise the sorted short forms joined with "; " (e.g. "lost t3" or
// "duplicate t5; duplicate t6").
func RenderVerdict(viols []Violation) string {
	if len(viols) == 0 {
		return "ok"
	}
	return string(appendVerdict(nil, viols))
}

// appendVerdict appends RenderVerdict's form of a non-empty violation
// list to buf.
func appendVerdict(buf []byte, viols []Violation) []byte {
	for i, v := range viols {
		if i > 0 {
			buf = append(buf, "; "...)
		}
		switch v.Verdict {
		case VerdictTorn:
			buf = strconv.AppendInt(append(buf, "torn th"...), int64(v.Thread), 10)
			continue
		case VerdictDupBound:
			buf = strconv.AppendInt(append(buf, "dup>"...), int64(v.Bound), 10)
		default:
			buf = append(buf, v.Verdict.String()...)
		}
		buf = strconv.AppendUint(append(buf, " t"...), v.Task, 10)
	}
	return buf
}
