package oracle

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// buildHistory hand-constructs a history from a compact op script so the
// checker is tested independently of any machine. Each step is applied to
// the given thread in order.
type histStep struct {
	thread int
	kind   OpKind
	begin  bool
	task   uint64
	status core.Status
}

func mkHist(drained bool, prefill []uint64, steps []histStep) *History {
	h := NewHistory()
	h.RecordPrefill(prefill)
	if drained {
		h.ExpectDrained()
	}
	for _, s := range steps {
		if s.begin {
			h.Begin(s.thread, s.kind, s.task)
		} else {
			h.End(s.thread, s.kind, s.task, s.status)
		}
	}
	return h
}

// op builds the begin+end pair of one completed operation.
func op(thread int, kind OpKind, task uint64, st core.Status) []histStep {
	return []histStep{
		{thread: thread, kind: kind, begin: true, task: task},
		{thread: thread, kind: kind, task: task, status: st},
	}
}

func cat(groups ...[]histStep) []histStep {
	var out []histStep
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func TestCheckerVerdictTable(t *testing.T) {
	cases := []struct {
		name           string
		drained        bool
		prefill        []uint64
		steps          []histStep
		wantPrecise    string // RenderVerdict under Precise
		wantIdempotent string // RenderVerdict under Idempotent
		wantMult       string // RenderVerdict under Multiplicity{K: 2}
	}{
		{
			name:    "ok: put-take-steal balance",
			drained: true,
			prefill: []uint64{1},
			steps: cat(
				op(0, OpPut, 2, core.OK),
				op(1, OpSteal, 1, core.OK),
				op(0, OpTake, 2, core.OK),
				op(0, OpTake, 0, core.Empty),
			),
			wantPrecise:    "ok",
			wantIdempotent: "ok",
			wantMult:       "ok",
		},
		{
			name:    "ok: undrained run may leave tasks behind",
			drained: false,
			prefill: []uint64{1, 2},
			steps:   op(1, OpSteal, 1, core.OK),
			// Task 2 was never removed, but the scenario did not drain, so
			// neither spec may call it lost.
			wantPrecise:    "ok",
			wantIdempotent: "ok",
			wantMult:       "ok",
		},
		{
			name:    "lost: drained run with an unremoved task",
			drained: true,
			prefill: []uint64{1, 2},
			steps: cat(
				op(0, OpTake, 2, core.OK),
				op(0, OpTake, 0, core.Empty),
			),
			wantPrecise:    "lost t1",
			wantIdempotent: "lost t1",
			wantMult:       "lost t1",
		},
		{
			name:    "duplicate: precise fails, idempotent accepts",
			drained: true,
			prefill: []uint64{1},
			steps: cat(
				op(0, OpTake, 1, core.OK),
				op(1, OpSteal, 1, core.OK),
			),
			wantPrecise:    "duplicate t1",
			wantIdempotent: "ok",
			wantMult:       "ok",
		},
		{
			name:    "phantom: removal of a task never put",
			drained: false,
			prefill: []uint64{1},
			steps:   op(1, OpSteal, 99, core.OK),
			// Garbage is a violation under both contracts.
			wantPrecise:    "phantom t99",
			wantIdempotent: "phantom t99",
			wantMult:       "phantom t99",
		},
		{
			name:    "torn: steal never ends",
			drained: false,
			prefill: []uint64{1},
			steps: []histStep{
				{thread: 1, kind: OpSteal, begin: true},
			},
			wantPrecise:    "torn th1",
			wantIdempotent: "torn th1",
			wantMult:       "torn th1",
		},
		{
			name:    "torn: end without begin",
			drained: false,
			steps: []histStep{
				{thread: 0, kind: OpTake, status: core.Empty},
			},
			wantPrecise:    "torn th0",
			wantIdempotent: "torn th0",
			wantMult:       "torn th0",
		},
		{
			name:    "torn: op begins inside an open op",
			drained: false,
			steps: []histStep{
				{thread: 0, kind: OpPut, begin: true, task: 1},
				{thread: 0, kind: OpTake, begin: true},
				{thread: 0, kind: OpTake, task: 1, status: core.OK},
				{thread: 0, kind: OpPut, task: 1, status: core.OK},
			},
			// Two torn findings: the take begins inside the open put, and
			// the put's own end is then orphaned.
			wantPrecise:    "torn th0; torn th0",
			wantIdempotent: "torn th0; torn th0",
			wantMult:       "torn th0; torn th0",
		},
		{
			name:    "dup at budget: three removals of one put exceed k=2",
			drained: true,
			prefill: []uint64{1},
			steps: cat(
				op(0, OpTake, 1, core.OK),
				op(1, OpSteal, 1, core.OK),
				op(1, OpSteal, 1, core.OK),
			),
			wantPrecise:    "duplicate t1",
			wantIdempotent: "ok",
			wantMult:       "dup>2 t1",
		},
		{
			name:    "dup budget scales with put count",
			drained: true,
			prefill: []uint64{1},
			steps: cat(
				op(0, OpPut, 1, core.OK), // task 1 put a second time
				op(0, OpTake, 1, core.OK),
				op(1, OpSteal, 1, core.OK),
				op(1, OpSteal, 1, core.OK),
				op(0, OpTake, 1, core.OK),
			),
			// Four removals of a twice-put task: within budget 2·2 for
			// k=2, beyond the puts for Precise.
			wantPrecise:    "duplicate t1",
			wantIdempotent: "ok",
			wantMult:       "ok",
		},
		{
			name:    "empty and aborted attempts never count as removals",
			drained: true,
			prefill: []uint64{1},
			steps: cat(
				op(1, OpSteal, 0, core.Abort),
				op(0, OpTake, 1, core.OK),
				op(1, OpSteal, 0, core.Empty),
				op(0, OpTake, 0, core.Empty),
			),
			wantPrecise:    "ok",
			wantIdempotent: "ok",
			wantMult:       "ok",
		},
		{
			name:    "multiple violations render sorted",
			drained: true,
			prefill: []uint64{1, 2},
			steps: cat(
				op(0, OpTake, 2, core.OK),
				op(1, OpSteal, 2, core.OK),
				op(1, OpSteal, 7, core.OK),
			),
			// lost t1 (never removed), duplicate t2, phantom t7 — sorted by
			// verdict class then task.
			wantPrecise:    "lost t1; duplicate t2; phantom t7",
			wantIdempotent: "lost t1; phantom t7",
			wantMult:       "lost t1; phantom t7",
		},
		{
			name:    "verdict class sorts before task",
			drained: true,
			prefill: []uint64{1, 2},
			steps: cat(
				op(0, OpTake, 1, core.OK),
				op(1, OpSteal, 1, core.OK),
			),
			// duplicate t1 and lost t2: the class order puts the higher
			// task first.
			wantPrecise:    "lost t2; duplicate t1",
			wantIdempotent: "lost t2",
			wantMult:       "lost t2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := mkHist(tc.drained, tc.prefill, tc.steps)
			for _, c := range []struct {
				spec Spec
				want string
			}{
				{Precise{}, tc.wantPrecise},
				{Idempotent{}, tc.wantIdempotent},
				{Multiplicity{K: 2}, tc.wantMult},
			} {
				if got := RenderVerdict(c.spec.Check(h)); got != c.want {
					t.Errorf("%s: got %q want %q", c.spec.Name(), got, c.want)
				}
				// The verdict Outcomes renders skips the details and
				// interns the string; it must read the same.
				if got := h.verdict(c.spec); got != c.want {
					t.Errorf("%s: Outcomes' verdict %q want %q", c.spec.Name(), got, c.want)
				}
			}
		})
	}
}

// TestMultiplicityDegenerateK pins the low end of the budget rule: K=1
// and K=0 both mean "removals may not exceed puts" — exactly Precise's
// duplicate rule — while losses are still judged by the relaxed
// at-least-once rule, and the verdict class stays dup-bound.
func TestMultiplicityDegenerateK(t *testing.T) {
	dup := mkHist(true, []uint64{1}, cat(
		op(0, OpTake, 1, core.OK),
		op(1, OpSteal, 1, core.OK),
	))
	for _, k := range []int{0, 1} {
		if got := RenderVerdict(Multiplicity{K: k}.Check(dup)); got != "dup>1 t1" {
			t.Errorf("k=%d on a double removal: got %q want %q", k, got, "dup>1 t1")
		}
	}
	// A drained run where one of two puts of the same task is never
	// matched: Precise counts puts, Multiplicity (any K) only requires
	// at least one removal.
	half := mkHist(true, []uint64{1, 1}, op(0, OpTake, 1, core.OK))
	if got := RenderVerdict(Precise{}.Check(half)); got != "lost t1" {
		t.Errorf("precise on half-removed double put: got %q want %q", got, "lost t1")
	}
	for _, k := range []int{0, 1, 2} {
		if got := RenderVerdict(Multiplicity{K: k}.Check(half)); got != "ok" {
			t.Errorf("k=%d on half-removed double put: got %q want ok", k, got)
		}
	}
}

// TestMultiplicityOrderInsensitive feeds the checker the same multiset
// of operations in two different interleaved orders and requires the
// same verdict — the property the pruned exhaustive engines rely on.
func TestMultiplicityOrderInsensitive(t *testing.T) {
	forward := mkHist(true, []uint64{1, 2}, cat(
		op(0, OpTake, 1, core.OK),
		op(1, OpSteal, 1, core.OK),
		op(1, OpSteal, 1, core.OK),
		op(0, OpTake, 2, core.OK),
	))
	backward := mkHist(true, []uint64{2, 1}, cat(
		op(0, OpTake, 2, core.OK),
		op(1, OpSteal, 1, core.OK),
		op(0, OpTake, 1, core.OK),
		op(1, OpSteal, 1, core.OK),
	))
	spec := Multiplicity{K: 2}
	f, b := RenderVerdict(spec.Check(forward)), RenderVerdict(spec.Check(backward))
	if f != b || f != "dup>2 t1" {
		t.Errorf("order sensitivity: forward %q, backward %q, want both %q", f, b, "dup>2 t1")
	}
}

// TestViolationJSONRoundTrip checks the Bound field survives the trip
// through the corpus/service JSON encoding and stays omitted for the
// classes that do not use it.
func TestViolationJSONRoundTrip(t *testing.T) {
	in := []Violation{
		{Verdict: VerdictDupBound, Task: 3, Thread: -1, Bound: 2, Detail: "removed 3x for 1 put(s), budget 2"},
		{Verdict: VerdictLost, Task: 1, Thread: -1, Detail: "put 1x, never removed, queue drained"},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Bound":2`) {
		t.Errorf("dup-bound violation lost its bound: %s", data)
	}
	if strings.Count(string(data), "Bound") != 1 {
		t.Errorf("zero Bound not omitted: %s", data)
	}
	var out []Violation
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip drifted: %+v != %+v", out, in)
	}
	if got := out[0].String(); got != "dup>2 t3: removed 3x for 1 put(s), budget 2" {
		t.Errorf("rendered violation: %q", got)
	}
}

// TestSpecByNameRoundTrip pins the corpus/service spec naming: every
// spec's Name resolves back to an equivalent spec, multiplicity for
// any k ≥ 0, and malformed names are rejected.
func TestSpecByNameRoundTrip(t *testing.T) {
	for _, spec := range []Spec{Precise{}, Idempotent{}, Multiplicity{}, Multiplicity{K: 1}, Multiplicity{K: 2}, Multiplicity{K: 17}} {
		got, ok := SpecByName(spec.Name())
		if !ok || got.Name() != spec.Name() {
			t.Errorf("SpecByName(%q) = %v,%v", spec.Name(), got, ok)
		}
	}
	for _, bad := range []string{"", "exact", "multiplicity", "multiplicity(k=)", "multiplicity(k=-1)", "multiplicity(k=2x)", "Multiplicity(k=2)"} {
		if got, ok := SpecByName(bad); ok {
			t.Errorf("SpecByName(%q) = %v, want rejection", bad, got)
		}
	}
}

func TestCheckerViolationDetails(t *testing.T) {
	h := mkHist(true, []uint64{1}, cat(
		op(0, OpTake, 1, core.OK),
		op(1, OpSteal, 1, core.OK),
	))
	viols := Precise{}.Check(h)
	if len(viols) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(viols), viols)
	}
	v := viols[0]
	if v.Verdict != VerdictDuplicate || v.Task != 1 {
		t.Fatalf("wrong violation: %+v", v)
	}
	if !strings.Contains(v.Detail, "2x") || !strings.Contains(v.String(), "duplicate t1") {
		t.Fatalf("uninformative violation: %q / %q", v.Detail, v.String())
	}
}

func TestSpecForMatchesRegistry(t *testing.T) {
	for _, a := range core.AllAlgos {
		want := "precise"
		if a.Idempotent() {
			want = "idempotent"
		}
		if got := SpecFor(a).Name(); got != want {
			t.Errorf("%s: spec %q, want %q", a, got, want)
		}
	}
}

func TestHistoryReset(t *testing.T) {
	h := mkHist(true, []uint64{1}, op(0, OpTake, 1, core.OK))
	h.Reset()
	if len(h.Events()) != 0 || len(h.Prefilled()) != 0 || h.Drained() {
		t.Fatal("Reset did not clear the history")
	}
	if got := RenderVerdict(Precise{}.Check(h)); got != "ok" {
		t.Fatalf("empty history verdict %q", got)
	}
}

func TestEventAndKindStrings(t *testing.T) {
	for _, k := range []OpKind{OpPut, OpTake, OpSteal, OpKind(99)} {
		if k.String() == "" {
			t.Fatalf("empty String for kind %d", int(k))
		}
	}
	evs := []Event{
		{Seq: 0, Thread: 0, Kind: OpPut, Begin: true, Task: 3},
		{Seq: 1, Thread: 1, Kind: OpSteal, Begin: true},
		{Seq: 2, Thread: 1, Kind: OpSteal, Task: 3, Status: core.OK},
		{Seq: 3, Thread: 0, Kind: OpTake, Status: core.Empty},
	}
	for _, e := range evs {
		if e.String() == "" {
			t.Fatalf("empty String for %+v", e)
		}
	}
	if !strings.Contains(evs[2].String(), "task=3") {
		t.Fatalf("steal end missing task: %q", evs[2])
	}
}
