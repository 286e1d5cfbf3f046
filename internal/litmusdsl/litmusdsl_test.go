package litmusdsl

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/tso"
)

func mustParse(t *testing.T, src string) *Test {
	t.Helper()
	tt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestParseSB(t *testing.T) {
	tt := mustParse(t, Library[0])
	if tt.Name != "SB" || tt.Model != tso.ModelTSO || tt.SBuf != 2 {
		t.Fatalf("header: %+v", tt)
	}
	if len(tt.Procs) != 2 || len(tt.Procs[0]) != 2 {
		t.Fatalf("procs: %+v", tt.Procs)
	}
	if tt.Procs[0][0].Kind != StmtStore || tt.Procs[0][0].Var != "x" || tt.Procs[0][0].Val != 1 {
		t.Fatalf("stmt 0: %+v", tt.Procs[0][0])
	}
	if tt.Procs[0][1].Kind != StmtLoad || tt.Procs[0][1].Reg != "r0" || tt.Procs[0][1].Var != "y" {
		t.Fatalf("stmt 1: %+v", tt.Procs[0][1])
	}
	if len(tt.Exists) != 2 || tt.Exists[0].Proc != 0 || tt.Exists[0].Reg != "r0" {
		t.Fatalf("exists: %+v", tt.Exists)
	}
	if tt.Expect != "allowed" {
		t.Fatalf("expect: %q", tt.Expect)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no-name":      "P0: x=1\nexists: x=1",
		"no-procs":     "name: t\nexists: x=1",
		"no-exists":    "name: t\nP0: x=1",
		"bad-model":    "name: t\nmodel: ARM\nP0: x=1\nexists: x=1",
		"bad-stmt":     "name: t\nP0: x+1\nexists: x=1",
		"bad-load":     "name: t\nP0: r0=5\nexists: x=1",
		"bad-cond":     "name: t\nP0: x=1\nexists: P0.q=1",
		"bad-cas":      "name: t\nP0: r0=cas x 1\nexists: x=1",
		"gap-in-procs": "name: t\nP0: x=1\nP2: y=1\nexists: x=1",
		"dup-proc":     "name: t\nP0: x=1\nP0: y=1\nexists: x=1",
		"bad-expect":   "name: t\nP0: x=1\nexists: x=1\nexpect: maybe",
		"unknown-reg":  "name: t\nP0: x=1\nexists: P0.r9=1",
		"bad-key":      "name: t\nfoo: bar\nP0: x=1\nexists: x=1",
	}
	for label, src := range cases {
		if _, err := Parse(src); err == nil {
			if label == "unknown-reg" {
				// caught at Run time, not parse time
				tt := mustParse(t, src)
				if _, err := Run(tt, RunOptions{}); err == nil {
					t.Errorf("%s: accepted", label)
				}
				continue
			}
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestParseComments(t *testing.T) {
	tt := mustParse(t, "name: c\n# full comment\nP0: x=1 # trailing\nexists: x=1\n")
	if len(tt.Procs[0]) != 1 {
		t.Fatalf("procs: %+v", tt.Procs)
	}
}

// TestLibraryVerdicts is the validation matrix: every classic litmus test
// in the library must produce its literature verdict on the abstract
// machine, exhaustively.
func TestLibraryVerdicts(t *testing.T) {
	for _, src := range Library {
		tt := mustParse(t, src)
		t.Run(tt.Name, func(t *testing.T) {
			res, err := Run(tt, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete {
				t.Fatalf("exploration incomplete after %d schedules", res.Schedules)
			}
			if !res.Ok() {
				t.Fatalf("verdict %q want %q (outcomes: %v)", res.Verdict, tt.Expect, res.Outcomes)
			}
		})
	}
}

func TestRunReportsOutcomes(t *testing.T) {
	tt := mustParse(t, Library[0]) // SB
	res, err := Run(tt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 4 {
		t.Fatalf("SB outcomes = %d want 4: %v", len(res.Outcomes), res.Outcomes)
	}
	for o := range res.Outcomes {
		if !strings.Contains(o, "P0.r0=") || !strings.Contains(o, "x=") {
			t.Fatalf("outcome rendering: %q", o)
		}
	}
}

func TestInitValuesRespected(t *testing.T) {
	tt := mustParse(t, `name: init
init: x=7
P0: r0=x
exists: P0.r0=7
expect: allowed`)
	res, err := Run(tt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("init not applied: %v", res.Outcomes)
	}
}

func TestCASStatement(t *testing.T) {
	tt := mustParse(t, `name: cas
P0: r0=cas x 0 5
P1: r1=cas x 0 6
exists: P0.r0=1 & P1.r1=1
expect: forbidden`)
	res, err := Run(tt, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("two CASes on one location both succeeded: %v", res.Outcomes)
	}
}

func TestUnobservedVerdictUnderCap(t *testing.T) {
	tt := mustParse(t, Library[1]) // SB+fences, forbidden
	res, err := Run(tt, RunOptions{MaxSchedules: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("3-schedule cap claimed completeness")
	}
	if res.Verdict != "unobserved" {
		t.Fatalf("verdict %q want unobserved", res.Verdict)
	}
	if res.Ok() {
		t.Fatal("unobserved must not satisfy a forbidden expectation")
	}
}

func TestWitnessExtraction(t *testing.T) {
	tt := mustParse(t, Library[0]) // SB, allowed
	res, err := Run(tt, RunOptions{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Witnessed || len(res.Witness) == 0 {
		t.Fatalf("no witness recorded (witnessed=%v)", res.Witnessed)
	}
	// The witness must contain both stores and both loads, with each load
	// happening before the corresponding remote drain (that is what makes
	// the outcome r0=r1=0 possible); at minimum check the events exist.
	joined := strings.Join(res.Witness, "\n")
	for _, want := range []string{"store", "load", "drain"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("witness missing %q:\n%s", want, joined)
		}
	}
	if len(res.WitnessChoices) == 0 {
		t.Fatal("witness recorded without its schedule choices")
	}
}

// TestLibraryWitnessesMatchFirstVisits: on every library test the
// witnesses of a sequential pruned exploration and of a parallel
// unpruned one are the reference engine's first visits, and Run's
// condition witness is the first visit that satisfies the condition —
// the schedule the removed re-exploration used to find.
func TestLibraryWitnessesMatchFirstVisits(t *testing.T) {
	for _, src := range Library {
		tt := mustParse(t, src)
		cfg, mk, out, err := program(tt)
		if err != nil {
			t.Fatal(err)
		}
		_, ref := tso.ExploreOutcomes(cfg, mk, out, tso.ExploreOptions{})
		if !ref.Complete {
			t.Fatalf("%s: reference exploration incomplete", tt.Name)
		}
		for _, o := range []tso.ExhaustiveOptions{{Prune: true}, {Parallel: 4}} {
			if _, res := tso.ExploreExhaustive(cfg, mk, out, o); !reflect.DeepEqual(res.Witnesses, ref.Witnesses) {
				t.Errorf("%s parallel=%d prune=%v: witnesses %v, reference %v", tt.Name, o.Parallel, o.Prune, res.Witnesses, ref.Witnesses)
			}
		}
		res, err := Run(tt, RunOptions{Prune: true, Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		_, want, ok := ref.FirstWitness(func(o string) bool { return condHolds(tt, o) })
		if ok != res.Witnessed || !reflect.DeepEqual(res.WitnessChoices, want) {
			t.Errorf("%s: condition witness %v (witnessed %v), reference %v (%v)", tt.Name, res.WitnessChoices, res.Witnessed, want, ok)
		}
	}
}

func TestNoWitnessChoicesForForbidden(t *testing.T) {
	tt := mustParse(t, Library[3]) // MP, forbidden
	res, err := Run(tt, RunOptions{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WitnessChoices) != 0 {
		t.Fatalf("forbidden test produced witness choices: %v", res.WitnessChoices)
	}
}

func TestNoWitnessForForbidden(t *testing.T) {
	tt := mustParse(t, Library[3]) // MP, forbidden
	res, err := Run(tt, RunOptions{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Witness) != 0 {
		t.Fatalf("forbidden test produced a witness: %v", res.Witness)
	}
}

func TestIRIWForbiddenUnderTSO(t *testing.T) {
	// Independent reads of independent writes: x86-TSO stores are
	// multi-copy atomic, so the two readers cannot disagree on the order
	// of the two writes. Four threads; kept out of the default Library to
	// bound tsoexplore's default runtime, proved here instead.
	tt := mustParse(t, `name: IRIW
model: TSO
sbuf: 1
P0: x=1
P1: y=1
P2: r0=x; r1=y
P3: r2=y; r3=x
exists: P2.r0=1 & P2.r1=0 & P3.r2=1 & P3.r3=0
expect: forbidden`)
	// The 4-thread decision tree (~9.6M schedules) used to be far beyond a
	// unit test's budget, so this was a bounded could-not-witness check.
	// With canonical-state pruning the whole tree collapses to a few
	// thousand executed runs and the verdict becomes a *proof*.
	res, err := Run(tt, RunOptions{MaxSchedules: 1 << 20, Prune: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("IRIW exploration incomplete: %d executed of budget (prune: %+v)", res.Executed, res.Prune)
	}
	if !res.Ok() {
		t.Fatalf("IRIW outcome witnessed: the machine is not multi-copy atomic (outcomes: %v)", res.Outcomes)
	}
	if res.Executed >= res.Schedules/100 {
		t.Fatalf("pruning ineffective: %d runs executed for %d schedules", res.Executed, res.Schedules)
	}
	t.Logf("IRIW proved forbidden: %d schedules via %d executed runs (%d states deduped, %d schedules saved)",
		res.Schedules, res.Executed, res.Prune.StatesDeduped, res.Prune.SchedulesSaved)
}

// TestEngineEquivalenceAcrossLibrary is the acceptance bar for the
// exhaustive engine: for every litmus test in the library, parallel+pruned
// exploration must produce byte-identical outcome counts, the same
// completeness, and the same occupancy high-water marks as the sequential
// reference engine.
func TestEngineEquivalenceAcrossLibrary(t *testing.T) {
	for _, src := range Library {
		tt := mustParse(t, src)
		t.Run(tt.Name, func(t *testing.T) {
			ref, err := Run(tt, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []RunOptions{
				{Prune: true},
				{Parallel: 4},
				{Parallel: 4, Prune: true},
			} {
				got, err := Run(tt, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Complete != ref.Complete {
					t.Errorf("par=%d prune=%v: complete=%v, reference %v", opts.Parallel, opts.Prune, got.Complete, ref.Complete)
				}
				if !reflect.DeepEqual(got.Outcomes, ref.Outcomes) {
					t.Errorf("par=%d prune=%v: outcome counts diverge:\n got %v\nwant %v",
						opts.Parallel, opts.Prune, got.Outcomes, ref.Outcomes)
				}
				if !reflect.DeepEqual(got.MaxOccupancy, ref.MaxOccupancy) {
					t.Errorf("par=%d prune=%v: MaxOccupancy %v, want %v",
						opts.Parallel, opts.Prune, got.MaxOccupancy, ref.MaxOccupancy)
				}
				if got.Verdict != ref.Verdict {
					t.Errorf("par=%d prune=%v: verdict %q, want %q", opts.Parallel, opts.Prune, got.Verdict, ref.Verdict)
				}
			}
			// Sleep sets only preserve the outcome *support* and verdict.
			slept, err := Run(tt, RunOptions{Prune: true, SleepSets: true})
			if err != nil {
				t.Fatal(err)
			}
			if slept.Verdict != ref.Verdict || slept.Complete != ref.Complete {
				t.Errorf("sleep sets: verdict %q complete=%v, want %q %v",
					slept.Verdict, slept.Complete, ref.Verdict, ref.Complete)
			}
			for o := range ref.Outcomes {
				if slept.Outcomes[o] == 0 {
					t.Errorf("sleep sets lost outcome %q", o)
				}
			}
			for o := range slept.Outcomes {
				if ref.Outcomes[o] == 0 {
					t.Errorf("sleep sets invented outcome %q", o)
				}
			}
			if !reflect.DeepEqual(slept.MaxOccupancy, ref.MaxOccupancy) {
				t.Errorf("sleep sets: MaxOccupancy %v, want %v", slept.MaxOccupancy, ref.MaxOccupancy)
			}
		})
	}
}

// TestPruneExecutedDeterministic: sequential Prune's executed count is a
// function of the test alone, so two explorations of every library entry
// must execute the same number of schedules. Publishing registers in map
// order broke this: the store-buffer contents, and so the states the memo
// dedups, changed from run to run.
func TestPruneExecutedDeterministic(t *testing.T) {
	opts := RunOptions{MaxSchedules: 1 << 20, Parallel: 1, Prune: true}
	for _, src := range Library {
		tt := mustParse(t, src)
		a, err := Run(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Executed != b.Executed {
			t.Errorf("%s: executed %d then %d schedules under sequential Prune", tt.Name, a.Executed, b.Executed)
		}
	}
}
