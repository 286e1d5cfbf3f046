package litmusdsl

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tso"
)

// TestDPORIdentityAcrossLibrary is the litmus-level preservation bar for
// source-set DPOR: on every TSO test in the library the outcome *set*,
// verdict, Complete, and MaxOccupancy must be byte-identical to the
// unreduced exploration, sequentially and in parallel. Per-outcome
// counts are class counts under DPOR and are not compared.
func TestDPORIdentityAcrossLibrary(t *testing.T) {
	for _, src := range Library {
		tt := mustParse(t, src)
		if tt.Model == tso.ModelPSO {
			continue // rejected by Run; covered below
		}
		t.Run(tt.Name, func(t *testing.T) {
			ref, err := Run(tt, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{0, 4} {
				got, err := Run(tt, RunOptions{DPOR: true, Parallel: par})
				if err != nil {
					t.Fatal(err)
				}
				if got.Verdict != ref.Verdict || got.Complete != ref.Complete {
					t.Errorf("par=%d: verdict %q complete=%v, want %q %v",
						par, got.Verdict, got.Complete, ref.Verdict, ref.Complete)
				}
				for o := range ref.Outcomes {
					if got.Outcomes[o] == 0 {
						t.Errorf("par=%d: outcome %q lost under DPOR", par, o)
					}
				}
				for o := range got.Outcomes {
					if ref.Outcomes[o] == 0 {
						t.Errorf("par=%d: outcome %q invented under DPOR", par, o)
					}
				}
				if !reflect.DeepEqual(got.MaxOccupancy, ref.MaxOccupancy) {
					t.Errorf("par=%d: MaxOccupancy %v, want %v", par, got.MaxOccupancy, ref.MaxOccupancy)
				}
				if got.Executed > ref.Executed {
					t.Errorf("par=%d: DPOR executed %d schedules, unreduced %d",
						par, got.Executed, ref.Executed)
				}
			}
		})
	}
}

// TestDPORRunRejections pins that Run returns the engine's DPOR
// refusals (tso.ExhaustiveOptions.Validate) as errors rather than
// panicking out of the exploration.
func TestDPORRunRejections(t *testing.T) {
	var pso *Test
	for _, src := range Library {
		if tt := mustParse(t, src); tt.Model == tso.ModelPSO {
			pso = tt
			break
		}
	}
	if pso == nil {
		t.Fatal("library has no PSO test")
	}
	if _, err := Run(pso, RunOptions{DPOR: true}); !errors.Is(err, tso.ErrDPORModel) || !strings.Contains(err.Error(), pso.Name) {
		t.Errorf("DPOR on a PSO test: err = %v, want ErrDPORModel naming the test", err)
	}
	sb := mustParse(t, Library[0])
	if _, err := Run(sb, RunOptions{DPOR: true, MaxReorderings: 1}); !errors.Is(err, tso.ErrDPORReorder) {
		t.Errorf("DPOR with a reorder bound: err = %v, want ErrDPORReorder", err)
	}
}

// TestReorderBoundPlumbing checks RunOptions.MaxReorderings reaches the
// engine: on SB a bound of 1 still reaches every outcome (each thread
// needs only one store->load reordering for the weak result) but binds —
// fewer schedules are accounted and the skip counter moves.
func TestReorderBoundPlumbing(t *testing.T) {
	sb := mustParse(t, Library[0])
	full, err := Run(sb, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Run(sb, RunOptions{MaxReorderings: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bounded.Complete || bounded.Verdict != full.Verdict {
		t.Fatalf("k=1: verdict %q complete=%v, want %q complete", bounded.Verdict, bounded.Complete, full.Verdict)
	}
	for o := range full.Outcomes {
		if bounded.Outcomes[o] == 0 {
			t.Errorf("k=1 pruned outcome %q", o)
		}
	}
	if bounded.Schedules >= full.Schedules {
		t.Errorf("k=1 did not bind: %d schedules vs %d unbounded", bounded.Schedules, full.Schedules)
	}
	if bounded.Prune.ReorderSkips == 0 {
		t.Error("k=1 binds but ReorderSkips == 0")
	}
}
