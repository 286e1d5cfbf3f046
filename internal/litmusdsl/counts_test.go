package litmusdsl

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/tso"
)

var updateCounts = flag.Bool("update-counts", false,
	"rewrite testdata/counts.golden from the current engine instead of checking it")

// countModes are the exhaustive-engine configurations the count pin
// covers. The DPOR row applies to TSO tests only (Run rejects PSO).
var countModes = []struct {
	name string
	opts RunOptions
}{
	{"plain", RunOptions{}},
	{"prune", RunOptions{Prune: true}},
	{"sleep", RunOptions{SleepSets: true}},
	{"prune+sleep", RunOptions{Prune: true, SleepSets: true}},
	{"prune+sleep+k1", RunOptions{Prune: true, SleepSets: true, MaxReorderings: 1}},
	{"dpor", RunOptions{DPOR: true}},
}

// countLine renders every count a sequential exploration reports —
// schedules, executed runs, occupancy, tree shape, every reduction
// counter, and the outcome multiset — as one canonical line.
func countLine(r Result) string {
	outs := make([]string, 0, len(r.Outcomes))
	for o, c := range r.Outcomes {
		outs = append(outs, fmt.Sprintf("{%s}=%d", strings.TrimSpace(o), c))
	}
	sort.Strings(outs)
	p := r.Prune
	return fmt.Sprintf("sched=%d exec=%d complete=%v occ=%v tree=%d/%d/%d "+
		"prune=%d/%d/%d/%d sleep=%d reorder=%d dpor=%d/%d/%d outcomes=%s",
		r.Schedules, r.Executed, r.Complete, r.MaxOccupancy,
		r.Tree.MaxDepth, r.Tree.MaxFanout, r.Tree.ChoicePoints,
		p.StatesSeen, p.StatesDeduped, p.SubtreesCut, p.SchedulesSaved,
		p.SleepSkips, p.ReorderSkips, p.DPORRaces, p.DPORBacktracks, p.DPORSleepSkips,
		strings.Join(outs, " "))
}

// TestLibraryCountsPinned pins the exact counts of every library test
// under every sequential engine mode against testdata/counts.golden.
// Sequential exploration is deterministic, so any change to these lines
// is a change in what the engine explores — refactors of the exhaustive
// engine must leave every row byte-identical. Regenerate deliberately
// with -update-counts.
func TestLibraryCountsPinned(t *testing.T) {
	var got []string
	for _, src := range Library {
		tt := mustParse(t, src)
		for _, mode := range countModes {
			if mode.opts.DPOR && tt.Model == tso.ModelPSO {
				continue
			}
			res, err := Run(tt, mode.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tt.Name, mode.name, err)
			}
			got = append(got, tt.Name+"/"+mode.name+": "+countLine(res))
		}
	}
	path := filepath.Join("testdata", "counts.golden")
	if *updateCounts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
