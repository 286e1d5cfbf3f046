package tso

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// foldShards explores every shard independently (sequentially here; the
// fold is order-insensitive) with the given per-slice budget, looping
// each shard's remainder until it completes, and folds all deltas.
func foldShards(t *testing.T, cfg Config, mk func(m *Machine) []func(Context), out func(m *Machine) string,
	base *Checkpoint, shards []*Checkpoint, sliceRuns int, prune bool) (OutcomeSet, ExploreResult) {
	t.Helper()
	fold := NewFold(cfg.Threads)
	fold.AddBase(base)
	for _, shard := range shards {
		cp := shard
		for {
			set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{
				ExploreOptions: ExploreOptions{MaxRuns: sliceRuns},
				Prune:          prune,
				Resume:         cp,
			})
			fold.Add(set, res)
			if res.Complete {
				break
			}
			if res.Checkpoint == nil {
				t.Fatal("incomplete shard slice without a checkpoint")
			}
			// The slice's delta is folded already, so the remainder must
			// resume from a zero-progress checkpoint — Shards() strips the
			// accumulated counts into a base this loop discards.
			_, rest := res.Checkpoint.Shards()
			if len(rest) != 1 {
				t.Fatalf("single-unit shard resumed into %d units", len(rest))
			}
			cp = rest[0]
		}
	}
	return fold.Result(true)
}

// TestShardFrontierFoldMatchesDirect: splitting the SB tree into shards,
// exploring each independently and folding must reproduce the undivided
// exploration byte-for-byte — counts, occupancy, and tree shape — with
// and without pruning.
func TestShardFrontierFoldMatchesDirect(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}

	// Pruned shards memoize independently, so only the unpruned fold can
	// match the direct tree shape and run tally; counts must match always.
	want, wantRes := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})

	for _, prune := range []bool{false, true} {
		cp, err := ShardFrontier(cfg, mk, ExhaustiveOptions{Units: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.Units) < 2 {
			t.Fatalf("frontier did not split: %d units", len(cp.Units))
		}
		if cp.Runs != 0 || len(cp.Counts) != 0 {
			t.Fatalf("ShardFrontier checkpoint carries progress: %+v", cp)
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("ShardFrontier checkpoint invalid: %v", err)
		}
		base, shards := cp.Shards()
		if len(shards) != len(cp.Units) {
			t.Fatalf("Shards returned %d shards for %d units", len(shards), len(cp.Units))
		}
		set, res := foldShards(t, cfg, mk, out, base, shards, 1<<20, prune)
		if !reflect.DeepEqual(set.Counts, want.Counts) {
			t.Fatalf("prune=%v: folded counts %v, want %v", prune, set.Counts, want.Counts)
		}
		if !reflect.DeepEqual(set.MaxOccupancy, want.MaxOccupancy) {
			t.Fatalf("prune=%v: folded occupancy %v, want %v", prune, set.MaxOccupancy, want.MaxOccupancy)
		}
		if !prune {
			if res.Tree != wantRes.Tree {
				t.Fatalf("folded tree %+v, want %+v", res.Tree, wantRes.Tree)
			}
			if res.Runs != wantRes.Runs {
				t.Fatalf("unpruned folded runs %d, want %d", res.Runs, wantRes.Runs)
			}
		}
	}
}

// TestShardSliceResumeMatchesDirect: the service's actual execution shape
// — every shard explored in small budget slices, each slice resumed from
// the previous remainder, deltas folded in — must still land on the
// undivided counts.
func TestShardSliceResumeMatchesDirect(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	want, _ := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})

	cp, err := ShardFrontier(cfg, mk, ExhaustiveOptions{Units: 5})
	if err != nil {
		t.Fatal(err)
	}
	base, shards := cp.Shards()
	set, res := foldShards(t, cfg, mk, out, base, shards, 9, false)
	if !reflect.DeepEqual(set.Counts, want.Counts) {
		t.Fatalf("sliced counts %v, want %v", set.Counts, want.Counts)
	}
	if !res.Complete {
		t.Fatal("fold not marked complete")
	}
	if set.Total() != want.Total() {
		t.Fatalf("sliced total %d, want %d", set.Total(), want.Total())
	}
}

// TestSingleUnitResumeLeavesOneOpenUnit pins what a sliced shard's
// caller relies on: resuming a single-unit checkpoint under MaxRuns
// reports at most one open unit — exactly one, in a non-nil checkpoint,
// whenever the slice is incomplete — in every reduction mode and however
// many workers are offered.
func TestSingleUnitResumeLeavesOneOpenUnit(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	modes := map[string]ExhaustiveOptions{
		"plain":   {},
		"prune":   {Prune: true},
		"reorder": {MaxReorderings: 1},
		"dpor":    {DPOR: true},
	}
	for name, mode := range modes {
		cp, err := ShardFrontier(cfg, mk, ExhaustiveOptions{Units: 4, MaxReorderings: mode.MaxReorderings, DPOR: mode.DPOR})
		if err != nil {
			t.Fatal(err)
		}
		_, shards := cp.Shards()
		slices := 0
		for _, shard := range shards {
			for cur := shard; ; {
				opts := mode
				opts.MaxRuns, opts.Parallel, opts.Resume = 3, 4, cur
				_, res := ExploreExhaustive(cfg, mk, out, opts)
				slices++
				if res.Complete {
					if res.Checkpoint != nil {
						t.Fatalf("%s: complete slice returned a checkpoint", name)
					}
					break
				}
				if res.Checkpoint == nil || len(res.Checkpoint.Units) != 1 {
					t.Fatalf("%s: incomplete slice left %+v, want one open unit", name, res.Checkpoint)
				}
				_, rest := res.Checkpoint.Shards()
				cur = rest[0]
			}
		}
		if slices <= len(shards) {
			t.Fatalf("%s: no shard needed a second slice; the budget is too large to test remainders", name)
		}
	}
}

// TestInterruptBeforeStartCheckpointsWholeFrontier: an interrupt that is
// already receivable stops workers before any schedule executes, so the
// checkpoint must hand back the entire frontier, and resuming it must
// reproduce the full exploration.
func TestInterruptBeforeStartCheckpointsWholeFrontier(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	want, _ := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})

	interrupted := make(chan struct{})
	close(interrupted)
	set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{
		Parallel:  2,
		Interrupt: interrupted,
	})
	if res.Complete {
		t.Fatal("interrupted exploration reported complete")
	}
	if res.Checkpoint == nil {
		t.Fatal("interrupted exploration carries no checkpoint")
	}
	if res.Runs != 0 || set.Total() != 0 {
		t.Fatalf("interrupt-before-start still executed %d runs (%d outcomes)", res.Runs, set.Total())
	}
	got, gotRes := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Resume: res.Checkpoint})
	if !gotRes.Complete {
		t.Fatal("resume after interrupt incomplete")
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("resumed counts %v, want %v", got.Counts, want.Counts)
	}
}

// TestInterruptMidFlightResumes: interrupting a running exploration from
// another goroutine must yield either a completed result or a resumable
// checkpoint whose continuation reproduces the direct counts exactly.
func TestInterruptMidFlightResumes(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 3}
	want, _ := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})

	interrupt := make(chan struct{})
	go close(interrupt) // race the workers deliberately
	set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{
		Parallel:  2,
		Units:     8,
		Interrupt: interrupt,
	})
	// Resumed checkpoints carry cumulative counts, so the final leg's set
	// is the whole exploration.
	legs := 0
	for !res.Complete {
		if res.Checkpoint == nil {
			t.Fatal("incomplete interrupted exploration without a checkpoint")
		}
		if legs++; legs > 1000 {
			t.Fatal("interrupt resume not converging")
		}
		set, res = ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Resume: res.Checkpoint})
	}
	if !reflect.DeepEqual(set.Counts, want.Counts) {
		t.Fatalf("post-interrupt counts %v, want %v", set.Counts, want.Counts)
	}
}

// TestFreshExplorationResumesShardFrontier pins the one entry path: an
// unresumed ExploreExhaustive explores exactly the zero-progress
// checkpoint ShardFrontier returns, so resuming that checkpoint must give
// the same result in every mode — and, under a run budget, a checkpoint
// with the same bytes. The label row resumes an unlabeled frontier under
// a label, which the result checkpoint must carry as a fresh run does.
func TestFreshExplorationResumesShardFrontier(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	modes := []struct {
		name string
		opts ExhaustiveOptions
	}{
		{"plain", ExhaustiveOptions{}},
		{"prune", ExhaustiveOptions{Prune: true}},
		{"sleep", ExhaustiveOptions{SleepSets: true}},
		{"dpor", ExhaustiveOptions{DPOR: true}},
		{"reorder2", ExhaustiveOptions{MaxReorderings: 2}},
		{"label", ExhaustiveOptions{Prune: true, Label: "phase"}},
	}
	encode := func(cp *Checkpoint) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := (BinaryCodec{}).EncodeCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, mode := range modes {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", mode.name, par), func(t *testing.T) {
				run := func(maxRuns int) (fresh, resumed ExploreResult, freshSet, resumedSet OutcomeSet) {
					o := mode.opts
					o.Parallel, o.Units, o.MaxRuns = par, 8, maxRuns
					freshSet, fresh = ExploreExhaustive(cfg, mk, out, o)
					unlabeled := o
					unlabeled.Label = ""
					cp, err := ShardFrontier(cfg, mk, unlabeled)
					if err != nil {
						t.Fatal(err)
					}
					o.Resume = cp
					resumedSet, resumed = ExploreExhaustive(cfg, mk, out, o)
					return fresh, resumed, freshSet, resumedSet
				}

				fresh, resumed, freshSet, resumedSet := run(0)
				if !fresh.Complete || !resumed.Complete {
					t.Fatalf("complete: fresh %v, resumed %v", fresh.Complete, resumed.Complete)
				}
				if !reflect.DeepEqual(freshSet, resumedSet) {
					t.Fatalf("outcomes: fresh %+v, resumed %+v", freshSet, resumedSet)
				}
				// Parallel Prune's memo hits depend on which worker publishes
				// first, and with them the executed runs and the tree and
				// prune statistics; every other combination pins them.
				if par == 1 || !mode.opts.Prune {
					if fresh.Runs != resumed.Runs || fresh.Tree != resumed.Tree || fresh.Prune != resumed.Prune {
						t.Fatalf("stats: fresh %d %+v %+v, resumed %d %+v %+v",
							fresh.Runs, fresh.Tree, fresh.Prune, resumed.Runs, resumed.Tree, resumed.Prune)
					}
				}

				if par != 1 {
					return // which units a parallel budget reaches depends on timing
				}
				fresh, resumed, _, _ = run(5)
				if fresh.Checkpoint == nil || resumed.Checkpoint == nil {
					t.Fatalf("budgeted runs left no checkpoint: fresh %v, resumed %v", fresh.Checkpoint, resumed.Checkpoint)
				}
				if fresh.Checkpoint.Label != mode.opts.Label {
					t.Fatalf("checkpoint label %q, want %q", fresh.Checkpoint.Label, mode.opts.Label)
				}
				if !bytes.Equal(encode(fresh.Checkpoint), encode(resumed.Checkpoint)) {
					t.Fatalf("budget checkpoints differ:\nfresh   %+v\nresumed %+v", fresh.Checkpoint, resumed.Checkpoint)
				}
			})
		}
	}
}
