package tso

import (
	"bytes"
	"reflect"
	"testing"
)

// TestMemoLimitSaturationCountsIdentical is the saturation bar for the
// striped arena: once the table stops admitting (here: evicts), the
// exploration must still produce byte-identical counts — memo loss costs
// re-exploration, never correctness. Exercised against both a limit far
// below the state count and the default limit, sequentially and in
// parallel.
func TestMemoLimitSaturationCountsIdentical(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 3}
	want, wantRes := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})
	if !wantRes.Complete {
		t.Fatal("reference exploration incomplete")
	}

	variants := []struct {
		name string
		opts ExhaustiveOptions
	}{
		{"default-limit", ExhaustiveOptions{Prune: true}},
		{"tiny-limit", ExhaustiveOptions{Prune: true, memoLimit: 8}},
		{"tiny-limit/one-stripe", ExhaustiveOptions{Prune: true, memoLimit: 8, memoStripes: 1}},
		{"tiny-limit/parallel", ExhaustiveOptions{Prune: true, memoLimit: 8, Parallel: 4, Units: 8}},
		{"limit-one", ExhaustiveOptions{Prune: true, memoLimit: 1, memoStripes: 1}},
	}
	for _, v := range variants {
		set, res := ExploreExhaustive(cfg, mk, out, v.opts)
		if !res.Complete {
			t.Errorf("%s: incomplete", v.name)
			continue
		}
		if !reflect.DeepEqual(set.Counts, want.Counts) {
			t.Errorf("%s: counts %v, want %v", v.name, set.Counts, want.Counts)
		}
		if !reflect.DeepEqual(set.MaxOccupancy, want.MaxOccupancy) {
			t.Errorf("%s: MaxOccupancy %v, want %v", v.name, set.MaxOccupancy, want.MaxOccupancy)
		}
		if res.Memo.Entries == 0 || res.Memo.Admitted == 0 {
			t.Errorf("%s: pruned run reported empty memo stats %+v", v.name, res.Memo)
		}
		if int64(res.Memo.Entries) > res.Memo.Admitted+res.Memo.Evicted {
			t.Errorf("%s: inconsistent memo stats %+v", v.name, res.Memo)
		}
	}

	// The tiny limit must actually saturate — otherwise the variants above
	// never left the fast path and proved nothing.
	_, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true, memoLimit: 8, memoStripes: 1})
	if res.Memo.Evicted == 0 {
		t.Errorf("memoLimit=8 never evicted (memo %+v): litmus too small for the saturation test", res.Memo)
	}
	if res.Memo.Entries > 8 {
		t.Errorf("memoLimit=8 but %d entries resident", res.Memo.Entries)
	}
}

// TestMemoStripesEquivalence: the stripe count is a performance knob,
// never a semantic one — 1, a non-power-of-two, and many stripes must all
// reproduce the same counts, and the arena must report the rounded
// power-of-two it actually ran with.
func TestMemoStripesEquivalence(t *testing.T) {
	mk, out := mpProgsShared()
	cfg := Config{Threads: 2, BufferSize: 2}
	want, _ := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true})

	for _, stripes := range []int{1, 3, 8, 64} {
		set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{
			Prune: true, memoStripes: stripes, Parallel: 4, Units: 8,
		})
		if !res.Complete {
			t.Fatalf("stripes=%d: incomplete", stripes)
		}
		if !reflect.DeepEqual(set.Counts, want.Counts) {
			t.Errorf("stripes=%d: counts %v, want %v", stripes, set.Counts, want.Counts)
		}
		wantStripes := 1
		for wantStripes < stripes {
			wantStripes <<= 1
		}
		if res.Memo.Stripes != wantStripes {
			t.Errorf("stripes=%d: arena reports %d stripes, want %d", stripes, res.Memo.Stripes, wantStripes)
		}
	}
}

// TestMemoStatsZeroWithoutPrune: no pruning, no arena — the stats must
// stay zero rather than report a phantom table.
func TestMemoStatsZeroWithoutPrune(t *testing.T) {
	mk, out := sbProgsShared(false)
	_, res := ExploreExhaustive(Config{Threads: 2, BufferSize: 2}, mk, out, ExhaustiveOptions{})
	if res.Memo != (MemoStats{}) {
		t.Fatalf("unpruned run reported memo stats %+v", res.Memo)
	}
}

// TestFoldReportsMemoStats: shard results folded through Fold must
// surface the summed arena statistics — the serve layer's /metrics
// gauges read them from the folded ExploreResult.
func TestFoldReportsMemoStats(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	cp, err := ShardFrontier(cfg, mk, ExhaustiveOptions{Units: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, shards := cp.Shards()
	fold := NewFold(cfg.Threads)
	fold.AddBase(base)
	for _, sh := range shards {
		set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true, Resume: sh})
		fold.Add(set, res)
	}
	_, res := fold.Result(true)
	if res.Memo.Entries == 0 || res.Memo.Admitted == 0 || res.Memo.Stripes == 0 {
		t.Fatalf("folded memo stats empty: %+v", res.Memo)
	}
}

// TestResumeContinuesMemoTable: a checkpoint resumed in the process that
// wrote it hands its exploration's memo table to the resume, so legs of
// one exploration dedup across their boundaries almost as the
// uninterrupted exploration does, and their memo stats sum to the one
// table's. A checkpoint that went through the codec starts an empty table
// every leg, which on IRIW costs orders of magnitude more runs.
func TestResumeContinuesMemoTable(t *testing.T) {
	mk, out := iriwProgs()
	cfg := Config{Threads: 4, BufferSize: 1}
	opts := ExhaustiveOptions{Prune: true, Units: 8}
	want, wantRes := ExploreExhaustive(cfg, mk, out, opts)

	// legs explores in 200-run legs until complete or past maxRuns.
	legs := func(decode bool, maxRuns int) (OutcomeSet, ExploreResult, MemoStats) {
		leg := opts
		leg.MaxRuns = 200
		var memo MemoStats
		for {
			set, res := ExploreExhaustive(cfg, mk, out, leg)
			memo.merge(res.Memo)
			if res.Complete || res.Runs > maxRuns {
				return set, res, memo
			}
			leg.Resume = res.Checkpoint
			if decode {
				var buf bytes.Buffer
				if err := (BinaryCodec{}).EncodeCheckpoint(&buf, res.Checkpoint); err != nil {
					t.Fatal(err)
				}
				cp, err := (BinaryCodec{}).DecodeCheckpoint(&buf)
				if err != nil {
					t.Fatal(err)
				}
				leg.Resume = cp
			}
		}
	}
	kept, keptRes, keptMemo := legs(false, 10*wantRes.Runs)
	if !keptRes.Complete || !reflect.DeepEqual(kept.Counts, want.Counts) {
		t.Fatalf("legs continuing one memo table: complete %v counts %v, want %v", keptRes.Complete, kept.Counts, want.Counts)
	}
	// Subtrees a leg boundary cuts are never memoized, so the legs may
	// run a little more than the uninterrupted exploration.
	if keptRes.Runs > wantRes.Runs*5/4 {
		t.Fatalf("legs continuing one memo table executed %d runs, uninterrupted %d", keptRes.Runs, wantRes.Runs)
	}
	if keptMemo.Entries > wantRes.Memo.Entries || keptMemo.Admitted != int64(keptMemo.Entries) {
		t.Fatalf("legs' memo stats %+v do not sum to one table's (uninterrupted %+v)", keptMemo, wantRes.Memo)
	}
	if _, coldRes, _ := legs(true, 4*keptRes.Runs); coldRes.Complete {
		t.Fatalf("legs through the codec finished within %d runs (kept table: %d): the litmus no longer shows the handover",
			coldRes.Runs, keptRes.Runs)
	}
}
