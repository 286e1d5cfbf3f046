package tso

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
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

	// A limit of two and a half slot chunks on a program with more than
	// twice as many states: the FIFO clock crosses every chunk boundary
	// and wraps from the short last chunk back to the first, so slots and
	// their records are reused across chunks.
	mk, out = iriwProgs()
	cfg = Config{Threads: 4, BufferSize: 1, DrainBuffer: true}
	want, _ = ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true})
	const limit = 2*memoChunk + memoChunk/2
	set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true, memoLimit: limit, memoStripes: 1})
	if !res.Complete {
		t.Fatal("IRIW at a multi-chunk limit: incomplete")
	}
	if !reflect.DeepEqual(set.Counts, want.Counts) || !reflect.DeepEqual(set.MaxOccupancy, want.MaxOccupancy) {
		t.Errorf("IRIW at memoLimit=%d: counts %v occupancy %v, want %v %v",
			limit, set.Counts, set.MaxOccupancy, want.Counts, want.MaxOccupancy)
	}
	if res.Memo.Entries != limit || res.Memo.Evicted < limit {
		t.Errorf("IRIW at memoLimit=%d: memo %+v, want the table full and the clock wrapped", limit, res.Memo)
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

// TestMemoBytesPerEntry bounds the heap a resident memo entry keeps
// alive. A Prune exploration of Chase-Lev with two thieves, cut by its
// run budget, returns a checkpoint that holds the table; the heap the
// checkpoint retains, divided by the resident entries, must stay within
// 128 bytes, and so must the table's own Bytes gauge.
func TestMemoBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes include race-detector instrumentation")
	}
	const maxPerEntry = 128
	mk, out := chaseLevProgs(3, 2, []int{1, 1})
	cfg := Config{Threads: 3, BufferSize: 2}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true, ExploreOptions: ExploreOptions{MaxRuns: 9000}})
	runtime.GC()
	runtime.ReadMemStats(&after)
	cp, entries := res.Checkpoint, res.Memo.Entries
	if cp == nil || cp.memo == nil || entries < 10000 {
		t.Fatalf("budget cut left no table of >= 10000 entries: complete %v, memo %+v", res.Complete, res.Memo)
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(cp)
	perEntry := float64(retained) / float64(entries)
	t.Logf("%d entries retain %d bytes, %.1f per entry; the table reports %d bytes", entries, retained, perEntry, res.Memo.Bytes)
	if perEntry > maxPerEntry {
		t.Errorf("memo entries retain %.1f bytes each, want at most %d", perEntry, maxPerEntry)
	}
	if res.Memo.Bytes <= 0 || res.Memo.Bytes > maxPerEntry*int64(entries) {
		t.Errorf("table reports %d bytes for %d entries, want (0, %d] per entry", res.Memo.Bytes, entries, maxPerEntry)
	}
}

// TestMemoArenaRoundTrip: a resident entry decodes to exactly the
// aggregate published for it, whatever its number of outcomes (a record
// longer than a record chunk included); a duplicate key keeps the first
// entry; and a full stripe evicts exactly its oldest entries, FIFO,
// reusing their slots and records across chunk boundaries.
func TestMemoArenaRoundTrip(t *testing.T) {
	const limit = memoChunk + memoChunk/2
	tab := newMemoTable(Config{Threads: 5, BufferSize: 3, DrainBuffer: true}, 1, limit)
	entry := func(i int) memoEntry {
		e := memoEntry{stepLimited: i % 3, maxOcc: []int{i % 5, 4, 0, i / 5 % 5, 1}}
		pairs := i % 4
		if i%500 == 7 {
			pairs = 1500
		}
		for j := range pairs {
			n := int64(i + j + 1)
			e.counts = append(e.counts, outcomeCount{id: uint32(3*j + i%2), n: n})
			e.runs += n
		}
		return e
	}
	key := func(i int) stateKey { return keySeed.mix(uint64(i)) }
	const total = 3 * limit
	for i := range total {
		e := entry(i)
		tab.put(key(i), &e)
	}
	first := entry(0)
	tab.put(key(total-1), &first)

	var got memoEntry
	for i := range total {
		resident := i >= total-limit
		if ok := tab.get(key(i), &got); ok != resident {
			t.Fatalf("entry %d: found %v, want %v (FIFO over the last %d)", i, ok, resident, limit)
		}
		if !resident {
			continue
		}
		want := entry(i)
		if got.runs != want.runs || got.stepLimited != want.stepLimited ||
			!slices.Equal(got.counts, want.counts) || !slices.Equal(got.maxOcc, want.maxOcc) {
			t.Fatalf("entry %d decodes to runs %d step-limited %d occupancy %v and %d pairs, want %d %d %v and %d pairs",
				i, got.runs, got.stepLimited, got.maxOcc, len(got.counts), want.runs, want.stepLimited, want.maxOcc, len(want.counts))
		}
	}
	if st := tab.stats(); st.Entries != limit || st.Admitted != total || st.Evicted != total-limit {
		t.Errorf("stats %+v, want %d resident, %d admitted, %d evicted", st, limit, total, total-limit)
	}
}
