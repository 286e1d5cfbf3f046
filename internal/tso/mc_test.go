package tso

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sbProgsShared is a parallel-safe SB litmus: the address layout is fixed
// by Alloc's deterministic order, so the factory writes no shared captured
// state and may run on concurrent machines.
func sbProgsShared(fenced bool) (func(m *Machine) []func(Context), func(m *Machine) string) {
	const xA, yA, r0A, r1A = Addr(0), Addr(1), Addr(2), Addr(3)
	mk := func(m *Machine) []func(Context) {
		x, y := m.Alloc(1), m.Alloc(1)
		r0a, r1a := m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(x, 1)
				if fenced {
					c.Fence()
				}
				c.Store(r0a, c.Load(y)+100)
			},
			func(c Context) {
				c.Store(y, 1)
				if fenced {
					c.Fence()
				}
				c.Store(r1a, c.Load(x)+100)
			},
		}
	}
	// The +100/-100 dance distinguishes "load observed 0" from "the
	// result store never landed": an unwritten result cell reads back as
	// the impossible r=-100, not as a plausible r=0.
	out := func(m *Machine) string {
		return fmt.Sprintf("r0=%d r1=%d", int64(m.Peek(r0A))-100, int64(m.Peek(r1A))-100)
	}
	_ = xA
	_ = yA
	return mk, out
}

// mpProgsShared is a parallel-safe message-passing litmus.
func mpProgsShared() (func(m *Machine) []func(Context), func(m *Machine) string) {
	mk := func(m *Machine) []func(Context) {
		x, y := m.Alloc(1), m.Alloc(1)
		r0a, r1a := m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(x, 1)
				c.Store(y, 1)
			},
			func(c Context) {
				r0 := c.Load(y)
				r1 := c.Load(x)
				c.Store(r0a, r0)
				c.Store(r1a, r1)
			},
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("flag=%d data=%d", m.Peek(2), m.Peek(3))
	}
	return mk, out
}

// TestExhaustiveMatchesSequential is the engine-equivalence bar: for every
// litmus/config pair, every combination of parallelism and dedup pruning
// must reproduce the sequential reference engine's outcome counts,
// completeness, and occupancy high-water marks byte-identically — and,
// except under parallel pruning, whose memo hits depend on timing, its
// witnesses: each outcome's first schedule in depth-first order.
func TestExhaustiveMatchesSequential(t *testing.T) {
	sbMk, sbOut := sbProgsShared(false)
	sbfMk, sbfOut := sbProgsShared(true)
	mpMk, mpOut := mpProgsShared()
	cases := []struct {
		name string
		cfg  Config
		mk   func(m *Machine) []func(Context)
		out  func(m *Machine) string
	}{
		{"SB/S=2", Config{Threads: 2, BufferSize: 2}, sbMk, sbOut},
		{"SB+fence/S=2", Config{Threads: 2, BufferSize: 2}, sbfMk, sbfOut},
		{"MP/S=2", Config{Threads: 2, BufferSize: 2}, mpMk, mpOut},
		{"MP/S=2+stage", Config{Threads: 2, BufferSize: 2, DrainBuffer: true}, mpMk, mpOut},
	}
	variants := []struct {
		name string
		opts ExhaustiveOptions
	}{
		{"seq", ExhaustiveOptions{}},
		{"prune", ExhaustiveOptions{Prune: true}},
		{"par", ExhaustiveOptions{Parallel: 4}},
		{"par+prune", ExhaustiveOptions{Parallel: 4, Prune: true}},
	}
	for _, tc := range cases {
		want, wantRes := ExploreOutcomes(tc.cfg, tc.mk, tc.out, ExploreOptions{})
		if !wantRes.Complete {
			t.Fatalf("%s: reference exploration incomplete", tc.name)
		}
		for _, v := range variants {
			set, res := ExploreExhaustive(tc.cfg, tc.mk, tc.out, v.opts)
			if !res.Complete {
				t.Errorf("%s/%s: incomplete after %d runs", tc.name, v.name, res.Runs)
			}
			if !reflect.DeepEqual(set.Counts, want.Counts) {
				t.Errorf("%s/%s: counts diverge from sequential engine:\n got %v\nwant %v",
					tc.name, v.name, set.Counts, want.Counts)
			}
			if !reflect.DeepEqual(set.MaxOccupancy, want.MaxOccupancy) {
				t.Errorf("%s/%s: MaxOccupancy %v, want %v", tc.name, v.name, set.MaxOccupancy, want.MaxOccupancy)
			}
			if set.Total() != wantRes.Runs {
				t.Errorf("%s/%s: accounted %d schedules, reference enumerated %d",
					tc.name, v.name, set.Total(), wantRes.Runs)
			}
			if v.name != "par+prune" && !reflect.DeepEqual(res.Witnesses, wantRes.Witnesses) {
				t.Errorf("%s/%s: witnesses %v, reference %v", tc.name, v.name, res.Witnesses, wantRes.Witnesses)
			}
		}
	}
}

// TestExhaustivePruneSavesWork checks that dedup pruning actually cuts the
// search on a litmus with converging interleavings, not just matches it.
func TestExhaustivePruneSavesWork(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	_, seqRes := ExploreOutcomes(cfg, mk, out, ExploreOptions{})
	set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true})
	if res.Prune.StatesDeduped == 0 || res.Prune.SchedulesSaved == 0 {
		t.Fatalf("no dedup on SB: %+v", res.Prune)
	}
	if res.Runs >= seqRes.Runs {
		t.Fatalf("pruned engine executed %d runs, sequential needed %d", res.Runs, seqRes.Runs)
	}
	if set.Total() != seqRes.Runs {
		t.Fatalf("pruned engine accounted %d schedules, want %d", set.Total(), seqRes.Runs)
	}
	t.Logf("SB S=2: %d runs executed for %d schedules (%d states seen, %d deduped, %d saved)",
		res.Runs, set.Total(), res.Prune.StatesSeen, res.Prune.StatesDeduped, res.Prune.SchedulesSaved)
}

// TestExhaustiveSleepSetsPreserveSupport: sleep sets drop redundant orders
// of commuting drains, so schedule counts shrink, but the reachable
// outcome set, completeness, and occupancy bounds must survive.
func TestExhaustiveSleepSetsPreserveSupport(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	want, _ := ExploreOutcomes(cfg, mk, out, ExploreOptions{})
	set, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true, SleepSets: true})
	if !res.Complete {
		t.Fatalf("incomplete after %d runs", res.Runs)
	}
	if res.Prune.SleepSkips == 0 {
		t.Fatalf("no sleep-set skips on SB: %+v", res.Prune)
	}
	for o := range want.Counts {
		if !set.Has(o) {
			t.Errorf("outcome %q lost under sleep sets (got %v)", o, set.Counts)
		}
	}
	for o := range set.Counts {
		if !want.Has(o) {
			t.Errorf("outcome %q invented under sleep sets", o)
		}
	}
	if !reflect.DeepEqual(set.MaxOccupancy, want.MaxOccupancy) {
		t.Errorf("MaxOccupancy %v, want %v", set.MaxOccupancy, want.MaxOccupancy)
	}
}

// TestExhaustiveResumeRoundTrip drives an exploration through repeated
// budget exhaustion, serializing the frontier to JSON and resuming from it
// each leg, and checks the union of legs reproduces the one-shot result.
func TestExhaustiveResumeRoundTrip(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	want, wantRes := ExploreOutcomes(cfg, mk, out, ExploreOptions{})

	opts := ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxRuns: 7}}
	set, res := ExploreExhaustive(cfg, mk, out, opts)
	if res.Complete || res.Checkpoint == nil {
		t.Fatalf("expected a budget-limited frontier, got complete=%v checkpoint=%v", res.Complete, res.Checkpoint)
	}
	legs := 1
	for !res.Complete {
		if legs > 10*wantRes.Runs/7+10 {
			t.Fatalf("resume not converging after %d legs", legs)
		}
		var buf bytes.Buffer
		if err := (BinaryCodec{}).EncodeCheckpoint(&buf, res.Checkpoint); err != nil {
			t.Fatal(err)
		}
		cp, err := (BinaryCodec{}).DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		opts.Resume = cp
		set, res = ExploreExhaustive(cfg, mk, out, opts)
		legs++
	}
	if !reflect.DeepEqual(set.Counts, want.Counts) {
		t.Fatalf("resumed counts diverge after %d legs:\n got %v\nwant %v", legs, set.Counts, want.Counts)
	}
	if !reflect.DeepEqual(set.MaxOccupancy, want.MaxOccupancy) {
		t.Fatalf("resumed MaxOccupancy %v, want %v", set.MaxOccupancy, want.MaxOccupancy)
	}
	if res.Runs != wantRes.Runs {
		t.Fatalf("cumulative runs %d, want %d", res.Runs, wantRes.Runs)
	}
	t.Logf("converged in %d legs of ≤7 runs", legs)
}

// TestExhaustiveResumeRejectsMismatchedConfig: a checkpoint's choice
// prefixes are meaningless under a different machine, so resuming must
// fail loudly.
func TestExhaustiveResumeRejectsMismatchedConfig(t *testing.T) {
	mk, out := sbProgsShared(false)
	_, res := ExploreExhaustive(Config{Threads: 2, BufferSize: 2}, mk, out,
		ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxRuns: 5}})
	if res.Checkpoint == nil {
		t.Fatal("expected a checkpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("resume under S=3 accepted a S=2 checkpoint")
		}
	}()
	ExploreExhaustive(Config{Threads: 2, BufferSize: 3}, mk, out, ExhaustiveOptions{Resume: res.Checkpoint})
}

// TestExploreTreeStatsReported: the tree-shape report must see through to
// the litmus's structure — SB at S=2 branches somewhere, and both engines
// agree on depth and fanout.
func TestExploreTreeStatsReported(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	_, seqRes := ExploreOutcomes(cfg, mk, out, ExploreOptions{})
	if seqRes.Tree.ChoicePoints == 0 || seqRes.Tree.MaxDepth == 0 || seqRes.Tree.MaxFanout < 2 {
		t.Fatalf("degenerate tree stats: %+v", seqRes.Tree)
	}
	_, exRes := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})
	if exRes.Tree != seqRes.Tree {
		t.Fatalf("exhaustive tree stats %+v, sequential %+v", exRes.Tree, seqRes.Tree)
	}
}

// --- ExploreWithChoices edge cases (the sequential reference engine) ---

// TestExploreErrorRunsTruncateAndContinue: a program that panics on some
// schedules must not wedge the enumeration — error runs are unwound,
// counted, and the search still covers the rest of the tree.
func TestExploreErrorRunsTruncateAndContinue(t *testing.T) {
	mk := func(m *Machine) []func(Context) {
		x := m.Alloc(1)
		seen := m.Alloc(1)
		return []func(Context){
			func(c Context) {
				c.Store(x, 1)
			},
			func(c Context) {
				if c.Load(x) == 1 {
					panic("observed the store")
				}
				c.Store(seen, 1)
			},
		}
	}
	var okRuns, errRuns int
	res := ExploreWithChoices(Config{Threads: 2, BufferSize: 1}, mk, ExploreOptions{}, func(m *Machine, err error, _ []int) bool {
		if err != nil {
			if !strings.Contains(err.Error(), "observed the store") {
				t.Fatalf("unexpected error: %v", err)
			}
			errRuns++
		} else {
			okRuns++
		}
		return false
	})
	if !res.Complete {
		t.Fatalf("incomplete after %d runs", res.Runs)
	}
	if errRuns == 0 || okRuns == 0 {
		t.Fatalf("expected both failing and clean schedules, got ok=%d err=%d", okRuns, errRuns)
	}
	if okRuns+errRuns != res.Runs {
		t.Fatalf("visit saw %d runs, engine reports %d", okRuns+errRuns, res.Runs)
	}
}

// TestExploreReplayDeterminismPanics: a factory whose program behaves
// differently across runs breaks the replay contract; the engine must
// refuse to explore garbage.
func TestExploreReplayDeterminismPanics(t *testing.T) {
	runN := 0
	mk := func(m *Machine) []func(Context) {
		x := m.Alloc(1)
		runN++
		extra := runN > 1
		return []func(Context){
			func(c Context) {
				c.Store(x, 1)
				if extra {
					c.Store(x, 2) // changes the action set mid-replay
				}
			},
			func(c Context) {
				c.Load(x)
			},
		}
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("non-replay-deterministic program explored without panic")
		}
		if !strings.Contains(fmt.Sprint(v), "replay-deterministic") {
			t.Fatalf("unexpected panic: %v", v)
		}
	}()
	ExploreWithChoices(Config{Threads: 2, BufferSize: 2}, mk, ExploreOptions{}, func(*Machine, error, []int) bool { return false })
}

// TestExploreMaxRunsExactlyLastSchedule: when the budget lands exactly on
// the tree's final schedule the exploration IS complete, and must say so.
func TestExploreMaxRunsExactlyLastSchedule(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	_, full := ExploreOutcomes(cfg, mk, out, ExploreOptions{})
	if !full.Complete {
		t.Fatal("reference incomplete")
	}
	_, exact := ExploreOutcomes(cfg, mk, out, ExploreOptions{MaxRuns: full.Runs})
	if !exact.Complete {
		t.Fatalf("budget of exactly %d runs reported incomplete", full.Runs)
	}
	if exact.Runs != full.Runs {
		t.Fatalf("runs=%d want %d", exact.Runs, full.Runs)
	}
	// One fewer must flip it.
	_, short := ExploreOutcomes(cfg, mk, out, ExploreOptions{MaxRuns: full.Runs - 1})
	if short.Complete {
		t.Fatal("budget one short of the tree claimed completeness")
	}
	// Same contract for the exhaustive engine.
	_, exEx := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxRuns: full.Runs}})
	if !exEx.Complete {
		t.Fatalf("exhaustive engine: budget of exactly %d runs reported incomplete", full.Runs)
	}
}

// TestSampleOutcomesMatchesChaosRuns: the shared sampling helper must be
// schedule-for-schedule identical to hand-rolled seeded chaos loops (it
// replaces several in cmd/), and its outcomes stay within the exhaustive
// set.
func TestSampleOutcomesMatchesChaosRuns(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2, DrainBias: 0.3}
	want := map[string]int{}
	for seed := 0; seed < 50; seed++ {
		c := cfg
		c.Seed = int64(seed)
		m := NewMachine(c)
		progs := mk(m)
		if err := m.Run(progs...); err != nil {
			t.Fatal(err)
		}
		want[out(m)]++
	}
	set := SampleOutcomes(cfg, 50, mk, out)
	if !reflect.DeepEqual(set.Counts, want) {
		t.Fatalf("SampleOutcomes %v, hand-rolled loop %v", set.Counts, want)
	}
	exact, _ := ExploreOutcomes(cfg, mk, out, ExploreOptions{})
	for o := range set.Counts {
		if !exact.Has(o) {
			t.Fatalf("sampled outcome %q outside the exhaustive set", o)
		}
	}
}

// TestExhaustivePruneHistorySeed pins the count-preservation contract on a
// CAS-heavy program whose thief begins by polling an untouched address: a
// self-contained port of the FF-CL duel the semantic oracle runs. It is a
// regression test for two ways the per-thread history hash could merge
// distinct histories: a rolling hash stuck at a fixed point under the
// all-zero record of "load address 0, read 0" (a zero seed under a mixer
// that maps (0, 0) to 0, so history lengths vanish) and a variable-width
// record (an ok bit mixed only when set is ambiguous against a following
// request of kind 1). TestStateKeySeparates checks the same two
// properties on the mixers directly.
func TestExhaustivePruneHistorySeed(t *testing.T) {
	mk := func(m *Machine) []func(Context) {
		H := m.Alloc(1)
		T := m.Alloc(1)
		tasks := m.Alloc(4)
		m.Poke(tasks, 11)
		m.Poke(tasks+1, 22)
		m.Poke(H, 0)
		m.Poke(T, 2)
		take := func(c Context) {
			tt := int64(c.Load(T)) - 1
			c.Store(T, uint64(tt))
			h := int64(c.Load(H))
			if tt > h {
				c.Load(tasks + Addr(tt%4))
				return
			}
			if tt < h {
				c.Store(T, uint64(h))
				return
			}
			c.Store(T, uint64(h+1))
			if _, ok := c.CAS(H, uint64(h), uint64(h+1)); ok {
				c.Load(tasks + Addr(tt%4))
			}
		}
		worker := func(c Context) { take(c); take(c) }
		thief := func(c Context) {
			for {
				h := int64(c.Load(H))
				tt := int64(c.Load(T))
				if h >= tt {
					return
				}
				if tt-1 <= h {
					return
				}
				c.Load(tasks + Addr(h%4))
				if _, ok := c.CAS(H, uint64(h), uint64(h+1)); ok {
					return
				}
			}
		}
		return []func(Context){worker, thief}
	}
	out := func(m *Machine) string { return fmt.Sprintf("h=%d t=%d", m.Peek(0), m.Peek(1)) }
	cfg := Config{Threads: 2, BufferSize: 2}
	plain, res1 := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})
	pruned, res2 := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true})
	if !res1.Complete || !res2.Complete {
		t.Fatalf("incomplete exploration: plain %v pruned %v", res1.Complete, res2.Complete)
	}
	if !reflect.DeepEqual(plain.Counts, pruned.Counts) {
		t.Fatalf("pruned counts diverge from sequential engine:\n got %v\nwant %v", pruned.Counts, plain.Counts)
	}
	if res2.Prune.StatesDeduped == 0 {
		t.Fatalf("no dedup on the duel: %+v", res2.Prune)
	}
}

// TestStateKeySeparates changes one hashed component of a machine state at
// a time and requires the two state keys to differ in both 64-bit halves,
// so neither mixer alone can merge them. The zero-valued cases are the
// ones a mixer with a fixed point under zero input would merge: a zero
// buffer entry, a zero stage, a zero history record, a zero sleep entry.
func TestStateKeySeparates(t *testing.T) {
	type state struct {
		m     *Machine
		r     *mcRunner
		hist  []uint64
		sleep []dsleepEntry
	}
	base := func() *state {
		m := NewMachine(Config{Threads: 2, BufferSize: 3, DrainBuffer: true})
		t.Cleanup(m.Close)
		m.Alloc(4)
		m.Poke(1, 7)
		m.steps = 5
		m.bufs[0].entries = append(m.bufs[0].entries, entry{addr: 2, val: 9})
		return &state{m: m, r: &mcRunner{e: &mcEngine{bound: -1}}, hist: []uint64{mixSeedA, mixSeedA}}
	}
	zeros := func(k int) func(s *state) {
		return func(s *state) { s.m.bufs[1].entries = make([]entry, k) }
	}
	bounded := func(reorder int) func(s *state) {
		return func(s *state) { s.r.e.bound, s.r.reorder = 2, reorder }
	}
	record := func(ok bool) func(s *state) {
		return func(s *state) { s.hist[1] = historyMix(s.hist[1], &request{kind: opCAS}, response{ok: ok}) }
	}
	same := func(*state) {}
	cases := []struct {
		name string
		a, b func(s *state)
	}{
		{"memory word", same, func(s *state) { s.m.Poke(3, 1) }},
		{"m.next", same, func(s *state) { s.m.Alloc(1) }},
		{"m.steps", same, func(s *state) { s.m.steps++ }},
		{"buffer entry address", same, func(s *state) { s.m.bufs[0].entries[0].addr++ }},
		{"buffer entry value", same, func(s *state) { s.m.bufs[0].entries[0].val++ }},
		{"0 vs 1 zero entries", zeros(0), zeros(1)},
		{"1 vs 2 zero entries", zeros(1), zeros(2)},
		{"2 vs 3 zero entries", zeros(2), zeros(3)},
		{"zero stage vs none", same, func(s *state) { s.m.bufs[1].hasStage = true }},
		{"history word", same, func(s *state) { s.hist[1] = historyMix(s.hist[1], &request{}, response{}) }},
		{"history ok bit", record(false), record(true)},
		{"one sleep entry", same, func(s *state) { s.sleep = []dsleepEntry{{proc: 2}} }},
		{"reorder count", bounded(0), bounded(1)},
	}
	for _, c := range cases {
		sa, sb := base(), base()
		c.a(sa)
		c.b(sb)
		ka := sa.r.stateKeyFor(sa.m, sa.hist, sa.sleep)
		kb := sb.r.stateKeyFor(sb.m, sb.hist, sb.sleep)
		if ka.a == kb.a || ka.b == kb.b {
			t.Errorf("%s: keys %x and %x share a half", c.name, ka, kb)
		}
	}

	if mixA(0, 0) == 0 || mixB(0, 0) == 0 || mixSeedA == 0 || mixSeedB == 0 {
		t.Fatal("a mixer maps (0, 0) to 0 or a seed is 0")
	}
	// Runs of zero words, and of all-zero history records, never repeat a
	// state: 0..64 of them give 65 distinct values in every half.
	seenA, seenB, seenH := map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}
	k, h := keySeed, mixSeedA
	for n := 0; n <= 64; n++ {
		if seenA[k.a] || seenB[k.b] || seenH[h] {
			t.Fatalf("%d zero words repeat an earlier state", n)
		}
		seenA[k.a], seenB[k.b], seenH[h] = true, true, true
		k = k.mix(0)
		h = historyMix(h, &request{}, response{})
	}
}

// TestMemoryKeyMatchesFlatWords pins the memory part of a state key to
// the word sequence of a flat array: mixMemory must fold exactly
// Peek(a) for every a < m.next, zeros included, whichever words are
// backed, so memo keys (and every count behind them) do not depend on
// the sparse layout.
func TestMemoryKeyMatchesFlatWords(t *testing.T) {
	flat := func(m *Machine) stateKey {
		k := keySeed
		for a := Addr(0); a < m.next; a++ {
			k = k.mix(m.Peek(a))
		}
		return k
	}
	check := func(name string, m *Machine) {
		t.Helper()
		if got, want := mixMemory(keySeed, m.mem, m.next), flat(m); got != want {
			t.Errorf("%s: mixMemory = %x, flat words = %x", name, got, want)
		}
	}
	m := NewMachine(Config{Threads: 1, BufferSize: 1})
	defer m.Close()
	check("nothing reserved", m)
	m.Alloc(5)
	check("reserved, nothing backed", m)
	m.Poke(1, 3)
	check("one backed word below a reserved tail", m)
	m.Alloc(3 * pageWords)
	m.Poke(2*pageWords+9, 4)
	check("unbacked gap of a whole page", m)
	m.Poke(pageWords-1, 5)
	m.Poke(pageWords, 6)
	check("written across a page boundary", m)
	m.Poke(m.next+pageWords, 7)
	check("written past the reserved range", m)

	m.Reset()
	check("reset", m)
	m.Alloc(pageWords + 2)
	check("reused, still backed but zero", m)
	m.Poke(pageWords+1, 8)
	m.Poke(3, 9)
	check("reused and rewritten", m)
}

// allocIRIWProgs is IRIW for allocation counting: the factory returns
// prebuilt closures and the outcome is a constant, so every allocation an
// exploration makes is the engine's. Each writer publishes 1 and then 2,
// which gives DPOR about two thousand classes to spread its fixed set-up
// cost over.
func allocIRIWProgs() (func(m *Machine) []func(Context), func(m *Machine) string) {
	const x, y, r = Addr(0), Addr(1), Addr(2)
	writer := func(a Addr) func(Context) {
		return func(c Context) {
			c.Store(a, 1)
			c.Store(a, 2)
		}
	}
	reader := func(first, second, res Addr) func(Context) {
		return func(c Context) { c.Store(res, c.Load(first)+c.Load(second)) }
	}
	progs := []func(Context){writer(x), writer(y), reader(x, y, r), reader(y, x, r+1)}
	mk := func(m *Machine) []func(Context) {
		m.Alloc(4)
		return progs
	}
	return mk, func(*Machine) string { return "" }
}

// TestExploreAllocs bounds what a warmed sequential exploration allocates
// per executed run. Without a memo table (DPOR, unreduced) the tree walk
// allocates nothing per run or node: frames are recycled, sleep sets and
// skip marks live on runner stacks, leaves fold into the unit, and the
// DPOR event table keeps its replayed prefix. What is left is the fixed
// set-up of one exploration. Prune still allocates its memo aggregates.
func TestExploreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	mk, out := allocIRIWProgs()
	cfg := Config{Threads: 4, BufferSize: 1}
	budget := ExploreOptions{MaxRuns: 5000}
	for _, c := range []struct {
		name string
		opts ExhaustiveOptions
		max  float64
	}{
		{"DPOR", ExhaustiveOptions{ExploreOptions: budget, DPOR: true}, 0.5},
		{"unreduced", ExhaustiveOptions{ExploreOptions: budget}, 0.5},
		{"Prune", ExhaustiveOptions{ExploreOptions: budget, Prune: true}, 2.7},
	} {
		var runs int
		allocs := testing.AllocsPerRun(1, func() {
			_, res := ExploreExhaustive(cfg, mk, out, c.opts)
			runs = res.Runs
		})
		perRun := allocs / float64(runs)
		t.Logf("%s: %.0f allocations over %d runs, %.3f per run", c.name, allocs, runs, perRun)
		if perRun > c.max {
			t.Errorf("%s: %.3f allocations per executed run, want at most %.1f", c.name, perRun, c.max)
		}
	}
}
