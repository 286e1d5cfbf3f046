package tso

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// triProgs is SB plus a third thread whose lone store commutes with
// everything — the structure DPOR exists to collapse — while staying
// small enough to enumerate unreduced as a reference.
func triProgs() (func(m *Machine) []func(Context), func(m *Machine) string) {
	mk := func(m *Machine) []func(Context) {
		x, y, z := m.Alloc(1), m.Alloc(1), m.Alloc(1)
		ra, rb := m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) { c.Store(x, 1); c.Store(ra, c.Load(y)+100) },
			func(c Context) { c.Store(y, 1); c.Store(rb, c.Load(x)+100) },
			func(c Context) { c.Store(z, 1) },
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("a=%d b=%d z=%d",
			int64(m.Peek(3))-100, int64(m.Peek(4))-100, m.Peek(2))
	}
	return mk, out
}

// casDuelProgs contends two threads on a CAS-guarded counter — exercises
// the CAS footprint (atomic read+write plus full-buffer flush).
func casDuelProgs() (func(m *Machine) []func(Context), func(m *Machine) string) {
	mk := func(m *Machine) []func(Context) {
		lock, n := m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				if _, ok := c.CAS(lock, 0, 1); ok {
					c.Store(n, c.Load(n)+1)
					c.Fence()
					c.Store(lock, 0)
				}
			},
			func(c Context) {
				if _, ok := c.CAS(lock, 0, 2); ok {
					c.Store(n, c.Load(n)+10)
					c.Fence()
					c.Store(lock, 0)
				}
			},
		}
	}
	out := func(m *Machine) string { return fmt.Sprintf("n=%d", m.Peek(1)) }
	return mk, out
}

// TestDPORPreservesOutcomeSets is the preservation bar for source-set
// DPOR: on every litmus the reachable outcome set, completeness, and
// per-thread occupancy high-water marks must match unreduced exploration
// exactly, while the executed run count must strictly shrink whenever the
// program has commuting structure.
func TestDPORPreservesOutcomeSets(t *testing.T) {
	sbMk, sbOut := sbProgsShared(false)
	sbfMk, sbfOut := sbProgsShared(true)
	mpMk, mpOut := mpProgsShared()
	triMk, triOut := triProgs()
	casMk, casOut := casDuelProgs()
	cases := []struct {
		name string
		cfg  Config
		mk   func(m *Machine) []func(Context)
		out  func(m *Machine) string
	}{
		{"SB/S=1", Config{Threads: 2, BufferSize: 1}, sbMk, sbOut},
		{"SB/S=2", Config{Threads: 2, BufferSize: 2}, sbMk, sbOut},
		{"SB+fence/S=2", Config{Threads: 2, BufferSize: 2}, sbfMk, sbfOut},
		{"MP/S=2", Config{Threads: 2, BufferSize: 2}, mpMk, mpOut},
		{"MP/S=2+stage", Config{Threads: 2, BufferSize: 2, DrainBuffer: true}, mpMk, mpOut},
		{"tri/S=1", Config{Threads: 3, BufferSize: 1}, triMk, triOut},
		{"cas/S=2", Config{Threads: 2, BufferSize: 2}, casMk, casOut},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantRes := ExploreExhaustive(tc.cfg, tc.mk, tc.out, ExhaustiveOptions{})
			if !wantRes.Complete {
				t.Fatalf("reference exploration incomplete")
			}
			for _, par := range []int{0, 4} {
				set, res := ExploreExhaustive(tc.cfg, tc.mk, tc.out, ExhaustiveOptions{DPOR: true, Parallel: par})
				if !res.Complete {
					t.Fatalf("par=%d: DPOR incomplete after %d runs", par, res.Runs)
				}
				for o := range want.Counts {
					if !set.Has(o) {
						t.Errorf("par=%d: outcome %q lost under DPOR (got %v)", par, o, set.Counts)
					}
				}
				for o := range set.Counts {
					if !want.Has(o) {
						t.Errorf("par=%d: outcome %q invented under DPOR", par, o)
					}
				}
				if !reflect.DeepEqual(set.MaxOccupancy, want.MaxOccupancy) {
					t.Errorf("par=%d: MaxOccupancy %v, want %v", par, set.MaxOccupancy, want.MaxOccupancy)
				}
				if res.Runs >= wantRes.Runs {
					t.Errorf("par=%d: DPOR executed %d runs, unreduced needed %d — no reduction",
						par, res.Runs, wantRes.Runs)
				}
				if par == 0 {
					t.Logf("%s: %d runs (unreduced %d), races=%d backtracks=%d sleepSkips=%d",
						tc.name, res.Runs, wantRes.Runs,
						res.Prune.DPORRaces, res.Prune.DPORBacktracks, res.Prune.DPORSleepSkips)
				}
			}
		})
	}
}

// TestDPORBeatsSleepSets: on SB the dependence-derived reduction must
// execute no more runs than the legacy sleep-set engine, and its prune
// statistics must show actual race-driven work.
func TestDPORBeatsSleepSets(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	_, legacy := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{Prune: true, SleepSets: true})
	_, dpor := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{DPOR: true})
	if dpor.Runs > legacy.Runs {
		t.Fatalf("DPOR executed %d runs, sleep sets needed %d", dpor.Runs, legacy.Runs)
	}
	if dpor.Prune.DPORRaces == 0 || dpor.Prune.DPORBacktracks == 0 {
		t.Fatalf("SB has racing stores but no DPOR race work recorded: %+v", dpor.Prune)
	}
	t.Logf("SB S=2: sleep-set runs %d, DPOR runs %d", legacy.Runs, dpor.Runs)
}

// spinDuelProgs is a victim thread spinning until it sees a signaller's
// store: its runs are unbounded, so a step limit truncates them.
func spinDuelProgs() (func(m *Machine) []func(Context), func(m *Machine) string) {
	mk := func(m *Machine) []func(Context) {
		x, res := m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) {
				for c.Load(x) == 0 {
					c.Work(1)
				}
				c.Store(res, 1)
				c.Fence()
			},
			func(c Context) { c.Store(x, 1) },
		}
	}
	out := func(m *Machine) string { return fmt.Sprintf("res=%d", m.Peek(1)) }
	return mk, out
}

// chaseLevProgs is the fenced Chase-Lev deque (core/chaselev.go),
// prefilled with tasks 1..prefill: the owner takes `takes` times and
// thief i makes up to thieves[i] steal attempts, stopping at the first
// empty one — the oracle's Program shape without its host-side history.
// The outcome is the final head and tail index.
func chaseLevProgs(prefill, takes int, thieves []int) (func(m *Machine) []func(Context), func(m *Machine) string) {
	const h, t, tasks = Addr(0), Addr(1), Addr(2)
	mk := func(m *Machine) []func(Context) {
		m.Alloc(2 + prefill)
		for i := 0; i < prefill; i++ {
			m.Poke(tasks+Addr(i), uint64(i+1))
		}
		m.Poke(t, uint64(prefill))
		progs := []func(Context){func(c Context) {
			for k := 0; k < takes; k++ {
				tt := int64(c.Load(t)) - 1
				c.Store(t, uint64(tt))
				c.Fence()
				hh := int64(c.Load(h))
				switch {
				case tt > hh:
					c.Load(tasks + Addr(tt))
				case tt < hh:
					c.Store(t, uint64(hh))
				default:
					c.Store(t, uint64(hh+1))
					if _, ok := c.CAS(h, uint64(hh), uint64(hh+1)); ok {
						c.Load(tasks + Addr(tt))
					}
				}
			}
		}}
		for _, n := range thieves {
			progs = append(progs, func(c Context) {
				for k := 0; k < n; k++ {
					for {
						hh, tt := c.Load(h), c.Load(t)
						if int64(hh) >= int64(tt) {
							return
						}
						c.Load(tasks + Addr(hh))
						if _, ok := c.CAS(h, hh, hh+1); ok {
							break
						}
					}
				}
			})
		}
		return progs
	}
	out := func(m *Machine) string { return fmt.Sprintf("h=%d t=%d", m.Peek(h), m.Peek(t)) }
	return mk, out
}

// TestDPORKeptEventTable checks the event table a runner keeps from run
// to run: after every run, dporCheck compares it with the table rebuilt
// from scratch for the same path (event procs, clocks and footprints,
// each slot's latest writer and readers since, each proc's latest event)
// and panics on the first difference. The cases cover a sequential
// unit, runners moving between units, units resumed mid-flight, and
// step-limited runs that taint frames. The check must not change what
// the exploration does.
func TestDPORKeptEventTable(t *testing.T) {
	iriwMk, iriwOut := iriwProgs()
	clMk, clOut := chaseLevProgs(4, 2, []int{2, 1})
	spinMk, spinOut := spinDuelProgs()
	explore := func(t *testing.T, cfg Config, mk func(m *Machine) []func(Context), out func(m *Machine) string, opts ExhaustiveOptions) (OutcomeSet, ExploreResult) {
		t.Helper()
		checked := opts
		checked.DPOR, checked.dporCheck = true, true
		set, res := func() (set OutcomeSet, res ExploreResult) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatal(p)
				}
			}()
			return ExploreExhaustive(cfg, mk, out, checked)
		}()
		opts.DPOR = true
		wantSet, want := ExploreExhaustive(cfg, mk, out, opts)
		if res.Runs != want.Runs || res.Prune != want.Prune || !reflect.DeepEqual(set, wantSet) {
			t.Fatalf("checked exploration ran %d runs %+v, unchecked %d %+v", res.Runs, res.Prune, want.Runs, want.Prune)
		}
		return set, res
	}
	iriwCfg := Config{Threads: 4, BufferSize: 1}
	clCfg := Config{Threads: 3, BufferSize: 2}

	t.Run("sequential/IRIW", func(t *testing.T) {
		if _, res := explore(t, iriwCfg, iriwMk, iriwOut, ExhaustiveOptions{}); !res.Complete {
			t.Fatalf("incomplete after %d runs", res.Runs)
		}
	})
	t.Run("sequential/ChaseLev", func(t *testing.T) {
		_, res := explore(t, clCfg, clMk, clOut, ExhaustiveOptions{})
		if !res.Complete || res.Prune.DPORRaces == 0 {
			t.Fatalf("complete=%v after %d runs with %d races", res.Complete, res.Runs, res.Prune.DPORRaces)
		}
		t.Logf("Chase-Lev S=2 TT against [2 1]: %d runs", res.Runs)
	})
	t.Run("parallel-units", func(t *testing.T) {
		// Eight units over four runners: some runner explores two.
		if _, res := explore(t, clCfg, clMk, clOut, ExhaustiveOptions{Parallel: 4, Units: 8}); !res.Complete {
			t.Fatalf("incomplete after %d runs", res.Runs)
		}
	})
	t.Run("resumed-legs", func(t *testing.T) {
		sbMk, sbOut := sbProgsShared(false)
		cfg := Config{Threads: 2, BufferSize: 2}
		for _, leg := range []int{1, 7, 64} {
			var cp *Checkpoint
			for n := 0; ; n++ {
				if n > 1<<14 {
					t.Fatalf("legs of %d never completed", leg)
				}
				_, res := explore(t, cfg, sbMk, sbOut, ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxRuns: leg}, Resume: cp})
				if res.Complete {
					break
				}
				cp = res.Checkpoint
			}
		}
	})
	t.Run("step-limited", func(t *testing.T) {
		opts := ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxStepsPerRun: 12}}
		if _, res := explore(t, Config{Threads: 2, BufferSize: 1}, spinMk, spinOut, opts); res.StepLimited == 0 {
			t.Fatalf("no run hit the step limit")
		}
	})
}

// TestDPORStepLimitComposes: DPOR under MaxStepsPerRun keeps the
// "<step-limit>" bucketing sound. Equivalent *complete* runs have equal
// length, so the limit is class-closed for them; runs that hit the limit
// taint every frame they cross into exploring all branches (mcFrame.all),
// so no reversal is lost to a race hidden past the horizon. The surviving
// outcome set must match the unreduced step-limited exploration.
func TestDPORStepLimitComposes(t *testing.T) {
	mk, out := triProgs()
	cfg := Config{Threads: 3, BufferSize: 1}
	const lim = 8
	want, wantRes := ExploreExhaustive(cfg, mk, out,
		ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxStepsPerRun: lim}})
	set, res := ExploreExhaustive(cfg, mk, out,
		ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxStepsPerRun: lim}, DPOR: true})
	if !res.Complete || !wantRes.Complete {
		t.Fatalf("step-limited explorations incomplete: dpor=%v ref=%v", res.Complete, wantRes.Complete)
	}
	if wantRes.StepLimited == 0 {
		t.Fatalf("limit %d truncated nothing; test needs a binding limit", int64(lim))
	}
	for o := range want.Counts {
		if !set.Has(o) {
			t.Errorf("outcome %q lost under DPOR+step-limit", o)
		}
	}
	for o := range set.Counts {
		if !want.Has(o) {
			t.Errorf("outcome %q invented under DPOR+step-limit", o)
		}
	}
	if res.StepLimited == 0 {
		t.Errorf("DPOR exploration reports no step-limited runs; reference had %d", wantRes.StepLimited)
	}
}

// TestDPORStepLimitTruncationTaint pins the soundness fix for DPOR under
// a *binding* step limit. The victim thread spins forever unless it
// observes the signal store, so the DPOR representative run truncates
// inside the spin without ever executing the signaller — the race that
// would add the reversal to a backtrack set lies past the horizon.
// Without the truncation taint (mcFrame.all) the signalled outcome is
// silently lost; with it, the step-limited DPOR support matches the
// unreduced step-limited support.
func TestDPORStepLimitTruncationTaint(t *testing.T) {
	mk, out := spinDuelProgs()
	cfg := Config{Threads: 2, BufferSize: 1}
	const lim = 12
	want, wantRes := ExploreExhaustive(cfg, mk, out,
		ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxStepsPerRun: lim}})
	got, res := ExploreExhaustive(cfg, mk, out,
		ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxStepsPerRun: lim}, DPOR: true})
	if !wantRes.Complete || !res.Complete {
		t.Fatalf("explorations incomplete: ref=%v dpor=%v", wantRes.Complete, res.Complete)
	}
	if !want.Has("res=1") {
		t.Fatalf("reference lost the signalled outcome; raise lim (outcomes %v)", want.Counts)
	}
	if res.StepLimited == 0 {
		t.Fatalf("limit %d truncated no DPOR run; the spin must out-run the limit", int64(lim))
	}
	for o := range want.Counts {
		if !got.Has(o) {
			t.Errorf("outcome %q lost under DPOR+step-limit", o)
		}
	}
	for o := range got.Counts {
		if !want.Has(o) {
			t.Errorf("outcome %q invented under DPOR+step-limit", o)
		}
	}
}

// TestDPORResumeRoundTrip drives a DPOR exploration through repeated
// budget exhaustion with binary-codec round-trips between legs, and
// checks the union of legs reaches the unreduced outcome set. Resumed
// frames re-enable every unexplored branch (the done masks carry which
// are finished), so the leg union may execute more runs than one-shot
// DPOR — but never more than the unreduced total, and the support is
// exact.
func TestDPORResumeRoundTrip(t *testing.T) {
	mk, out := triProgs()
	cfg := Config{Threads: 3, BufferSize: 1}
	want, wantRes := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{})

	union := map[string]bool{}
	var cp *Checkpoint
	totalRuns := 0
	complete := false
	// Resume re-enables every unexplored branch of the live frames, so
	// small legs shed reduction; the cap is sized for that degeneration
	// (the leg union can approach the unreduced total, never exceed it).
	for leg := 0; leg < 2000 && !complete; leg++ {
		opts := ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxRuns: 60}, DPOR: true, Resume: cp}
		set, res := ExploreExhaustive(cfg, mk, out, opts)
		for o := range set.Counts {
			union[o] = true
		}
		totalRuns = res.Runs
		if res.Complete {
			complete = true
			break
		}
		if res.Checkpoint == nil {
			t.Fatalf("leg %d: incomplete but no checkpoint", leg)
		}
		var buf bytes.Buffer
		if err := (BinaryCodec{}).EncodeCheckpoint(&buf, res.Checkpoint); err != nil {
			t.Fatalf("leg %d: encode: %v", leg, err)
		}
		rt, err := (BinaryCodec{}).DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("leg %d: decode: %v", leg, err)
		}
		if !rt.DPOR {
			t.Fatalf("leg %d: DPOR flag lost in round-trip", leg)
		}
		cp = rt
	}
	if !complete {
		t.Fatalf("resume legs never completed (last leg at %d runs)", totalRuns)
	}
	for o := range want.Counts {
		if !union[o] {
			t.Errorf("outcome %q lost across DPOR resume legs", o)
		}
	}
	for o := range union {
		if !want.Has(o) {
			t.Errorf("outcome %q invented across DPOR resume legs", o)
		}
	}
	if totalRuns > wantRes.Runs {
		t.Errorf("resumed DPOR executed %d runs, unreduced one-shot needed %d", totalRuns, wantRes.Runs)
	}
	t.Logf("tri: resumed DPOR executed %d runs, unreduced %d", totalRuns, wantRes.Runs)
}

// TestDPORRejectsUnsupported pins the DPOR refusals Validate returns:
// PSO (drains of one buffer are not serialized, breaking the proc
// abstraction), a reorder bound (not closed under commuting swaps), and
// thread counts past the done-mask width — and that every entry point
// consults it.
func TestDPORRejectsUnsupported(t *testing.T) {
	tso2 := Config{Threads: 2, BufferSize: 2}
	pso2 := Config{Threads: 2, BufferSize: 2, Model: ModelPSO}
	for _, c := range []struct {
		name string
		cfg  Config
		opts ExhaustiveOptions
		want error
	}{
		{"ok", tso2, ExhaustiveOptions{DPOR: true}, nil},
		{"no-dpor", pso2, ExhaustiveOptions{MaxReorderings: 2}, nil},
		{"pso", pso2, ExhaustiveOptions{DPOR: true}, ErrDPORModel},
		{"reorder", tso2, ExhaustiveOptions{DPOR: true, MaxReorderings: 2}, ErrDPORReorder},
		{"threads", Config{Threads: 32, BufferSize: 1}, ExhaustiveOptions{DPOR: true}, ErrDPORThreads},
	} {
		if err := c.opts.Validate(c.cfg); !errors.Is(err, c.want) || (c.want == nil && err != nil) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
	}

	mk, out := sbProgsShared(false)
	expectPanic := func(name string, cfg Config, opts ExhaustiveOptions) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: ExploreExhaustive did not panic", name)
			}
		}()
		ExploreExhaustive(cfg, mk, out, opts)
	}
	expectPanic("pso", pso2, ExhaustiveOptions{DPOR: true})
	expectPanic("reorder", tso2, ExhaustiveOptions{DPOR: true, MaxReorderings: 2})
	if _, err := ShardFrontier(pso2, mk, ExhaustiveOptions{DPOR: true, Units: 4}); !errors.Is(err, ErrDPORModel) {
		t.Errorf("ShardFrontier under PSO: err = %v, want ErrDPORModel", err)
	}
}

// TestDPORShardFold: cutting a DPOR frontier into shards, exploring each
// independently, and folding must reproduce the undivided DPOR
// exploration's outcome support, and the folded checkpoint must carry the
// DPOR stamp so later resumes are validated against it.
func TestDPORShardFold(t *testing.T) {
	mk, out := triProgs()
	cfg := Config{Threads: 3, BufferSize: 1}
	opts := ExhaustiveOptions{DPOR: true}
	want, _ := ExploreExhaustive(cfg, mk, out, opts)

	cp, shardErr := ShardFrontier(cfg, mk, opts.withDefaults())
	if shardErr != nil {
		t.Fatalf("ShardFrontier: %v", shardErr)
	}
	if !cp.DPOR {
		t.Fatalf("frontier checkpoint not stamped DPOR")
	}
	base, shards := cp.Shards()
	fold := NewFold(cfg.Threads)
	fold.AddBase(base)
	for i, sh := range shards {
		o := opts
		o.Resume = sh
		set, res := ExploreExhaustive(cfg, mk, out, o)
		if !res.Complete {
			t.Fatalf("shard %d incomplete", i)
		}
		fold.Add(set, res)
	}
	set, res := fold.Result(true)
	if !res.Complete {
		t.Fatalf("fold incomplete")
	}
	for o := range want.Counts {
		if !set.Has(o) {
			t.Errorf("outcome %q lost across DPOR shards", o)
		}
	}
	for o := range set.Counts {
		if !want.Has(o) {
			t.Errorf("outcome %q invented across DPOR shards", o)
		}
	}
	folded, err := fold.Checkpoint(cfg, nil)
	if err != nil {
		t.Fatalf("fold checkpoint: %v", err)
	}
	if !folded.DPOR {
		t.Fatalf("folded checkpoint lost the DPOR stamp")
	}
}

// TestResumeMutationMatrix is the satellite mutation matrix: starting from
// one valid binary-encoded DPOR-off frontier, each single-axis mutation —
// DPOR mode, codec format version, reorder bound, phase label — must be
// refused with that axis's distinct sentinel, distinguishable by
// errors.Is.
func TestResumeMutationMatrix(t *testing.T) {
	mk, _ := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	baseOpts := ExhaustiveOptions{Label: "phase-a", Units: 4}
	cp, err := ShardFrontier(cfg, mk, baseOpts)
	if err != nil {
		t.Fatalf("ShardFrontier: %v", err)
	}
	var spool bytes.Buffer
	if err := (BinaryCodec{}).EncodeCheckpoint(&spool, cp); err != nil {
		t.Fatalf("encode: %v", err)
	}
	wire := spool.Bytes()

	decode := func(t *testing.T, raw []byte) (*Checkpoint, error) {
		t.Helper()
		return (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(raw))
	}

	cases := []struct {
		name     string
		mutate   func(opts *ExhaustiveOptions, raw []byte) []byte
		sentinel error
	}{
		{
			name: "dpor-mode",
			mutate: func(o *ExhaustiveOptions, raw []byte) []byte {
				o.DPOR = true
				return raw
			},
			sentinel: ErrResumeDPOR,
		},
		{
			name: "codec-version",
			mutate: func(o *ExhaustiveOptions, raw []byte) []byte {
				bad := append([]byte(nil), raw...)
				bad[4] = 0x7f // future format version
				return bad
			},
			sentinel: ErrCodecVersion,
		},
		{
			name: "reorder-bound",
			mutate: func(o *ExhaustiveOptions, raw []byte) []byte {
				o.MaxReorderings = 3
				return raw
			},
			sentinel: ErrResumeReorder,
		},
		{
			name: "phase-label",
			mutate: func(o *ExhaustiveOptions, raw []byte) []byte {
				o.Label = "phase-b"
				return raw
			},
			sentinel: ErrResumeLabel,
		},
	}
	sentinels := []error{ErrResumeDPOR, ErrCodecVersion, ErrResumeReorder, ErrResumeLabel}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := baseOpts
			raw := tc.mutate(&opts, wire)
			got, err := decode(t, raw)
			if err == nil {
				err = got.CompatibleWithOptions(cfg, opts)
			}
			if err == nil {
				t.Fatalf("mutated resume accepted")
			}
			for _, s := range sentinels {
				if errors.Is(err, s) != (s == tc.sentinel) {
					t.Errorf("error %v: errors.Is(%v) = %v, want sentinel %v only",
						err, s, errors.Is(err, s), tc.sentinel)
				}
			}
		})
	}

	// The unmutated control must decode and validate cleanly.
	got, err := decode(t, wire)
	if err != nil {
		t.Fatalf("control decode: %v", err)
	}
	if err := got.CompatibleWithOptions(cfg, baseOpts); err != nil {
		t.Fatalf("control resume refused: %v", err)
	}
}

// TestBinaryCodecRefusesOldVersions: wire v4 is the only checkpoint
// format. Streams in the v1 layout (no DPOR fields) and the v2 layout
// (DPOR fields, done masks) both carried a per-checkpoint version varint
// after the header; the v3 layout dropped it but wrote outcome rows
// without witnesses. Each must be refused by its header byte with
// ErrCodecVersion rather than misparsed, and so must a current stream
// relabeled with any old byte.
func TestBinaryCodecRefusesOldVersions(t *testing.T) {
	mk, out := sbProgsShared(false)
	cfg := Config{Threads: 2, BufferSize: 2}
	// A budgeted exploration, so the outcome table has rows to write.
	_, res := ExploreExhaustive(cfg, mk, out, ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxRuns: 5}, Units: 4})
	cp := res.Checkpoint
	if cp == nil || len(cp.Counts) == 0 {
		t.Fatalf("budgeted exploration left no progress to encode: %+v", cp)
	}
	var cur bytes.Buffer
	if err := (BinaryCodec{}).EncodeCheckpoint(&cur, cp); err != nil {
		t.Fatalf("encode: %v", err)
	}
	// legacy hand-encodes cp in the layout wire version ver used.
	legacy := func(ver byte) []byte {
		var out bytes.Buffer
		out.Write([]byte{'T', 'S', 'O', 'F', ver})
		bw := &binWriter{w: bufio.NewWriter(&out)}
		if ver < 3 {
			bw.vint(1) // the retired Checkpoint.Version field
		}
		bw.vint(int64(cp.Threads))
		bw.vint(int64(cp.BufferSize))
		bw.str(cp.Model)
		bw.bool(cp.DrainBuffer)
		bw.str(cp.Label)
		bw.vint(int64(cp.Reorder))
		if ver >= 2 {
			bw.bool(cp.DPOR)
		}
		bw.vint(int64(cp.Runs))
		bw.vint(int64(cp.StepLimited))
		bw.vint(int64(cp.Tree.MaxDepth))
		bw.vint(int64(cp.Tree.MaxFanout))
		bw.vint(cp.Tree.ChoicePoints)
		bw.vint(cp.Prune.StatesSeen)
		bw.vint(cp.Prune.StatesDeduped)
		bw.vint(cp.Prune.SubtreesCut)
		bw.vint(cp.Prune.SchedulesSaved)
		bw.vint(cp.Prune.SleepSkips)
		bw.vint(cp.Prune.ReorderSkips)
		if ver >= 2 {
			bw.vint(cp.Prune.DPORRaces)
			bw.vint(cp.Prune.DPORBacktracks)
			bw.vint(cp.Prune.DPORSleepSkips)
		}
		bw.uvint(uint64(len(cp.Counts)))
		for k, n := range cp.Counts {
			bw.str(k)
			bw.vint(int64(n)) // no witness: rows gained one in v4
		}
		bw.ints(cp.MaxOccupancy)
		bw.uvint(uint64(len(cp.Units)))
		for _, u := range cp.Units {
			bw.ints(u.Root)
			bw.ints(u.RootFanout)
			bw.ints(u.Prefix)
			bw.ints(u.Fanout)
			if ver >= 2 {
				bw.uints64(u.Done)
			}
		}
		if bw.err == nil {
			bw.err = bw.w.Flush()
		}
		if bw.err != nil {
			t.Fatalf("hand-encode v%d: %v", ver, bw.err)
		}
		return out.Bytes()
	}
	relabel := func(ver byte) []byte {
		raw := append([]byte(nil), cur.Bytes()...)
		raw[4] = ver
		return raw
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"v1-layout", legacy(1)},
		{"v2-layout", legacy(2)},
		{"v3-layout", legacy(3)},
		{"v4-relabeled-1", relabel(1)},
		{"v4-relabeled-2", relabel(2)},
		{"v4-relabeled-3", relabel(3)},
	} {
		got, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(tc.raw))
		if !errors.Is(err, ErrCodecVersion) || got != nil {
			t.Errorf("%s: got cp=%v err=%v, want ErrCodecVersion", tc.name, got, err)
		}
	}
	if _, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(cur.Bytes())); err != nil {
		t.Fatalf("current stream refused: %v", err)
	}
}
