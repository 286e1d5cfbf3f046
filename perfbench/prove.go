package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/litmusdsl"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// class selects a proof workload and the engine mode the repository's
// own tests use for that class of program.
type class int

const (
	// commuting: threads mostly touch disjoint words; source-set DPOR.
	commuting class = iota
	// convergent: schedules converge to the same states; Prune (+ sleep
	// sets where the repository's proofs add them).
	convergent
)

func (c class) String() string {
	if c == commuting {
		return "prove-commuting"
	}
	return "prove-convergent"
}

// maxRuns bounds every complete proof; none comes near it.
const maxRuns = 1 << 22

// crossCap caps a proof run under the other class's engine, where some
// programs blow up (WS-MULT under DPOR, Chase-Lev under Prune).
const crossCap = 20_000

// referenceRuns is the run budget of each proof on the unreduced
// sequential engine, the baseline cost of an executed run.
const referenceRuns = 1_000

// proof is one exhaustive proof: a program factory pair on a machine
// configuration, or the litmus library's TSO entries run through
// litmusdsl.
type proof struct {
	id  string
	cfg tso.Config
	// callbacks returns the program factory and verdict function for one
	// exploration; nil for the litmus library. An oracle.Scenario.Outcomes
	// pair keeps the last history of every machine it has seen, so each
	// exploration gets a fresh pair, as oracle.Run does.
	callbacks func() (mk func(m *tso.Machine) []func(tso.Context), out func(m *tso.Machine) string)
	oracle    bool // callbacks come from oracle.Scenario.Outcomes
	sleep     bool // add sleep sets to Prune (WS-MULT, as its proofs do)
	twin      bool // the same program is a proof of the other workload
	litmus    []*litmusdsl.Test
}

// oracleProof compiles an oracle program against its algorithm's spec.
func oracleProof(id string, p oracle.Program, sleep bool) proof {
	return proof{id: id, cfg: p.Config(), oracle: true, sleep: sleep,
		callbacks: func() (func(m *tso.Machine) []func(tso.Context), func(m *tso.Machine) string) {
			return p.Scenario().Outcomes(p.Spec())
		}}
}

// iriwProof is the four-thread IRIW litmus written directly against the
// machine: two writers, two readers loading the pair in opposite orders,
// each publishing its observations offset by one.
func iriwProof() proof {
	mk := func(m *tso.Machine) []func(tso.Context) {
		m.Alloc(6)
		reader := func(first, second, res tso.Addr) func(tso.Context) {
			return func(c tso.Context) {
				a := c.Load(first)
				b := c.Load(second)
				c.Store(res, a+1)
				c.Store(res+1, b+1)
				c.Fence()
			}
		}
		return []func(tso.Context){
			func(c tso.Context) { c.Store(0, 1) },
			func(c tso.Context) { c.Store(1, 1) },
			reader(0, 1, 2),
			reader(1, 0, 4),
		}
	}
	out := func(m *tso.Machine) string {
		return fmt.Sprintf("r1=%d%d r2=%d%d", m.Peek(2)-1, m.Peek(3)-1, m.Peek(4)-1, m.Peek(5)-1)
	}
	return proof{id: "iriw", cfg: tso.Config{Threads: 4, BufferSize: 1},
		callbacks: func() (func(m *tso.Machine) []func(tso.Context), func(m *tso.Machine) string) { return mk, out }}
}

// ffclDuel is the FF-CL δ=S duel at S=2: three prefilled tasks, two
// takes against a thief making two steal attempts.
var ffclDuel = oracle.Program{Algo: core.AlgoFFCL, S: 2, Delta: 2, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}}

// proofs lists a class's proof set. The commuting set has an odd
// number of proofs with a middle group of 60-70 ms ones, so the median
// proof latency falls inside one proof's times rather than on a step
// between two.
func proofs(c class) ([]proof, error) {
	if c == convergent {
		duel := oracleProof("ffcl-s2-prune", ffclDuel, false)
		duel.twin = true
		return []proof{
			oracleProof("idemfifo-drain", oracle.Program{Algo: core.AlgoIdempotentFIFO, S: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1, 1}, Drain: true}, false),
			oracleProof("wsmult-s2-stage", oracle.Program{Algo: core.AlgoWSMult, S: 2, Stage: true, Delta: 1, Prefill: 1, WorkerOps: "P", Thieves: []int{1}, Drain: true}, true),
			duel,
		}, nil
	}
	lib := proof{id: "litmus"}
	for _, src := range litmusdsl.Library {
		t, err := litmusdsl.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("litmus library: %w", err)
		}
		if t.Model == tso.ModelTSO {
			lib.litmus = append(lib.litmus, t)
		}
	}
	duel := oracleProof("ffcl-s2-dpor", ffclDuel, false)
	duel.twin = true
	return []proof{
		iriwProof(),
		lib,
		duel,
		oracleProof("ffcl-s2-2thieves", oracle.Program{Algo: core.AlgoFFCL, S: 2, Delta: 2, Prefill: 4, WorkerOps: "TT", Thieves: []int{1, 1}}, false),
		oracleProof("chaselev-s2-ttt", oracle.Program{Algo: core.AlgoChaseLev, S: 2, Prefill: 4, WorkerOps: "TTT", Thieves: []int{1, 1}}, false),
		oracleProof("chaselev-s2", oracle.Program{Algo: core.AlgoChaseLev, S: 2, Prefill: 4, WorkerOps: "TT", Thieves: []int{2, 1}}, false),
		oracleProof("chaselev-s2-t22", oracle.Program{Algo: core.AlgoChaseLev, S: 2, Prefill: 4, WorkerOps: "T", Thieves: []int{2, 2}}, false),
	}, nil
}

// engine returns the exhaustive options of class c (cross: the other
// class's engine) at the given run budget.
func (p proof) engine(c class, runs int) tso.ExhaustiveOptions {
	o := tso.ExhaustiveOptions{ExploreOptions: tso.ExploreOptions{MaxRuns: runs}, Parallel: 1}
	if c == commuting {
		o.DPOR = true
	} else {
		o.Prune, o.SleepSets = true, p.sleep
	}
	return o
}

// proofResult is what one proof produced.
type proofResult struct {
	verdicts  []string // sorted outcome keys (litmus: test:verdict in library order)
	complete  bool
	schedules int
	executed  int
	res       tso.ExploreResult
	ops       int64 // simulated loads, stores, fences and CASes
}

// run explores p under opts. With a tracer, the factory and verdict
// callbacks are timed and summed per proof, and the operations of every
// run that completes are read from Machine.Stats in the verdict callback.
func (p proof) run(opts tso.ExhaustiveOptions, tr *tracer) (proofResult, error) {
	if p.litmus != nil {
		all := proofResult{complete: true}
		for _, r := range p.runLitmus(opts) {
			if r.err != nil {
				return proofResult{}, r.err
			}
			all.verdicts = append(all.verdicts, r.Test.Name+":"+r.Verdict)
			all.complete = all.complete && r.Complete
			all.schedules += r.Schedules
			all.executed += r.Executed
			all.res.Prune.DPORRaces += r.Prune.DPORRaces
			all.res.Prune.DPORBacktracks += r.Prune.DPORBacktracks
			all.res.Prune.DPORSleepSkips += r.Prune.DPORSleepSkips
		}
		all.res.Runs, all.res.Complete = all.executed, all.complete
		return all, nil
	}
	pmk, pout := p.callbacks()
	mk, out := pmk, pout
	// Callback time is summed per proof here and handed to the tracer
	// once, so tracing adds no allocation or lock per executed run.
	var ops int64
	var build, check time.Duration
	var builds, checks int
	if tr != nil {
		mk = func(m *tso.Machine) []func(tso.Context) {
			start := time.Now()
			progs := pmk(m)
			build += time.Since(start)
			builds++
			return progs
		}
		out = func(m *tso.Machine) string {
			st := m.Stats()
			ops += st.Loads + st.Stores + st.Fences + st.CASes
			start := time.Now()
			o := pout(m)
			check += time.Since(start)
			checks++
			return o
		}
	}
	set, res := tso.ExploreExhaustive(p.cfg, mk, out, opts)
	tr.addSum("build", p.id, build, builds)
	tr.addSum("check", p.id, check, checks)
	verdicts := make([]string, 0, len(set.Counts))
	for o := range set.Counts {
		verdicts = append(verdicts, o)
	}
	sort.Strings(verdicts)
	return proofResult{verdicts: verdicts, complete: res.Complete, schedules: set.Total(),
		executed: res.Runs, res: res, ops: ops}, nil
}

// litmusResult is one library entry's result.
type litmusResult struct {
	litmusdsl.Result
	err error
}

// runLitmus runs each library entry under opts.
func (p proof) runLitmus(opts tso.ExhaustiveOptions) []litmusResult {
	out := make([]litmusResult, 0, len(p.litmus))
	for _, t := range p.litmus {
		r, err := litmusdsl.Run(t, litmusdsl.RunOptions{
			MaxSchedules: opts.MaxRuns, Parallel: opts.Parallel,
			Prune: opts.Prune, SleepSets: opts.SleepSets, DPOR: opts.DPOR,
		})
		if err != nil {
			err = fmt.Errorf("%s: %w", t.Name, err)
		}
		out = append(out, litmusResult{r, err})
	}
	return out
}

// prove is the prove-commuting or prove-convergent workload.
type prove struct {
	class  class
	ref    *reference
	proofs []proof
	last   map[string]proofResult // traced pass results by proof id
}

func newProve(c class, ref *reference) *prove { return &prove{class: c, ref: ref} }

// setup builds every proof's programs and warms the engine with a short
// budgeted exploration of each.
func (w *prove) setup() error {
	ps, err := proofs(w.class)
	if err != nil {
		return err
	}
	for _, p := range ps {
		if _, err := p.run(p.engine(w.class, 64), nil); err != nil {
			return fmt.Errorf("%s: %w", p.id, err)
		}
	}
	w.proofs = ps
	return nil
}

func (w *prove) close() {}

// pass runs every proof once, sequentially, and checks verdict,
// completeness and schedule total against the stored reference.
func (w *prove) pass(tr *tracer) (passResult, error) {
	var pr passResult
	w.last = map[string]proofResult{}
	root := tr.begin("pass", w.class.String(), 0)
	start := time.Now()
	for _, p := range w.proofs {
		// The previous proof's garbage is collected here, not inside
		// the next proof's time.
		runtime.GC()
		sp := tr.begin("explore", p.id, root)
		t0 := time.Now()
		r, err := p.run(p.engine(w.class, maxRuns), tr)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", p.id, err)
		}
		w.last[p.id] = r
		pr.units = append(pr.units, unitTime{p.id, ms(d)})
		pr.executed += r.executed
		got := proofRef{Verdicts: r.verdicts, Complete: r.complete, Schedules: r.schedules, Executed: r.executed}
		want, ok := w.ref.proof(p.id, got)
		pr.checks.expect(ok, "%s: got %+v, reference %+v", p.id, got, want)
	}
	pr.wall = time.Since(start)
	tr.end(root)
	return pr, nil
}

// layers reports the exploration engine's per-proof and per-class
// metrics from the traced pass, then runs the cross-engine, unreduced
// reference, Reset+Run and litmus-spread probes.
func (w *prove) layers(tr *tracer, m map[string]metric) (checks, error) {
	var c checks
	wl := w.class.String()
	other := convergent
	if w.class == convergent {
		other = commuting
	}
	var executed, schedules, ops int64
	var prune tso.PruneStats
	var memoEvicted int64
	var exploreNS, buildNS, checkNS time.Duration
	var oracleRuns, oracleChecks, callbacks int
	for _, p := range w.proofs {
		r := w.last[p.id]
		d := tr.total("explore", p.id)
		m["tso.explore.us_per_run."+p.id] = metric{us(d) / float64(r.executed), "us"}
		m["tso.explore.executed."+p.id] = metric{float64(r.executed), "count"}
		exploreNS += d
		executed += int64(r.executed)
		schedules += int64(r.schedules)
		ops += r.ops
		prune.StatesSeen += r.res.Prune.StatesSeen
		prune.StatesDeduped += r.res.Prune.StatesDeduped
		prune.SleepSkips += r.res.Prune.SleepSkips
		prune.DPORRaces += r.res.Prune.DPORRaces
		prune.DPORBacktracks += r.res.Prune.DPORBacktracks
		prune.DPORSleepSkips += r.res.Prune.DPORSleepSkips
		memoEvicted += r.res.Memo.Evicted
		k, n := tr.sum("check", p.id)
		callbacks += n
		if p.oracle {
			b, _ := tr.sum("build", p.id)
			buildNS += b
			checkNS += k
			oracleRuns += r.executed
			oracleChecks += n
		}
		if p.twin {
			continue // its cross run is the other workload's proof
		}
		x, err := p.run(p.engine(other, crossCap), nil)
		if err != nil {
			return c, fmt.Errorf("%s cross: %w", p.id, err)
		}
		m["tso.explore.cross."+p.id+".executed"] = metric{float64(x.executed), "count"}
		// Reductions must agree on the verdicts wherever both complete.
		if x.complete {
			c.expect(strings.Join(x.verdicts, ";") == strings.Join(r.verdicts, ";"),
				"%s: verdicts differ across engines: %v vs %v", p.id, x.verdicts, r.verdicts)
		}
	}
	m["tso.explore.schedules_per_run."+wl] = metric{float64(schedules) / float64(executed), "ratio"}
	// Runs the memo cuts short never reach the verdict callback, so the
	// operation count is per completed run of every machine program.
	m["tso.ops_per_run."+wl] = metric{float64(ops) / float64(callbacks), "count"}
	m["oracle.build_us_per_run."+wl] = metric{us(buildNS) / float64(oracleRuns), "us"}
	m["oracle.check_us_per_run."+wl] = metric{us(checkNS) / float64(oracleChecks), "us"}
	if w.class == convergent {
		m["tso.explore.prune_hit_rate"] = metric{float64(prune.StatesDeduped) / float64(prune.StatesSeen), "ratio"}
		m["tso.explore.sleep_skips_per_run"] = metric{float64(prune.SleepSkips) / float64(executed), "count"}
		m["tso.explore.memo_evicted"] = metric{float64(memoEvicted), "count"}
	} else {
		m["tso.explore.dpor_races_per_run"] = metric{float64(prune.DPORRaces) / float64(executed), "count"}
		m["tso.explore.dpor_backtracks_per_run"] = metric{float64(prune.DPORBacktracks) / float64(executed), "count"}
		m["tso.explore.dpor_sleep_skips_per_run"] = metric{float64(prune.DPORSleepSkips) / float64(executed), "count"}
	}

	// The unreduced sequential engine under a fixed budget: the cost of
	// an executed run without hashing, memo or DPOR clocks.
	var refNS time.Duration
	var refRuns int
	for _, p := range w.proofs {
		opts := tso.ExhaustiveOptions{ExploreOptions: tso.ExploreOptions{MaxRuns: referenceRuns}, Parallel: 1}
		t0 := time.Now()
		r, err := p.run(opts, nil)
		refNS += time.Since(t0)
		if err != nil {
			return c, fmt.Errorf("%s reference engine: %w", p.id, err)
		}
		refRuns += r.executed
	}
	refUS := us(refNS) / float64(refRuns)
	m["tso.explore.reference_us_per_run."+wl] = metric{refUS, "us"}
	m["tso.explore.bookkeeping_us_per_run."+wl] = metric{us(exploreNS)/float64(executed) - refUS, "us"}

	for _, p := range w.proofs {
		if p.litmus != nil {
			spread, err := litmusPruneSpread(p)
			if err != nil {
				return c, err
			}
			m["litmusdsl.prune_executed_spread"] = metric{float64(spread), "count"}
		}
	}
	return c, nil
}

// resetRunUS times Machine.Reset plus one chaos-scheduled Run of each
// machine-level proof program of both proof workloads on a reused
// machine.
func resetRunUS() (float64, error) {
	const iters = 300
	var total time.Duration
	var n int
	var ps []proof
	for _, c := range []class{commuting, convergent} {
		more, err := proofs(c)
		if err != nil {
			return 0, err
		}
		ps = append(ps, more...)
	}
	for _, p := range ps {
		if p.callbacks == nil {
			continue
		}
		mk, _ := p.callbacks()
		cfg := p.cfg
		cfg.Seed = 1
		mach := tso.NewMachine(cfg)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			mach.Reset()
			_ = mach.Run(mk(mach)...) // a program error is a verdict here, not a probe failure
		}
		total += time.Since(t0)
		n += iters
		mach.Close()
	}
	return us(total) / float64(n), nil
}

// litmusPruneSpread runs the library entries twice under sequential
// Prune and sums, over the entries, the difference between the larger
// and the smaller executed count. Schedule totals are fixed; executed
// counts should be too, and are not while litmusdsl publishes registers
// in map order.
func litmusPruneSpread(p proof) (int, error) {
	opts := p.engine(convergent, maxRuns)
	a, b := p.runLitmus(opts), p.runLitmus(opts)
	spread := 0
	for i := range a {
		if a[i].err != nil || b[i].err != nil {
			return 0, errors.Join(a[i].err, b[i].err)
		}
		d := a[i].Executed - b[i].Executed
		if d < 0 {
			d = -d
		}
		spread += d
	}
	return spread, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
