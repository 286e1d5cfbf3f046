package litmusdsl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tso"
)

// Result is the outcome of running a litmus test.
type Result struct {
	Test *Test
	// Witnessed reports whether the exists condition was reached.
	Witnessed bool
	// Complete reports whether exploration covered every schedule; only
	// then is a non-witnessed condition *proved* unreachable.
	Complete bool
	// Schedules is the number of schedules accounted for. Executed is the
	// number actually run on a machine — smaller under pruning, which is
	// the point.
	Schedules int
	Executed  int
	// Outcomes tallies distinct final states (registers + condition
	// variables), rendered canonically.
	Outcomes map[string]int
	// Verdict is "allowed" if witnessed, "forbidden" if proved
	// unreachable, "unobserved" if not witnessed but exploration was
	// capped before completing.
	Verdict string
	// Witness is the event trace of the smallest executed schedule
	// reaching the condition (RunOptions.Witness).
	Witness []string
	// WitnessChoices is that schedule's decision prefix, replayable with
	// tso.ReplaySchedule (RunOptions.Witness).
	WitnessChoices []int
	// MaxOccupancy is each process's high-water mark of buffered stores
	// across every explored schedule — how much of the TSO[S] bound the
	// test actually exercised.
	MaxOccupancy []int
	// Tree is the shape of the explored decision tree; Prune reports the
	// state-space reduction (zero without RunOptions.Prune).
	Tree  tso.TreeStats
	Prune tso.PruneStats
	// Checkpoint is the unexplored frontier when the exploration stopped
	// before completing (MaxSchedules or Interrupt), labelled with the
	// test's name; pass it back as RunOptions.Resume to continue. Nil
	// when Complete.
	Checkpoint *tso.Checkpoint
}

// Ok reports whether the verdict matches the test's expectation.
func (r Result) Ok() bool {
	if r.Test.Expect == "allowed" {
		return r.Verdict == "allowed"
	}
	return r.Verdict == "forbidden"
}

// RunOptions bounds the exploration.
type RunOptions struct {
	// MaxSchedules caps the exploration (default 2_000_000).
	MaxSchedules int
	// Witness, when the condition is reachable, replays the smallest
	// witnessing schedule the exploration executed (within MaxReorderings)
	// and records its event trace in Result.Witness.
	Witness bool
	// Parallel is the number of exploration workers (<= 1: sequential).
	Parallel int
	// Prune enables canonical-state memoization; outcome counts are
	// unchanged while far fewer schedules execute (tso.ExhaustiveOptions).
	Prune bool
	// SleepSets additionally prunes commuting drain orders; outcome
	// *counts* are then representative rather than exact, but the verdict,
	// Complete, and MaxOccupancy are preserved.
	SleepSets bool
	// MaxReorderings, when >= 1, restricts exploration to schedules with
	// at most that many store->load reorderings
	// (tso.ExhaustiveOptions.MaxReorderings). Zero or negative explores
	// the full schedule space. A "forbidden" verdict under a bound k
	// proves unreachability over the k-bounded schedule space only;
	// Result does not record the bound, so callers reporting a bounded
	// verdict must.
	MaxReorderings int
	// DPOR enables source-set dynamic partial-order reduction
	// (tso.ExhaustiveOptions.DPOR): one executed schedule per
	// Mazurkiewicz equivalence class. The outcome *set*, the verdict,
	// Complete, and MaxOccupancy are preserved exactly; per-outcome
	// counts collapse to one per class. Requires the TSO model and no
	// MaxReorderings (Run returns the tso.ExhaustiveOptions.Validate
	// refusal otherwise); Prune and SleepSets are superseded and
	// auto-disabled under it.
	DPOR bool
	// Resume continues an exploration of this test from its Checkpoint
	// (tso.ExhaustiveOptions.Resume). A checkpoint of another machine,
	// reduction, reorder bound or test name is refused with an error.
	Resume *tso.Checkpoint
	// Interrupt stops the exploration at the next run boundary once it
	// becomes receivable (tso.ExhaustiveOptions.Interrupt); the Result
	// then carries a Checkpoint.
	Interrupt <-chan struct{}
}

// program lowers t to what Run explores: the machine configuration, the
// program factory and the outcome renderer.
func program(t *Test) (tso.Config, func(m *tso.Machine) []func(tso.Context), func(m *tso.Machine) string, error) {
	// Collect the variables and registers the test mentions.
	vars := map[string]bool{}
	for v := range t.Init {
		vars[v] = true
	}
	regsPerProc := make([]map[string]bool, len(t.Procs))
	for pi, p := range t.Procs {
		regsPerProc[pi] = map[string]bool{}
		for _, s := range p {
			if s.Var != "" {
				vars[s.Var] = true
			}
			if s.Reg != "" {
				regsPerProc[pi][s.Reg] = true
			}
		}
	}
	for _, c := range t.Exists {
		if c.Proc == -1 {
			vars[c.Var] = true
			continue
		}
		if c.Proc >= len(t.Procs) {
			return tso.Config{}, nil, nil, fmt.Errorf("litmusdsl: condition references P%d but test has %d processes", c.Proc, len(t.Procs))
		}
		if !regsPerProc[c.Proc][c.Reg] {
			return tso.Config{}, nil, nil, fmt.Errorf("litmusdsl: condition references P%d.%s which is never assigned", c.Proc, c.Reg)
		}
	}
	varNames := sortedKeys(vars)

	// Address layout: one word per variable, then one result word per
	// (proc, register) in name order, offset by +1 so "never written" is
	// distinguishable if a test reads an unassigned register. Alloc hands
	// out addresses deterministically, so the layout is computed once up
	// front and the factory below only reads it — which is what makes it
	// safe to run on the exhaustive engine's concurrent workers. Each
	// statement is lowered here too, its variable to an address and its
	// register to a slot, so a run reads no map.
	varAddr := map[string]tso.Addr{}
	var init []uint64
	var fields []field
	for _, v := range varNames {
		varAddr[v] = tso.Addr(len(init))
		init = append(init, t.Init[v])
	}
	next := tso.Addr(len(init))
	procs := make([]proc, len(t.Procs))
	for pi, stmts := range t.Procs {
		names := sortedKeys(regsPerProc[pi])
		slot := map[string]int{}
		for i, r := range names {
			slot[r] = i
			fields = append(fields, field{label: fmt.Sprintf("P%d.%s=", pi, r), addr: next + tso.Addr(i), bias: 1})
		}
		pr := proc{regBase: next, regs: len(names)}
		for _, s := range stmts {
			pr.ops = append(pr.ops, op{kind: s.Kind, addr: varAddr[s.Var], reg: slot[s.Reg], val: s.Val, old: s.Old})
		}
		procs[pi] = pr
		next += tso.Addr(len(names))
	}
	for _, v := range varNames {
		fields = append(fields, field{label: v + "=", addr: varAddr[v]})
	}
	words := int(next)

	// Each machine gets its own thread programs, register slots and
	// outcome scratch, built on its first run: a warmed run allocates
	// nothing.
	var mu sync.Mutex
	rigs := map[*tso.Machine]*rig{}
	rigFor := func(m *tso.Machine) *rig {
		mu.Lock()
		defer mu.Unlock()
		r := rigs[m]
		if r == nil {
			r = &rig{progs: make([]func(tso.Context), len(procs))}
			for pi := range procs {
				r.progs[pi] = procs[pi].program()
			}
			rigs[m] = r
		}
		return r
	}

	mk := func(m *tso.Machine) []func(tso.Context) {
		if m.Alloc(words) != 0 {
			panic("litmusdsl: address layout drifted from Alloc order")
		}
		for i, v := range init {
			m.Poke(tso.Addr(i), v)
		}
		return rigFor(m).progs
	}

	outcome := func(m *tso.Machine) string {
		r := rigFor(m)
		b := r.buf[:0]
		for _, f := range fields {
			b = strconv.AppendUint(append(b, f.label...), m.Peek(f.addr)-f.bias, 10)
			b = append(b, ' ')
		}
		r.buf = b
		if s, ok := r.interned[string(b)]; ok {
			return s
		}
		if r.interned == nil {
			r.interned = map[string]string{}
		}
		s := string(b)
		r.interned[s] = s
		return s
	}

	return tso.Config{Threads: len(t.Procs), BufferSize: t.SBuf, Model: t.Model}, mk, outcome, nil
}

// op is a statement lowered to its address and register slot.
type op struct {
	kind     StmtKind
	addr     tso.Addr
	reg      int
	val, old uint64
}

// proc is one process lowered: its ops, and its registers' result words
// from regBase, one per slot.
type proc struct {
	ops     []op
	regBase tso.Addr
	regs    int
}

// program returns a thread program for pr with its own register slots,
// for one machine: the slots are cleared at each run's start, and the
// registers are published (+1 so zero-valued registers are
// distinguishable from never-run) in slot order, which is name order —
// a varying order would change the store-buffer contents from run to
// run, and with them the states the memo dedups and the executed count.
func (pr proc) program() func(tso.Context) {
	regs := make([]uint64, pr.regs)
	return func(c tso.Context) {
		clear(regs)
		for _, o := range pr.ops {
			switch o.kind {
			case StmtStore:
				c.Store(o.addr, o.val)
			case StmtLoad:
				regs[o.reg] = c.Load(o.addr)
			case StmtFence:
				c.Fence()
			case StmtCAS:
				if _, ok := c.CAS(o.addr, o.old, o.val); ok {
					regs[o.reg] = 1
				} else {
					regs[o.reg] = 0
				}
			}
		}
		for i, v := range regs {
			c.Store(pr.regBase+tso.Addr(i), v+1)
		}
	}
}

// rig is one machine's thread programs and outcome scratch: the rendered
// outcome and the strings it has interned.
type rig struct {
	progs    []func(tso.Context)
	buf      []byte
	interned map[string]string
}

// field is one term of the rendered outcome: label, then the word at
// addr less bias.
type field struct {
	label string
	addr  tso.Addr
	bias  uint64
}

// Run explores every schedule of the test on the abstract machine and
// evaluates the exists condition against each final state.
func Run(t *Test, opts RunOptions) (Result, error) {
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 2_000_000
	}
	cfg, mk, outcome, err := program(t)
	if err != nil {
		return Result{}, err
	}
	eopts := tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: opts.MaxSchedules},
		Parallel:       opts.Parallel,
		Prune:          opts.Prune,
		SleepSets:      opts.SleepSets,
		MaxReorderings: opts.MaxReorderings,
		DPOR:           opts.DPOR,
		Label:          t.Name,
		Resume:         opts.Resume,
		Interrupt:      opts.Interrupt,
	}
	// Surface a refused configuration or checkpoint as an error rather
	// than a panic out of the exploration engine.
	if err := eopts.Validate(cfg); err != nil {
		return Result{}, fmt.Errorf("litmusdsl: %s: %w", t.Name, err)
	}
	if opts.Resume != nil {
		if err := opts.Resume.CompatibleWithOptions(cfg, eopts); err != nil {
			return Result{}, fmt.Errorf("litmusdsl: %s: %w", t.Name, err)
		}
	}
	set, eres := tso.ExploreExhaustive(cfg, mk, outcome, eopts)

	// Every counted outcome has a witness, so the condition is reached
	// exactly when some witness satisfies it.
	_, choices, witnessed := eres.FirstWitness(func(o string) bool { return condHolds(t, o) })
	res := Result{Test: t, Witnessed: witnessed, Complete: eres.Complete, Schedules: set.Total(), Executed: eres.Runs,
		Outcomes: set.Counts, MaxOccupancy: set.MaxOccupancy, Tree: eres.Tree, Prune: eres.Prune,
		Checkpoint: eres.Checkpoint}
	switch {
	case res.Witnessed:
		res.Verdict = "allowed"
	case res.Complete:
		res.Verdict = "forbidden"
	default:
		res.Verdict = "unobserved"
	}

	if witnessed && opts.Witness {
		res.WitnessChoices = choices
		tr := tso.NewRingTracer(4096)
		tso.ReplaySchedule(cfg, func(m *tso.Machine) []func(tso.Context) {
			m.SetTracer(tr)
			return mk(m)
		}, choices, nil)
		for _, e := range tr.Events() {
			res.Witness = append(res.Witness, e.String())
		}
	}
	return res, nil
}

// condHolds evaluates the conjunction against a rendered outcome.
func condHolds(t *Test, outcome string) bool {
	fields := map[string]string{}
	for _, f := range strings.Fields(outcome) {
		if k, v, ok := strings.Cut(f, "="); ok {
			fields[k] = v
		}
	}
	for _, c := range t.Exists {
		var key string
		if c.Proc == -1 {
			key = c.Var
		} else {
			key = fmt.Sprintf("P%d.%s", c.Proc, c.Reg)
		}
		if fields[key] != fmt.Sprintf("%d", c.Val) {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
