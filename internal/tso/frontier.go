package tso

// This file is the frontier layer of the exhaustive engine. Every
// exploration resumes a Checkpoint: the caller's, or the zero-progress one
// that partitions the decision tree into choice-prefix work units
// (frontier). ExploreExhaustive drives the checkpoint's units across a
// worker pool and merges their results through one Fold (shard.go), which
// also captures the unexplored remainder as the resumable Checkpoint whose
// one wire format is BinaryCodec (codec.go).

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Checkpoint is the serialized unexplored frontier of an exhaustive
// exploration that stopped at its run budget: everything accounted so far
// (outcome counts, occupancy high-water marks, tree/prune statistics) plus
// the resumable position of every unfinished work unit. It round-trips
// through BinaryCodec (codec.go), the one checkpoint wire format.
type Checkpoint struct {
	Threads     int
	BufferSize  int
	Model       string
	DrainBuffer bool
	// Label is an optional caller tag (litmusdsl.Run stamps the test name)
	// checked at resume when both sides set one, so two explorations
	// spooling under one path prefix cannot silently swap frontiers.
	Label string
	// Reorder is the reorder bound the exploration ran under (0:
	// unbounded). Resume requires the same bound: a frontier pruned at k
	// is not a valid position of any other exploration.
	Reorder int
	// DPOR records whether the exploration ran under source-set DPOR.
	// Resume requires agreement: a DPOR frontier's unexplored remainder
	// is meaningful only with the per-unit Done masks and vice versa.
	DPOR         bool
	Runs         int
	StepLimited  int
	Counts       map[string]int
	MaxOccupancy []int
	Tree         TreeStats
	Prune        PruneStats
	// Witnesses is ExploreResult.Witnesses so far: a resumed exploration
	// keeps the witnesses found before the checkpoint.
	Witnesses map[string][]int
	Units     []UnitCheckpoint

	// memo is the memo table of the exploration that wrote this
	// checkpoint, held in memory only: BinaryCodec does not encode it. A
	// resume of the checkpoint — or of its Frontier — in the same process
	// continues that table instead of starting an empty one, so an
	// exploration resumed leg by leg dedups across its legs the way an
	// uninterrupted one does.
	memo *memoTable
}

// UnitCheckpoint is the resumable position of one work unit: the unit's
// root choice prefix and, when the unit had started, the full DFS path to
// its next unexplored branch (with the recorded fanouts for the
// replay-determinism check).
type UnitCheckpoint struct {
	Root       []int
	RootFanout []int
	Prefix     []int
	Fanout     []int
	// Done is DPOR mode's per-frame explored-branch bitmask, one per
	// prefix depth past the unit root. DPOR backtracking visits
	// branches out of ascending order, so "everything before the
	// current choice" does not describe what finished; these masks do.
	Done []uint64
}

// Validate checks the checkpoint's structural integrity independent of
// any machine configuration: a known memory-model string, non-negative
// progress counters, exactly one witness without negative choices per
// counted outcome, per-unit choice prefixes whose recorded fanouts are
// consistent (every choice within its fanout, resume paths extending
// their unit root), and done-masks only on DPOR checkpoints. It does not
// check that the checkpoint matches a particular Config — resume does
// that — only that the frontier is a well-formed tree position at all.
func (cp *Checkpoint) Validate() error {
	if cp.Threads < 1 {
		return fmt.Errorf("tso: checkpoint needs at least 1 thread, got %d", cp.Threads)
	}
	if cp.BufferSize < 1 {
		return fmt.Errorf("tso: checkpoint store-buffer size must be >= 1, got %d", cp.BufferSize)
	}
	switch cp.Model {
	case ModelTSO.String(), ModelPSO.String():
	default:
		return fmt.Errorf("tso: checkpoint names unknown memory model %q", cp.Model)
	}
	if cp.Reorder < 0 {
		return fmt.Errorf("tso: checkpoint has negative reorder bound %d", cp.Reorder)
	}
	if cp.Runs < 0 {
		return fmt.Errorf("tso: checkpoint has negative run count %d", cp.Runs)
	}
	if cp.StepLimited < 0 {
		return fmt.Errorf("tso: checkpoint has negative step-limited count %d", cp.StepLimited)
	}
	for o, n := range cp.Counts {
		w, ok := cp.Witnesses[o]
		switch {
		case n < 0:
			return fmt.Errorf("tso: checkpoint counts outcome %q %d times", o, n)
		case !ok:
			return fmt.Errorf("tso: checkpoint counts outcome %q without a witness", o)
		case slices.ContainsFunc(w, func(b int) bool { return b < 0 }):
			return fmt.Errorf("tso: checkpoint witness of outcome %q has a negative choice", o)
		}
	}
	if len(cp.Witnesses) != len(cp.Counts) {
		return fmt.Errorf("tso: checkpoint has %d witnesses for %d counted outcomes", len(cp.Witnesses), len(cp.Counts))
	}
	if len(cp.MaxOccupancy) != cp.Threads {
		return fmt.Errorf("tso: checkpoint records occupancy for %d threads, config says %d", len(cp.MaxOccupancy), cp.Threads)
	}
	for i, u := range cp.Units {
		if err := u.validate(); err != nil {
			return fmt.Errorf("tso: checkpoint unit %d: %w", i, err)
		}
		if len(u.Done) > 0 && !cp.DPOR {
			// Only DPOR frames keep done marks; resume would silently
			// drop (or carry forward) masks nothing can interpret.
			return fmt.Errorf("tso: checkpoint unit %d carries done-masks but the checkpoint is not DPOR", i)
		}
	}
	return nil
}

// validate checks one work unit's positions: paired choice/fanout
// lengths, every choice within its recorded fanout, and a resume prefix
// that extends the unit root it belongs to.
func (uc *UnitCheckpoint) validate() error {
	if len(uc.Root) != len(uc.RootFanout) {
		return fmt.Errorf("root has %d choices but %d fanouts", len(uc.Root), len(uc.RootFanout))
	}
	for d, b := range uc.Root {
		if uc.RootFanout[d] < 1 || b < 0 || b >= uc.RootFanout[d] {
			return fmt.Errorf("root choice %d at depth %d outside fanout %d", b, d, uc.RootFanout[d])
		}
	}
	if len(uc.Prefix) != len(uc.Fanout) {
		return fmt.Errorf("prefix has %d choices but %d fanouts", len(uc.Prefix), len(uc.Fanout))
	}
	if len(uc.Prefix) == 0 {
		return nil
	}
	if len(uc.Prefix) < len(uc.Root) {
		return fmt.Errorf("resume prefix (%d choices) shorter than unit root (%d)", len(uc.Prefix), len(uc.Root))
	}
	for d := range uc.Root {
		if uc.Prefix[d] != uc.Root[d] || uc.Fanout[d] != uc.RootFanout[d] {
			return fmt.Errorf("resume prefix diverges from unit root at depth %d", d)
		}
	}
	for d, b := range uc.Prefix {
		if uc.Fanout[d] < 1 || b < 0 || b >= uc.Fanout[d] {
			return fmt.Errorf("prefix choice %d at depth %d outside fanout %d", b, d, uc.Fanout[d])
		}
	}
	if len(uc.Done) > 0 {
		if len(uc.Done) != len(uc.Prefix)-len(uc.Root) {
			return fmt.Errorf("unit has %d done-masks for %d resumable depths",
				len(uc.Done), len(uc.Prefix)-len(uc.Root))
		}
		for di, mask := range uc.Done {
			fan := uc.Fanout[len(uc.Root)+di]
			if fan < 64 && mask>>fan != 0 {
				return fmt.Errorf("done-mask %#x at depth %d marks branches past fanout %d",
					mask, len(uc.Root)+di, fan)
			}
		}
	}
	return nil
}

// Resume-refusal sentinels. Each axis resume must agree on gets its own
// sentinel so callers (and the mutation-matrix test) can tell exactly
// which mismatch refused a frontier; wrap-compare with errors.Is.
var (
	// ErrResumeReorder: the checkpoint's reorder bound differs from the
	// resuming options'.
	ErrResumeReorder = errors.New("tso: checkpoint reorder bound mismatch")
	// ErrResumeDPOR: the checkpoint's DPOR mode differs from the
	// resuming options'.
	ErrResumeDPOR = errors.New("tso: checkpoint DPOR mode mismatch")
	// ErrResumeLabel: both sides carry a label and they differ.
	ErrResumeLabel = errors.New("tso: checkpoint label mismatch")
)

// CompatibleWithOptions reports whether the checkpoint can be resumed
// under the configuration and exploration options: the same thread
// count, buffer size, memory model and drain stage, the reorder bound
// the frontier was pruned under, the same DPOR mode, and the same
// label when both sides carry one. It is the one resume check:
// ExploreExhaustive panics on its error, and callers holding externally
// supplied checkpoints (a spool directory, a wire request) call it first
// to reject a mismatch gracefully.
func (cp *Checkpoint) CompatibleWithOptions(c Config, o ExhaustiveOptions) error {
	c, err := c.withDefaults()
	if err != nil {
		return err
	}
	o = o.withDefaults()
	switch {
	case cp.Threads != c.Threads:
		return fmt.Errorf("tso: checkpoint is for %d threads, config has %d", cp.Threads, c.Threads)
	case cp.BufferSize != c.BufferSize:
		return fmt.Errorf("tso: checkpoint is for S=%d, config has S=%d", cp.BufferSize, c.BufferSize)
	case cp.Model != c.Model.String():
		return fmt.Errorf("tso: checkpoint is for %s, config is %s", cp.Model, c.Model)
	case cp.DrainBuffer != c.DrainBuffer:
		return fmt.Errorf("tso: checkpoint and config disagree on the drain stage")
	}
	if want := max(o.MaxReorderings, 0); cp.Reorder != want {
		name := func(k int) string {
			if k == 0 {
				return "unbounded"
			}
			return fmt.Sprintf("k=%d", k)
		}
		return fmt.Errorf("%w: checkpoint was explored with reorder bound %s, options say %s",
			ErrResumeReorder, name(cp.Reorder), name(want))
	}
	if cp.DPOR != o.DPOR {
		name := func(b bool) string {
			if b {
				return "source-set DPOR"
			}
			return "no DPOR"
		}
		return fmt.Errorf("%w: checkpoint was explored with %s, options say %s",
			ErrResumeDPOR, name(cp.DPOR), name(o.DPOR))
	}
	if cp.Label != "" && o.Label != "" && cp.Label != o.Label {
		return fmt.Errorf("%w: checkpoint is labeled %q, options say %q",
			ErrResumeLabel, cp.Label, o.Label)
	}
	return nil
}

// ExploreExhaustive is the scalable counterpart of ExploreOutcomes: the
// same enumeration of every schedule of the program built by mkProgs,
// restructured as parallel, pruned, resumable model checking (see mc.go
// for the pruning mechanics and their soundness arguments).
//
// With opts at its zero value the result is equivalent to ExploreOutcomes;
// with Prune set the outcome counts are still byte-identical while Runs —
// the schedules actually executed — shrinks by the memoized subtrees. Like
// ExploreOutcomes it panics on a program failure, and buckets step-limited
// schedules under StepLimitOutcome.
//
// Every exploration resumes a checkpoint: opts.Resume when set, otherwise
// the zero-progress frontier ShardFrontier would return. Its progress and
// every unit's result merge through one Fold, which also writes the
// budget checkpoint.
//
// With Parallel > 1, mkProgs and outcome run concurrently on distinct
// machines and must not write shared captured state. Frontier-splitting
// probe runs are not charged against MaxRuns.
func ExploreExhaustive(cfg Config, mkProgs func(m *Machine) []func(Context), outcome func(m *Machine) string, opts ExhaustiveOptions) (OutcomeSet, ExploreResult) {
	c, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	o := opts.withDefaults()
	if err := o.Validate(c); err != nil {
		panic(err)
	}
	e := &mcEngine{cfg: c, mk: mkProgs, outcome: outcome, opts: o, bound: o.MaxReorderings}

	start := o.Resume
	if start == nil {
		start = e.frontier()
	} else if err := start.CompatibleWithOptions(c, o); err != nil {
		panic(err)
	}
	var memoBase MemoStats
	if o.Prune {
		e.memo = start.memo
		if e.memo == nil || e.memo.scope != newMemoScope(o) {
			e.memo = newMemoTable(c, o.memoStripes, o.memoLimit)
			e.memo.scope = newMemoScope(o)
		}
		memoBase = e.memo.stats()
		e.outcomes = &e.memo.outcomes
	} else {
		e.outcomes = &outcomeIDs{}
	}
	fold := NewFold(c.Threads)
	fold.AddBase(start)
	// The result checkpoint carries this call's label, even when the
	// resumed one was unlabeled.
	fold.acc.Label = o.Label
	units := make([]*mcUnit, len(start.Units))
	for i, uc := range start.Units {
		u := &mcUnit{
			root:    append([]int(nil), uc.Root...),
			rootFan: append([]int(nil), uc.RootFanout...),
			res:     ExploreResult{Witnesses: map[string][]int{}},
		}
		if len(uc.Prefix) > 0 {
			u.prefix = append([]int(nil), uc.Prefix...)
			u.fanout = append([]int(nil), uc.Fanout...)
			u.doneMask = append([]uint64(nil), uc.Done...)
		}
		units[i] = u
	}

	if o.Interrupt != nil {
		// The watcher translates external interruption (a signal handler,
		// a server drain) into the same stop the run budget uses: workers
		// notice at their next run boundary and snapshot their units. An
		// interrupt already pending here is honored synchronously so no
		// worker executes a single run.
		select {
		case <-o.Interrupt:
			e.stopped.Store(true)
		default:
			watchDone := make(chan struct{})
			defer close(watchDone)
			go func() {
				select {
				case <-o.Interrupt:
					e.stopped.Store(true)
				case <-watchDone:
				}
			}()
		}
	}

	workers := o.Parallel
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicVal = p })
					e.stopped.Store(true)
				}
			}()
			// Each worker reuses one machine (and its policy, history
			// hashes and scratch) for every schedule it executes.
			r := e.newRunner()
			defer r.m.Close()
			for {
				i := int(next.Add(1))
				if i >= len(units) || e.stopped.Load() {
					return
				}
				e.exploreUnit(r, units[i])
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}

	var open []UnitCheckpoint
	for _, u := range units {
		fold.Add(OutcomeSet{Counts: e.outcomes.counts(u.acc.counts), MaxOccupancy: u.acc.maxOcc}, u.res)
		if !u.complete {
			open = append(open, UnitCheckpoint{
				Root: u.root, RootFanout: u.rootFan,
				Prefix: u.prefix, Fanout: u.fanout, Done: u.doneMask,
			})
		}
	}
	set, res := fold.Result(len(open) == 0)
	if e.memo != nil {
		res.Memo = e.memo.stats().since(memoBase)
	}
	if len(open) > 0 {
		res.Checkpoint, _ = fold.Checkpoint(c, open)
		res.Checkpoint.memo = e.memo
	}
	return set, res
}

// probeFanout executes one throwaway schedule on m (Reset here) replaying
// root and reports the fanout of the first choice past it (0 when the run
// ends first). Its outcome is discarded — the node's subtree belongs to
// exactly the units split from it.
func (e *mcEngine) probeFanout(m *Machine, root, rootFan []int) int {
	depth := 0
	fan := 0
	mismatch := false
	m.Reset()
	m.pol = &chooserPolicy{choose: func(acts []action) int {
		d := depth
		depth++
		if d < len(root) {
			if rootFan[d] != len(acts) {
				mismatch = true
			}
			return root[d]
		}
		if d == len(root) {
			fan = len(acts)
		}
		return 0
	}}
	err := m.Run(e.mk(m)...)
	if mismatch {
		panic("tso: Explore program is not replay-deterministic (fanout changed under an identical choice prefix)")
	}
	if err != nil && !errors.Is(err, ErrStepLimit) {
		panic(fmt.Sprintf("tso: litmus program failed: %v", err))
	}
	return fan
}

// frontier partitions the decision tree into roughly opts.Units work
// units by breadth-first probe runs — a node with fanout f is replaced by
// its f child prefixes until the target is met — and returns them, in
// depth-first order, as a zero-progress checkpoint. The unit roots partition the tree's schedules
// exactly, so merging unit results never double-counts; the choice points
// consumed by splitting are recorded in the checkpoint's Tree to keep the
// reported tree statistics whole.
func (e *mcEngine) frontier() *Checkpoint {
	c := e.cfg
	cp := (&Checkpoint{
		Threads:     c.Threads,
		BufferSize:  c.BufferSize,
		Model:       c.Model.String(),
		DrainBuffer: c.DrainBuffer,
		Label:       e.opts.Label,
		Reorder:     max(e.bound, 0),
		DPOR:        e.opts.DPOR,
	}).empty()
	type pend struct{ root, fan []int }
	// A defensive ceiling: past this depth a chain is cheaper to explore
	// than to keep probing.
	const maxSplitDepth = 64
	q := []pend{{nil, nil}}
	unit := func(p pend) {
		cp.Units = append(cp.Units, UnitCheckpoint{Root: p.root, RootFanout: p.fan})
	}
	// One machine serves every probe; splitting is sequential. Created
	// lazily so single-unit explorations pay nothing here.
	var pm *Machine
	defer func() {
		if pm != nil {
			pm.Close()
		}
	}()
	for len(q) > 0 && len(q)+len(cp.Units) < e.opts.Units {
		p := q[0]
		q = q[1:]
		if len(p.root) >= maxSplitDepth {
			unit(p)
			continue
		}
		if pm == nil {
			c.MaxSteps = e.opts.MaxStepsPerRun
			pm = newChooserMachine(c, &chooserPolicy{})
		}
		fan := e.probeFanout(pm, p.root, p.fan)
		if fan < 2 {
			unit(p)
			continue
		}
		cp.Tree.node(len(p.root), fan)
		for b := 0; b < fan; b++ {
			q = append(q, pend{
				root: append(append([]int(nil), p.root...), b),
				fan:  append(append([]int(nil), p.fan...), fan),
			})
		}
	}
	for _, p := range q {
		unit(p)
	}
	// Depth-first unit order: a sequential walk of the units then visits
	// schedules in the order an unsplit exploration does, so the memo
	// credits the later of two converging subtrees and the smallest
	// executed schedule per outcome (the witness) is the unsplit one's.
	slices.SortFunc(cp.Units, func(a, b UnitCheckpoint) int { return slices.Compare(a.Root, b.Root) })
	return cp
}
