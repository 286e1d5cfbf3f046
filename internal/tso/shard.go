package tso

// This file exports the shard-level entry points of the exhaustive
// engine: splitting a program's decision tree into distributable work
// units without exploring it (ShardFrontier), decomposing a checkpoint
// into independently explorable single-unit shards (Checkpoint.Shards),
// and folding shard results back into one total (Fold). Fold is the one
// place progress merges: ExploreExhaustive folds its own work units
// through it too. The verification service (internal/serve) is the
// primary consumer: its dispatcher ships shards to a worker pool and
// folds the slices as they complete.

import "sync"

// ShardFrontier partitions the decision tree of the program built by
// mkProgs into up to opts.Units choice-prefix work units by breadth-first
// probe runs, without exploring any schedule. The returned zero-progress
// Checkpoint's units partition the program's schedules exactly, so
// resuming it (ExhaustiveOptions.Resume) — or exploring its Shards
// independently and folding the results — accounts every schedule exactly
// once; it is the same checkpoint an unresumed ExploreExhaustive starts
// from. Tree statistics for the choice points consumed by splitting are
// carried in the checkpoint so a later fold reports the whole tree.
// Probe runs respect opts.MaxStepsPerRun and are never charged against
// any run budget. Returns an error for an invalid cfg; panics (like the
// exploration entry points) if the program fails or is not
// replay-deterministic.
func ShardFrontier(cfg Config, mkProgs func(m *Machine) []func(Context), opts ExhaustiveOptions) (*Checkpoint, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if err := o.Validate(c); err != nil {
		return nil, err
	}
	e := &mcEngine{cfg: c, mk: mkProgs, opts: o, bound: o.MaxReorderings}
	return e.frontier(), nil
}

// empty returns a checkpoint with cp's identity — machine shape, label,
// reorder bound, DPOR mode — and no progress or units.
func (cp *Checkpoint) empty() *Checkpoint {
	return &Checkpoint{
		Threads:      cp.Threads,
		BufferSize:   cp.BufferSize,
		Model:        cp.Model,
		DrainBuffer:  cp.DrainBuffer,
		Label:        cp.Label,
		Reorder:      cp.Reorder,
		DPOR:         cp.DPOR,
		Counts:       map[string]int{},
		Witnesses:    map[string][]int{},
		MaxOccupancy: make([]int, cp.Threads),
	}
}

// add merges o's progress, not its units, into cp: counts and run tallies
// sum, witnesses keep the smaller schedule (copied), occupancy high-water
// marks max, and tree/prune statistics merge. Every merge is commutative,
// so the total is independent of the order pieces arrive in.
func (cp *Checkpoint) add(o *Checkpoint) {
	for k, v := range o.Counts {
		cp.Counts[k] += v
	}
	for k, w := range o.Witnesses {
		keepWitness(cp.Witnesses, k, w)
	}
	for i, v := range o.MaxOccupancy {
		if i < len(cp.MaxOccupancy) && v > cp.MaxOccupancy[i] {
			cp.MaxOccupancy[i] = v
		}
	}
	cp.Runs += o.Runs
	cp.StepLimited += o.StepLimited
	cp.Tree.merge(o.Tree)
	cp.Prune.merge(o.Prune)
}

// cloneUnit deep-copies a unit checkpoint so shards share no slices.
func cloneUnit(u UnitCheckpoint) UnitCheckpoint {
	return UnitCheckpoint{
		Root:       append([]int(nil), u.Root...),
		RootFanout: append([]int(nil), u.RootFanout...),
		Prefix:     append([]int(nil), u.Prefix...),
		Fanout:     append([]int(nil), u.Fanout...),
		Done:       append([]uint64(nil), u.Done...),
	}
}

// Shards decomposes the checkpoint into its accumulated base — counts,
// witnesses and statistics, no units — plus one single-unit checkpoint
// per unexplored work unit: the distributable form of the frontier. Each
// shard is a complete, independently resumable checkpoint with zero
// accumulated progress, so exploring it yields exactly that unit's delta;
// folding the base and every shard's result with a Fold reproduces the
// undivided exploration's counts. The returned checkpoints share no
// mutable state with cp or each other.
func (cp *Checkpoint) Shards() (base *Checkpoint, shards []*Checkpoint) {
	base = cp.empty()
	base.add(cp)
	for _, u := range cp.Units {
		shard := cp.empty()
		shard.Units = []UnitCheckpoint{cloneUnit(u)}
		shards = append(shards, shard)
	}
	return base, shards
}

// Fold accumulates explorations into one total: the base progress of a
// checkpoint (AddBase) plus any number of zero-progress deltas (Add),
// merged by Checkpoint.add. ExploreExhaustive folds its in-process work
// units the same way, so a sliced exploration's total equals the
// undivided one's, independent of the order shards complete in.
// Concurrent shards can be folded as they finish (Fold is internally
// synchronized). Use NewFold; the zero Fold is not usable.
type Fold struct {
	mu sync.Mutex
	// acc holds the folded progress and the base's identity; its Units
	// stay empty.
	acc  *Checkpoint
	memo MemoStats
}

// NewFold returns an empty fold for a machine with the given thread
// count (the length of the occupancy high-water vector).
func NewFold(threads int) *Fold {
	return &Fold{acc: (&Checkpoint{Threads: threads}).empty()}
}

// AddBase folds the accumulated progress of a checkpoint — counts,
// witnesses, run tallies, occupancy, tree/prune statistics — ignoring its
// units. Call it once with the base of Checkpoint.Shards (or a resumed
// spool snapshot) before folding shard results. The base's phase label,
// reorder bound and DPOR mode carry into every checkpoint the fold writes.
func (f *Fold) AddBase(cp *Checkpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acc.add(cp)
	f.acc.Label, f.acc.Reorder, f.acc.DPOR = cp.Label, cp.Reorder, cp.DPOR
}

// Add folds one exploration's delta — the OutcomeSet and ExploreResult of
// an ExploreExhaustive call resumed from a zero-progress shard checkpoint.
func (f *Fold) Add(set OutcomeSet, res ExploreResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acc.add(&Checkpoint{Counts: set.Counts, Witnesses: res.Witnesses, MaxOccupancy: set.MaxOccupancy,
		Runs: res.Runs, StepLimited: res.StepLimited, Tree: res.Tree, Prune: res.Prune})
	f.memo.merge(res.Memo)
}

// Result snapshots the folded totals. complete is the caller's statement
// that every unit has been folded (the fold cannot know how many shards
// are outstanding); it is reported verbatim in the ExploreResult. The
// returned set and witnesses share no state with the fold.
func (f *Fold) Result(complete bool) (OutcomeSet, ExploreResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	acc := f.acc.empty()
	acc.add(f.acc)
	return OutcomeSet{Counts: acc.Counts, MaxOccupancy: acc.MaxOccupancy}, ExploreResult{
		Runs:        acc.Runs,
		Complete:    complete,
		StepLimited: acc.StepLimited,
		Tree:        acc.Tree,
		Prune:       acc.Prune,
		Memo:        f.memo,
		Witnesses:   acc.Witnesses,
	}
}

// Checkpoint serializes the fold's progress plus the given unexplored
// units as a resumable checkpoint under cfg — the spool snapshot a
// long-running job writes between slices, and ExploreExhaustive's budget
// checkpoint. The units are deep-copied. Returns an error when cfg is
// invalid.
func (f *Fold) Checkpoint(cfg Config, units []UnitCheckpoint) (*Checkpoint, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := f.acc.empty()
	cp.Threads, cp.BufferSize, cp.Model, cp.DrainBuffer = c.Threads, c.BufferSize, c.Model.String(), c.DrainBuffer
	cp.add(f.acc)
	for _, u := range units {
		cp.Units = append(cp.Units, cloneUnit(u))
	}
	return cp, nil
}
