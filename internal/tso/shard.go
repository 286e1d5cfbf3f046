package tso

// This file exports the shard-level entry points of the exhaustive
// engine: splitting a program's decision tree into distributable work
// units without exploring it (ShardFrontier), decomposing a checkpoint
// into independently explorable single-unit shards (Checkpoint.Shards),
// and folding shard results back into one total with the engine's
// deterministic merge (Fold). The verification service (internal/serve)
// is the primary consumer: its dispatcher ships shards to a worker pool
// — or, via the same JSON wire format, to other processes — and folds
// the slices as they complete.

import "sync"

// ShardFrontier partitions the decision tree of the program built by
// mkProgs into up to opts.Units choice-prefix work units by breadth-first
// probe runs, without exploring any schedule. The returned zero-progress
// Checkpoint's units partition the program's schedules exactly, so
// resuming it (ExhaustiveOptions.Resume) — or exploring its Shards
// independently and folding the results — accounts every schedule exactly
// once. Tree statistics for the choice points consumed by splitting are
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
	units := e.split()
	reorder := 0
	if o.MaxReorderings > 0 {
		reorder = o.MaxReorderings
	}
	cp := &Checkpoint{
		Threads:      c.Threads,
		BufferSize:   c.BufferSize,
		Model:        c.Model.String(),
		DrainBuffer:  c.DrainBuffer,
		Label:        o.Label,
		Reorder:      reorder,
		DPOR:         o.DPOR,
		Counts:       map[string]int{},
		MaxOccupancy: make([]int, c.Threads),
		Tree:         e.splitTree,
	}
	for _, u := range units {
		cp.Units = append(cp.Units, UnitCheckpoint{Root: u.root, RootFanout: u.rootFan})
	}
	return cp, nil
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

// Shards decomposes the checkpoint into its accumulated base — counts and
// statistics, no units — plus one single-unit checkpoint per unexplored
// work unit: the distributable form of the frontier. Each shard is a
// complete, independently resumable checkpoint with zero accumulated
// progress, so exploring it yields exactly that unit's delta; folding the
// base and every shard's result with a Fold reproduces the undivided
// exploration's counts. The returned checkpoints share no mutable state
// with cp or each other.
func (cp *Checkpoint) Shards() (base *Checkpoint, shards []*Checkpoint) {
	base = &Checkpoint{
		Threads:      cp.Threads,
		BufferSize:   cp.BufferSize,
		Model:        cp.Model,
		DrainBuffer:  cp.DrainBuffer,
		Label:        cp.Label,
		Reorder:      cp.Reorder,
		DPOR:         cp.DPOR,
		Runs:         cp.Runs,
		StepLimited:  cp.StepLimited,
		Counts:       map[string]int{},
		MaxOccupancy: append([]int(nil), cp.MaxOccupancy...),
		Tree:         cp.Tree,
		Prune:        cp.Prune,
	}
	for k, v := range cp.Counts {
		base.Counts[k] = v
	}
	for _, u := range cp.Units {
		shards = append(shards, &Checkpoint{
			Threads:      cp.Threads,
			BufferSize:   cp.BufferSize,
			Model:        cp.Model,
			DrainBuffer:  cp.DrainBuffer,
			Label:        cp.Label,
			Reorder:      cp.Reorder,
			DPOR:         cp.DPOR,
			Counts:       map[string]int{},
			MaxOccupancy: make([]int, cp.Threads),
			Units:        []UnitCheckpoint{cloneUnit(u)},
		})
	}
	return base, shards
}

// Fold accumulates shard explorations into one total with the same
// deterministic merge ExploreExhaustive applies to its in-process work
// units: counts and run tallies sum, occupancy high-water marks max, and
// the tree/prune statistic merges are commutative — so the folded result
// is independent of the order shards complete in, and concurrent shards
// can be folded as they finish (Fold is internally synchronized). Use
// NewFold; the zero Fold is not usable.
type Fold struct {
	mu          sync.Mutex
	counts      map[string]int
	maxOcc      []int
	runs        int
	stepLimited int
	tree        TreeStats
	prune       PruneStats
	memo        MemoStats
	label       string
	reorder     int
	dpor        bool
}

// NewFold returns an empty fold for a machine with the given thread
// count (the length of the occupancy high-water vector).
func NewFold(threads int) *Fold {
	return &Fold{counts: map[string]int{}, maxOcc: make([]int, threads)}
}

// AddBase folds the accumulated progress of a checkpoint — counts, run
// tallies, occupancy, tree/prune statistics — ignoring its units. Call it
// once with the base of Checkpoint.Shards (or a resumed spool snapshot)
// before folding shard results.
func (f *Fold) AddBase(cp *Checkpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, v := range cp.Counts {
		f.counts[k] += v
	}
	f.foldOcc(cp.MaxOccupancy)
	f.runs += cp.Runs
	f.stepLimited += cp.StepLimited
	f.tree.merge(cp.Tree)
	f.prune.merge(cp.Prune)
	// The base's identity metadata carries into every checkpoint the fold
	// writes, so sliced explorations keep the phase label, reorder bound
	// and DPOR mode their shards were cut under.
	f.label = cp.Label
	f.reorder = cp.Reorder
	f.dpor = cp.DPOR
}

// Add folds one shard exploration's delta — the OutcomeSet and
// ExploreResult of an ExploreExhaustive call resumed from a zero-progress
// shard checkpoint.
func (f *Fold) Add(set OutcomeSet, res ExploreResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, v := range set.Counts {
		f.counts[k] += v
	}
	f.foldOcc(set.MaxOccupancy)
	f.runs += res.Runs
	f.stepLimited += res.StepLimited
	f.tree.merge(res.Tree)
	f.prune.merge(res.Prune)
	f.memo.merge(res.Memo)
}

func (f *Fold) foldOcc(occ []int) {
	for i, v := range occ {
		if i < len(f.maxOcc) && v > f.maxOcc[i] {
			f.maxOcc[i] = v
		}
	}
}

// Result snapshots the folded totals. complete is the caller's statement
// that every unit has been folded (the fold cannot know how many shards
// are outstanding); it is reported verbatim in the ExploreResult. The
// returned set shares no state with the fold.
func (f *Fold) Result(complete bool) (OutcomeSet, ExploreResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	res := ExploreResult{
		Runs:        f.runs,
		Complete:    complete,
		StepLimited: f.stepLimited,
		Tree:        f.tree,
		Prune:       f.prune,
		Memo:        f.memo,
	}
	set := OutcomeSet{Counts: map[string]int{}, MaxOccupancy: append([]int(nil), f.maxOcc...), res: res}
	for k, v := range f.counts {
		set.Counts[k] = v
	}
	return set, res
}

// Checkpoint serializes the fold's progress plus the given unexplored
// units as a resumable checkpoint under cfg — the spool snapshot a
// long-running job writes between slices. The units are deep-copied.
// Returns an error when cfg is invalid.
func (f *Fold) Checkpoint(cfg Config, units []UnitCheckpoint) (*Checkpoint, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := &Checkpoint{
		Threads:      c.Threads,
		BufferSize:   c.BufferSize,
		Model:        c.Model.String(),
		DrainBuffer:  c.DrainBuffer,
		Label:        f.label,
		Reorder:      f.reorder,
		DPOR:         f.dpor,
		Runs:         f.runs,
		StepLimited:  f.stepLimited,
		Counts:       map[string]int{},
		MaxOccupancy: append([]int(nil), f.maxOcc...),
		Tree:         f.tree,
		Prune:        f.prune,
	}
	for k, v := range f.counts {
		cp.Counts[k] = v
	}
	for _, u := range units {
		cp.Units = append(cp.Units, cloneUnit(u))
	}
	return cp, nil
}
