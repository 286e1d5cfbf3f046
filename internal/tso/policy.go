package tso

// policy is the pluggable scheduling/cost engine behind the unified
// machine core. The core owns the request/grant plumbing, the memory and
// store-buffer substrate and the stats sink; the policy decides what
// happens at each scheduler step and what it costs. Its methods run on
// whichever goroutine holds the scheduling baton (see Machine.turn), one
// call at a time; a panic in one propagates out of Run unchanged.
type policy interface {
	// reset prepares per-Run policy state; called at the start of Run.
	reset(m *Machine)
	// next picks the step's action once every live thread has a pending
	// request: run a thread, or drain a store-buffer entry.
	next(m *Machine) action
	// exec performs a thread's pending request and produces its response.
	exec(m *Machine, r *request) response
	// flush empties every store buffer at the end of Run.
	flush(m *Machine)
	// bounded reports whether Config.MaxSteps applies: schedule-exploring
	// policies convert livelock into ErrStepLimit, the timed policy's
	// deterministic schedule needs no bound.
	bounded() bool
	// zeroWorkIsNop reports whether Work(0) can skip its scheduling point
	// (the timed engine's historical behaviour).
	zeroWorkIsNop() bool
	// cancelled reports whether the policy wants the current Run torn down
	// immediately (the schedule loop then unwinds every thread and returns
	// errRunCut). The exhaustive engine uses it to abandon a schedule the
	// moment state memoization proves its suffix redundant.
	cancelled() bool
	// drainLatency is the metrics clock: how long entry e spent buffered,
	// in the policy's time unit (scheduler steps or virtual cycles).
	drainLatency(m *Machine, e entry) uint64
}

// bufferedPolicy is the shared behaviour of the policies that run the
// buffered (untimed) substrate: execution and end-of-run flushing live on
// the machine core, and scheduler steps are bounded by Config.MaxSteps.
type bufferedPolicy struct{}

func (bufferedPolicy) reset(*Machine) {}

func (bufferedPolicy) exec(m *Machine, r *request) response { return m.execBuffered(r) }

func (bufferedPolicy) flush(m *Machine) { m.flushBuffered() }

func (bufferedPolicy) bounded() bool { return true }

func (bufferedPolicy) zeroWorkIsNop() bool { return false }

func (bufferedPolicy) cancelled() bool { return false }

func (bufferedPolicy) drainLatency(m *Machine, e entry) uint64 { return uint64(m.steps) - e.born }

// chaosPolicy samples schedules under a seeded RNG with a configurable
// drain bias — the adversarial engine behind the litmus grids. It draws
// from the machine's RNG, m.rng, which every Reset reseeds.
type chaosPolicy struct {
	bufferedPolicy

	// drainable/runnable are reusable candidate buffers so the per-step
	// path allocates nothing.
	drainable []int
	runnable  []int
}

func (p *chaosPolicy) next(m *Machine) action {
	pso := m.cfg.Model == ModelPSO
	if k, ok := p.pickDrain(m); ok {
		a := action{drain: true, id: k}
		if pso {
			el := m.bufs[k].eligibleDrains()
			a.idx = el[m.rng.Intn(len(el))]
		}
		return a
	}
	return action{id: p.pickRunnable(m)}
}

// pickDrain decides whether this step drains a buffer entry, and whose.
func (p *chaosPolicy) pickDrain(m *Machine) (int, bool) {
	drainable := p.drainable[:0]
	for i, b := range m.bufs {
		if b.occupancy() > 0 {
			drainable = append(drainable, i)
		}
	}
	p.drainable = drainable
	if len(drainable) == 0 {
		return 0, false
	}
	if m.rng.Float64() >= m.cfg.DrainBias {
		return 0, false
	}
	return drainable[m.rng.Intn(len(drainable))], true
}

func (p *chaosPolicy) pickRunnable(m *Machine) int {
	runnable := p.runnable[:0]
	for tid, r := range m.pending {
		if r != nil {
			runnable = append(runnable, tid)
		}
	}
	p.runnable = runnable
	return runnable[m.rng.Intn(len(runnable))]
}

// chooserPolicy replaces random scheduling with deterministic enumeration:
// at every step it lists the possible actions (run each thread with a
// pending request, drain each non-empty buffer, in deterministic order)
// and asks choose to pick one. ExploreWithChoices, the exhaustive engine
// and ReplaySchedule use it to enumerate schedules.
type chooserPolicy struct {
	bufferedPolicy
	// choose picks one of the listed actions. The slice is only valid for
	// the duration of the call.
	choose func(acts []action) int
	// onExec, when non-nil, observes every executed request and its
	// response — the exhaustive engine folds them into per-thread history
	// hashes for canonical-state pruning.
	onExec func(r *request, resp response)
	// cancel, when set by choose, tears the current run down (see
	// policy.cancelled).
	cancel bool
	// acts is next's reusable action buffer (see the choose contract: the
	// slice is only valid for the duration of the call).
	acts []action
}

func (p *chooserPolicy) next(m *Machine) action {
	pso := m.cfg.Model == ModelPSO
	acts := p.acts[:0]
	for tid, r := range m.pending {
		if r != nil {
			acts = append(acts, action{id: tid})
		}
	}
	for tid, b := range m.bufs {
		if b.occupancy() == 0 {
			continue
		}
		if pso {
			for _, idx := range b.eligibleDrains() {
				acts = append(acts, action{drain: true, id: tid, idx: idx})
			}
			continue
		}
		acts = append(acts, action{drain: true, id: tid})
	}
	p.acts = acts
	return acts[p.choose(acts)]
}

// reset clears a previous run's cancellation: a chooser policy outlives
// the runs it drives (the engines reuse one machine and policy across an
// entire exploration).
func (p *chooserPolicy) reset(*Machine) { p.cancel = false }

func (p *chooserPolicy) exec(m *Machine, r *request) response {
	resp := m.execBuffered(r)
	if p.onExec != nil {
		p.onExec(r, resp)
	}
	return resp
}

func (p *chooserPolicy) cancelled() bool { return p.cancel }
