package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/oracle"
	"repro/internal/runner"
	"repro/internal/tso"
)

// Intake rejection sentinels.
var (
	// ErrQueueFull rejects a submission while QueueDepth jobs are already
	// unfinished.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions after Drain began.
	ErrDraining = errors.New("serve: server draining")
	// ErrUnknownJob is returned by Status for an ID the server never
	// assigned.
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Server is the verification service engine: job intake, the shard
// dispatcher over a bounded worker pool, the deterministic fold of shard
// deltas, periodic spooling, and drain/kill lifecycle. The HTTP layer
// (Handler) is a thin skin over its methods.
type Server struct {
	cfg     Config
	store   *Store
	pool    *runner.Pool
	metrics *Metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	draining bool

	stopOnce sync.Once
	stopCh   chan struct{} // closed on Drain/Kill; wired as exploration Interrupt
	tickOnce sync.Once
	tickStop chan struct{}
	tickDone chan struct{}
	// drainOnce makes Drain run once; a concurrent second call blocks
	// until the first has spooled every frontier.
	drainOnce sync.Once
}

// job is the in-memory state of one verification job.
type job struct {
	id    string
	spec  JobSpec
	prog  oracle.Program
	check oracle.Spec
	cfg   tso.Config
	mk    func(*tso.Machine) []func(tso.Context)
	out   func(*tso.Machine) string

	state       JobState
	errMsg      string
	fold        *tso.Fold
	outstanding map[int]tso.UnitCheckpoint
	nextUnit    int
	budget      int // remaining executed-schedule budget (prepaid per slice)
	budgetTotal int
	executed    int
	inFlight    int // pool tasks queued or running for this job
	dirty       bool
	result      *JobResult
}

// NewServer opens the spool, resumes any jobs it holds, and starts the
// worker pool and the checkpoint ticker. The caller owns the lifecycle:
// Drain for a graceful stop, Kill only in tests.
func NewServer(cfg Config) (*Server, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	store, err := OpenStore(c.SpoolDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      c,
		store:    store,
		pool:     runner.NewPool(context.Background(), c.Workers),
		metrics:  NewMetrics(),
		jobs:     map[string]*job{},
		stopCh:   make(chan struct{}),
		tickStop: make(chan struct{}),
		tickDone: make(chan struct{}),
	}
	if err := s.resume(); err != nil {
		s.pool.Close(false)
		return nil, err
	}
	go s.ticker()
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Metrics returns the server's metrics set (the /metrics source).
func (s *Server) Metrics() *Metrics { return s.metrics }

// newJob compiles a spec into runnable job state (no lock needed).
func (s *Server) newJob(id string, spec JobSpec) (*job, error) {
	prog, check, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	sc := prog.Scenario()
	mk, out := sc.Outcomes(check)
	budget := spec.MaxSchedules
	if budget == 0 || budget > s.cfg.MaxJobRuns {
		budget = s.cfg.MaxJobRuns
	}
	return &job{
		id:          id,
		spec:        spec,
		prog:        prog,
		check:       check,
		cfg:         sc.Config,
		mk:          mk,
		out:         out,
		state:       StateQueued,
		fold:        tso.NewFold(sc.Config.Threads),
		outstanding: map[int]tso.UnitCheckpoint{},
		budget:      budget,
		budgetTotal: budget,
	}, nil
}

// Submit validates and admits a job, persists its intake record, and
// queues the planning task that shards its frontier. The returned status
// snapshots the accepted job.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	j, err := s.newJob("", spec)
	if err != nil {
		s.metrics.jobsRejected.Add(1)
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.jobsRejected.Add(1)
		return JobStatus{}, ErrDraining
	}
	if s.activeLocked() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.jobsRejected.Add(1)
		return JobStatus{}, ErrQueueFull
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	rec := s.recordLocked(j)
	st := s.statusLocked(j)
	s.enqueuePlanLocked(j)
	s.mu.Unlock()

	s.put(rec)
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.jobsActive.Add(1)
	return st, nil
}

// activeLocked counts unfinished jobs (mu held).
func (s *Server) activeLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			n++
		}
	}
	return n
}

// Status returns a job's current status snapshot.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return s.statusLocked(j), nil
}

// List returns every job's status in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Draining reports whether Drain has begun (the /healthz signal).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// statusLocked snapshots a job (mu held). The result is copied because
// the witness task mutates it under mu while callers marshal the status
// outside it.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:               j.id,
		State:            j.state,
		Spec:             j.spec,
		Executed:         j.executed,
		OutstandingUnits: len(j.outstanding),
		Error:            j.errMsg,
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}

// recordLocked builds a job's durable record, including — for jobs with
// sharded frontiers — the crash-consistent checkpoint: folded counts
// plus every outstanding unit at its last slice boundary (mu held).
func (s *Server) recordLocked(j *job) *Record {
	rec := &Record{
		ID:     j.id,
		Spec:   j.spec,
		State:  j.state,
		Budget: j.budget,
		Error:  j.errMsg,
	}
	if j.result != nil {
		r := *j.result
		rec.Result = &r
	}
	if j.state == StateRunning {
		units := make([]tso.UnitCheckpoint, 0, len(j.outstanding))
		ids := make([]int, 0, len(j.outstanding))
		for id := range j.outstanding {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			units = append(units, j.outstanding[id])
		}
		cp, err := j.fold.Checkpoint(j.cfg, units)
		if err == nil {
			rec.Checkpoint = cp
		}
	}
	return rec
}

// put spools a record (outside mu) and counts the write.
func (s *Server) put(rec *Record) {
	if err := s.store.Put(rec); err == nil {
		s.metrics.checkpointWrites.Add(1)
	}
}

// enqueuePlanLocked queues the frontier-splitting task (mu held).
func (s *Server) enqueuePlanLocked(j *job) {
	id := j.id
	err := s.pool.Go(runner.Job{
		Name: id + "/plan",
		Fn:   func(ctx context.Context) (any, error) { return nil, s.plan(ctx, id) },
	}, func(o runner.Outcome) { s.taskDone(id, o) })
	if err == nil {
		j.inFlight++
	}
}

// plan shards a queued job's decision tree into work units and queues
// their first slices.
func (s *Server) plan(ctx context.Context, id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.state != StateQueued || s.draining {
		s.mu.Unlock()
		return nil
	}
	mk := j.mk
	cfg := j.cfg
	s.mu.Unlock()
	if ctx.Err() != nil {
		return nil
	}
	s.metrics.slices.Add(1)

	cp, err := tso.ShardFrontier(cfg, mk, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxStepsPerRun: s.cfg.MaxStepsPerRun},
		Units:          s.cfg.ShardUnits,
		MaxReorderings: j.spec.MaxReorderings,
		DPOR:           j.spec.DPOR,
	})
	if err != nil {
		return err
	}

	s.mu.Lock()
	base, shards := cp.Shards()
	j.fold.AddBase(base)
	j.state = StateRunning
	for _, shard := range shards {
		uid := j.nextUnit
		j.nextUnit++
		j.outstanding[uid] = shard.Units[0]
		s.enqueueSliceLocked(j, uid)
	}
	j.dirty = true
	rec := s.recordLocked(j)
	s.mu.Unlock()
	// The first durable frontier: a kill before the first ticker write
	// must still resume without re-planning.
	s.put(rec)
	return nil
}

// enqueueSliceLocked queues the next budget slice of one unit (mu held).
func (s *Server) enqueueSliceLocked(j *job, uid int) {
	id := j.id
	err := s.pool.Go(runner.Job{
		Name: fmt.Sprintf("%s/unit-%d", id, uid),
		Fn:   func(ctx context.Context) (any, error) { return nil, s.explore(ctx, id, uid) },
	}, func(o runner.Outcome) { s.taskDone(id, o) })
	if err == nil {
		j.inFlight++
	}
}

// shardCheckpoint builds a zero-progress single-unit checkpoint for a
// slice resume; slices are deep-copied so engine and dispatcher never
// alias.
func shardCheckpoint(cfg tso.Config, model string, reorder int, dpor bool, u tso.UnitCheckpoint) *tso.Checkpoint {
	return &tso.Checkpoint{
		Threads:      cfg.Threads,
		BufferSize:   cfg.BufferSize,
		Model:        model,
		DrainBuffer:  cfg.DrainBuffer,
		Reorder:      reorder,
		DPOR:         dpor,
		Counts:       map[string]int{},
		MaxOccupancy: make([]int, cfg.Threads),
		Units: []tso.UnitCheckpoint{{
			Root:       append([]int(nil), u.Root...),
			RootFanout: append([]int(nil), u.RootFanout...),
			Prefix:     append([]int(nil), u.Prefix...),
			Fanout:     append([]int(nil), u.Fanout...),
			Done:       append([]uint64(nil), u.Done...),
		}},
	}
}

// explore runs one budget slice of one outstanding unit and folds its
// delta. The slice resumes a zero-progress checkpoint, so the engine
// returns a pure delta and the fold stays order-independent; the budget
// is prepaid and the unused remainder refunded, so concurrent slices
// never overrun the job budget.
func (s *Server) explore(ctx context.Context, id string, uid int) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.state != StateRunning || s.draining {
		s.mu.Unlock()
		return nil
	}
	unit, ok := j.outstanding[uid]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	take := s.cfg.SliceRuns
	if take > j.budget {
		take = j.budget
	}
	if take <= 0 {
		// Budget exhausted; taskDone finalizes incomplete once in-flight
		// slices settle.
		s.mu.Unlock()
		return nil
	}
	j.budget -= take
	cp := shardCheckpoint(j.cfg, j.cfg.Model.String(), j.spec.MaxReorderings, j.spec.DPOR, unit)
	mk, out, cfg := j.mk, j.out, j.cfg
	prune := !j.spec.NoPrune && !j.spec.DPOR
	reorder := j.spec.MaxReorderings
	dpor := j.spec.DPOR
	s.mu.Unlock()
	if ctx.Err() != nil {
		s.mu.Lock()
		j.budget += take
		s.mu.Unlock()
		return nil
	}
	s.metrics.slices.Add(1)

	set, res := tso.ExploreExhaustive(cfg, mk, out, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: take, MaxStepsPerRun: s.cfg.MaxStepsPerRun},
		Prune:          prune,
		MaxReorderings: reorder,
		DPOR:           dpor,
		Resume:         cp,
		Interrupt:      s.stopCh,
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	j.fold.Add(set, res)
	j.budget += take - res.Runs
	j.executed += res.Runs
	j.dirty = true
	s.foldMetrics(set, res)
	if res.Complete {
		delete(j.outstanding, uid)
	} else if res.Checkpoint != nil {
		// The engine may split an interrupted unit; the first remainder
		// keeps this unit's ID, extras become new units.
		_, rest := res.Checkpoint.Shards()
		if len(rest) == 0 {
			delete(j.outstanding, uid)
		}
		for i, r := range rest {
			nid := uid
			if i > 0 {
				nid = j.nextUnit
				j.nextUnit++
			}
			j.outstanding[nid] = r.Units[0]
			if i > 0 && !s.draining && j.budget > 0 {
				s.enqueueSliceLocked(j, nid)
			}
		}
	}
	if _, still := j.outstanding[uid]; still && !s.draining && j.budget > 0 {
		s.enqueueSliceLocked(j, uid)
	}
	return nil
}

// foldMetrics accumulates one slice's engine statistics (mu held, cheap
// atomics).
func (s *Server) foldMetrics(set tso.OutcomeSet, res tso.ExploreResult) {
	s.metrics.runsExecuted.Add(int64(res.Runs))
	s.metrics.schedulesAccounted.Add(int64(set.Total()))
	s.metrics.stepLimited.Add(int64(res.StepLimited))
	s.metrics.choicePoints.Add(res.Tree.ChoicePoints)
	s.metrics.pruneSeen.Add(res.Prune.StatesSeen)
	s.metrics.pruneDeduped.Add(res.Prune.StatesDeduped)
	s.metrics.schedulesSaved.Add(res.Prune.SchedulesSaved)
	s.metrics.reorderSkips.Add(res.Prune.ReorderSkips)
	s.metrics.dporRaces.Add(res.Prune.DPORRaces)
	s.metrics.dporBacktracks.Add(res.Prune.DPORBacktracks)
	s.metrics.dporSleepSkips.Add(res.Prune.DPORSleepSkips)
	s.metrics.memoAdmitted.Add(res.Memo.Admitted)
	s.metrics.memoEvicted.Add(res.Memo.Evicted)
	s.metrics.memoContended.Add(res.Memo.Contended)
	if res.Memo.Entries > 0 {
		s.metrics.memoEntries.Store(int64(res.Memo.Entries))
	}
	for o, n := range set.Counts {
		if o != "ok" && o != "<step-limit>" {
			s.metrics.violations.Add(int64(n))
		}
	}
}

// taskDone is every pool task's completion callback: it settles in-flight
// accounting, converts a panicking task into a failed job, and finalizes
// the job once nothing is left to run.
func (s *Server) taskDone(id string, o runner.Outcome) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.inFlight--
	var rec *Record
	var pe *runner.PanicError
	failed := errors.As(o.Err, &pe) || (o.Err != nil && !errors.Is(o.Err, context.Canceled))
	switch {
	case failed && j.state != StateDone && j.state != StateFailed:
		j.state = StateFailed
		j.errMsg = o.Err.Error()
		rec = s.recordLocked(j)
		s.metrics.jobsFailed.Add(1)
		s.metrics.jobsActive.Add(-1)
	case j.state == StateRunning && j.inFlight == 0 && !s.draining &&
		(len(j.outstanding) == 0 || j.budget <= 0):
		rec = s.finalizeLocked(j)
	case j.state == StateRunning && j.inFlight == 0 && !s.draining:
		// Budget came back (a concurrent slice refunded its prepayment
		// after this unit's slice saw none) but the outstanding units
		// have no queued tasks — revive them or the job stalls.
		for uid := range j.outstanding {
			s.enqueueSliceLocked(j, uid)
		}
	}
	s.mu.Unlock()
	if rec != nil {
		s.put(rec)
	}
}

// finalizeLocked seals a job's result from its fold and, for violating
// jobs, queues the witness search (mu held). Returns the record to spool
// when the job reached its terminal state here, nil when the witness
// task will finish it.
func (s *Server) finalizeLocked(j *job) *Record {
	complete := len(j.outstanding) == 0
	set, res := j.fold.Result(complete)
	result := &JobResult{
		Outcomes:     set.Counts,
		Schedules:    set.Total(),
		Executed:     res.Runs,
		StepLimited:  res.StepLimited,
		Complete:     complete,
		MaxOccupancy: set.MaxOccupancy,
		Tree:         res.Tree,
		Prune:        res.Prune,
		Memo:         res.Memo,
	}
	for o, n := range set.Counts {
		if o != "ok" && o != "<step-limit>" {
			result.Violating += n
		}
	}
	j.result = result
	if result.Violating > 0 {
		if s.enqueueWitnessLocked(j) {
			return nil // the witness task completes the job
		}
	}
	j.state = StateDone
	s.metrics.jobsCompleted.Add(1)
	s.metrics.jobsActive.Add(-1)
	return s.recordLocked(j)
}

// enqueueWitnessLocked queues the sequential counterexample search for a
// violating job (mu held). Reports whether the task was accepted.
func (s *Server) enqueueWitnessLocked(j *job) bool {
	id := j.id
	err := s.pool.Go(runner.Job{
		Name: id + "/witness",
		Fn:   func(ctx context.Context) (any, error) { return nil, s.witness(ctx, id) },
	}, func(o runner.Outcome) { s.witnessDone(id, o) })
	if err == nil {
		j.inFlight++
	}
	return err == nil
}

// witness re-explores the job's program sequentially for the first
// violating schedule and attaches it replayably.
func (s *Server) witness(ctx context.Context, id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.result == nil {
		s.mu.Unlock()
		return nil
	}
	prog, check, budget := j.prog, j.check, j.budgetTotal
	s.mu.Unlock()
	if ctx.Err() != nil {
		return nil
	}
	ce := oracle.FindCounterexample(prog.Scenario(), check, oracle.RunOptions{
		MaxSchedules:   budget,
		MaxStepsPerRun: s.cfg.MaxStepsPerRun,
	})
	s.mu.Lock()
	if ce != nil && j.result != nil {
		j.result.Witness = &Witness{Outcome: ce.Outcome, Choices: ce.Choices, Trace: ce.Trace}
	}
	s.mu.Unlock()
	return nil
}

// witnessDone completes a job after its witness search.
func (s *Server) witnessDone(id string, o runner.Outcome) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.inFlight--
	var rec *Record
	if j.state == StateRunning {
		j.state = StateDone
		s.metrics.jobsCompleted.Add(1)
		s.metrics.jobsActive.Add(-1)
		rec = s.recordLocked(j)
	}
	s.mu.Unlock()
	if rec != nil {
		s.put(rec)
	}
}

// ticker periodically spools every dirty running job's frontier.
func (s *Server) ticker() {
	defer close(s.tickDone)
	t := time.NewTicker(time.Duration(s.cfg.CheckpointInterval))
	defer t.Stop()
	for {
		select {
		case <-s.tickStop:
			return
		case <-t.C:
			s.checkpointDirty()
		}
	}
}

// checkpointDirty spools every running job whose state moved since its
// last write.
func (s *Server) checkpointDirty() {
	s.mu.Lock()
	var recs []*Record
	for _, j := range s.jobs {
		if j.dirty && (j.state == StateRunning || j.state == StateQueued) {
			recs = append(recs, s.recordLocked(j))
			j.dirty = false
		}
	}
	s.mu.Unlock()
	for _, rec := range recs {
		s.put(rec)
	}
}

// resume reloads the spool at startup: terminal jobs become queryable
// history, unfinished ones are re-admitted — from their checkpoint when
// one was spooled (no schedule is re-counted: the checkpoint's units
// stand at slice boundaries), from scratch otherwise.
func (s *Server) resume() error {
	recs, err := s.store.List()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		var n int
		if _, err := fmt.Sscanf(rec.ID, "job-%06d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		if rec.State == StateDone || rec.State == StateFailed {
			j := &job{id: rec.ID, spec: rec.Spec, state: rec.State, errMsg: rec.Error, result: rec.Result}
			if rec.Result != nil {
				j.executed = rec.Result.Executed
			}
			s.jobs[rec.ID] = j
			s.order = append(s.order, rec.ID)
			continue
		}
		j, err := s.newJob(rec.ID, rec.Spec)
		if err != nil {
			return fmt.Errorf("serve: resuming %s: %w", rec.ID, err)
		}
		j.budget = rec.Budget
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		s.metrics.jobsResumed.Add(1)
		s.metrics.jobsActive.Add(1)
		if rec.Checkpoint == nil {
			s.enqueuePlanLocked(j)
			continue
		}
		if err := rec.Checkpoint.CompatibleWithOptions(j.cfg, tso.ExhaustiveOptions{
			MaxReorderings: j.spec.MaxReorderings,
			DPOR:           j.spec.DPOR,
		}); err != nil {
			return fmt.Errorf("serve: resuming %s: %w", rec.ID, err)
		}
		base, shards := rec.Checkpoint.Shards()
		j.fold.AddBase(base)
		j.executed = base.Runs
		j.state = StateRunning
		for _, shard := range shards {
			uid := j.nextUnit
			j.nextUnit++
			j.outstanding[uid] = shard.Units[0]
			s.enqueueSliceLocked(j, uid)
		}
		if len(shards) == 0 && j.inFlight == 0 {
			// Everything was folded before the shutdown; finish the job.
			rec2 := s.finalizeLocked(j)
			if rec2 != nil {
				go s.put(rec2)
			}
		}
	}
	return nil
}

// Drain gracefully stops the server: intake closes, in-flight slices
// stop at their next run boundary (the same mechanism a run budget
// uses), the pool drains, and every unfinished job's frontier is spooled
// so a restart resumes it. Every call returns only once the drain is
// complete, whichever call ran it; the HTTP layer keeps answering reads
// during and after.
func (s *Server) Drain() { s.drainOnce.Do(s.drain) }

func (s *Server) drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.tickOnce.Do(func() { close(s.tickStop) })
	<-s.tickDone
	s.pool.Close(true)
	s.mu.Lock()
	var recs []*Record
	for _, j := range s.jobs {
		if j.state == StateRunning || j.state == StateQueued {
			recs = append(recs, s.recordLocked(j))
			j.dirty = false
		}
	}
	s.mu.Unlock()
	for _, rec := range recs {
		s.put(rec)
	}
}

// Kill hard-stops the server without spooling anything beyond what the
// ticker already wrote — the test harness's SIGKILL: the store is sealed
// first, so the on-disk state is exactly what a real kill would leave.
func (s *Server) Kill() {
	s.store.Seal()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.tickOnce.Do(func() { close(s.tickStop) })
	<-s.tickDone
	s.pool.Close(false)
}
