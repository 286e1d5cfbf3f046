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
	// stopCh is closed on Drain/Kill: it is every exploration's Interrupt
	// and stops the ticker.
	stopCh   chan struct{}
	tickDone chan struct{}
	// drainOnce makes Drain run once; a concurrent second call blocks
	// until the first has spooled every frontier.
	drainOnce sync.Once
}

// job is the in-memory state of one verification job.
type job struct {
	id    string
	spec  JobSpec
	check oracle.Spec
	// sc builds the job's program. The plan and every slice derive their
	// own Scenario.Outcomes pair: a pair's history map keeps every
	// machine it saw, so a pair held by the job would keep them all for
	// the job's lifetime.
	sc oracle.Scenario

	state       JobState
	errMsg      string
	fold        *tso.Fold
	outstanding map[int]*tso.Checkpoint // single-unit shards (Checkpoint.Shards)
	nextUnit    int
	budget      int // remaining executed-schedule budget (prepaid per slice)
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
	budget := spec.MaxSchedules
	if budget == 0 || budget > s.cfg.MaxJobRuns {
		budget = s.cfg.MaxJobRuns
	}
	return &job{
		id:          id,
		spec:        spec,
		check:       check,
		sc:          sc,
		state:       StateQueued,
		fold:        tso.NewFold(sc.Config.Threads),
		outstanding: map[int]*tso.Checkpoint{},
		budget:      budget,
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

// statusLocked snapshots a job (mu held). The result is shared: nothing
// mutates it once finalize has sealed it.
func (s *Server) statusLocked(j *job) JobStatus {
	return JobStatus{
		ID:               j.id,
		State:            j.state,
		Spec:             j.spec,
		Executed:         j.executed,
		OutstandingUnits: len(j.outstanding),
		Error:            j.errMsg,
		Result:           j.result,
	}
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
		Result: j.result,
	}
	if j.state == StateRunning {
		units := make([]tso.UnitCheckpoint, 0, len(j.outstanding))
		ids := make([]int, 0, len(j.outstanding))
		for id := range j.outstanding {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			units = append(units, j.outstanding[id].Units[0])
		}
		cp, err := j.fold.Checkpoint(j.sc.Config, units)
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
	sc, check := j.sc, j.check
	s.mu.Unlock()
	if ctx.Err() != nil {
		return nil
	}
	s.metrics.slices.Add(1)

	mk, _ := sc.Outcomes(check)
	cp, err := tso.ShardFrontier(sc.Config, mk, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxStepsPerRun: s.cfg.MaxStepsPerRun},
		Units:          s.cfg.ShardUnits,
		MaxReorderings: j.spec.MaxReorderings,
		DPOR:           j.spec.DPOR,
	})
	if err != nil {
		return err
	}

	s.mu.Lock()
	s.startLocked(j, cp) // never finalizes: this plan task is in flight
	j.dirty = true
	rec := s.recordLocked(j)
	s.mu.Unlock()
	// The first durable frontier: a kill before the first ticker write
	// must still resume without re-planning.
	s.put(rec)
	return nil
}

// startLocked adopts a checkpoint as a job's frontier — the planned one,
// or a spooled one at restart: its accumulated progress seeds the fold
// and each unexplored unit becomes an outstanding single-unit shard with
// a queued slice. A checkpoint with nothing left to explore finalizes
// the job at once; the returned record is then the one to spool, nil
// otherwise (mu held).
func (s *Server) startLocked(j *job, cp *tso.Checkpoint) *Record {
	base, shards := cp.Shards()
	j.fold.AddBase(base)
	j.executed = base.Runs
	j.state = StateRunning
	for _, shard := range shards {
		uid := j.nextUnit
		j.nextUnit++
		j.outstanding[uid] = shard
		s.enqueueSliceLocked(j, uid)
	}
	if len(shards) == 0 && j.inFlight == 0 {
		return s.finalizeLocked(j)
	}
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
	cp, ok := j.outstanding[uid]
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
	sc, check := j.sc, j.check
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

	mk, out := sc.Outcomes(check)
	set, res := tso.ExploreExhaustive(sc.Config, mk, out, tso.ExhaustiveOptions{
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
		return nil
	}
	// A slice resumes one unit and the engine reports only the units it
	// resumed that are still open, so the remainder is exactly one unit.
	_, rest := res.Checkpoint.Shards()
	j.outstanding[uid] = rest[0]
	if !s.draining && j.budget > 0 {
		s.enqueueSliceLocked(j, uid)
	}
	return nil
}

// foldMetrics folds one slice's engine statistics into the server-wide
// totals.
func (s *Server) foldMetrics(set tso.OutcomeSet, res tso.ExploreResult) {
	s.metrics.explored.Add(set, res)
	if res.Memo.Entries > 0 {
		s.metrics.memoEntries.Store(int64(res.Memo.Entries))
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

// finalizeLocked seals a job's result from its fold, with the smallest
// violating witness its slices executed replayed once for its trace, and
// moves the job to the done state. Returns the record to spool (mu held).
func (s *Server) finalizeLocked(j *job) *Record {
	complete := len(j.outstanding) == 0
	set, res := j.fold.Result(complete)
	j.result = &JobResult{
		Outcomes:     set.Counts,
		Schedules:    set.Total(),
		Executed:     res.Runs,
		StepLimited:  res.StepLimited,
		Complete:     complete,
		MaxOccupancy: set.MaxOccupancy,
		Tree:         res.Tree,
		Prune:        res.Prune,
		Memo:         res.Memo,
		Violating:    violating(set.Counts),
	}
	if ce := oracle.WitnessCounterexample(j.sc, j.check, res, s.cfg.MaxStepsPerRun); ce != nil {
		j.result.Witness = &Witness{Outcome: ce.Outcome, Choices: ce.Choices, Trace: ce.Trace}
	}
	j.state = StateDone
	s.metrics.jobsCompleted.Add(1)
	s.metrics.jobsActive.Add(-1)
	return s.recordLocked(j)
}

// ticker periodically spools every dirty running job's frontier.
func (s *Server) ticker() {
	defer close(s.tickDone)
	t := time.NewTicker(time.Duration(s.cfg.CheckpointInterval))
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.spoolUnfinished(true)
		}
	}
}

// spoolUnfinished spools every queued or running job — with onlyDirty,
// only those whose state moved since their last write.
func (s *Server) spoolUnfinished(onlyDirty bool) {
	s.mu.Lock()
	var recs []*Record
	for _, j := range s.jobs {
		if (j.dirty || !onlyDirty) && (j.state == StateRunning || j.state == StateQueued) {
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
		if err := rec.Checkpoint.CompatibleWithOptions(j.sc.Config, tso.ExhaustiveOptions{
			MaxReorderings: j.spec.MaxReorderings,
			DPOR:           j.spec.DPOR,
		}); err != nil {
			return fmt.Errorf("serve: resuming %s: %w", rec.ID, err)
		}
		if rec2 := s.startLocked(j, rec.Checkpoint); rec2 != nil {
			// Everything was folded before the shutdown; the job is done.
			go s.put(rec2)
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
	s.stop(true)
	s.spoolUnfinished(false)
}

// Kill hard-stops the server without spooling anything beyond what the
// ticker already wrote — the test harness's SIGKILL: the store is sealed
// first, so the on-disk state is exactly what a real kill would leave.
func (s *Server) Kill() {
	s.store.Seal()
	s.stop(false)
}

// stop closes intake, interrupts in-flight slices at their next run
// boundary, stops the ticker, and closes the pool: with runQueued its
// queued tasks still run (and, seeing the drain, return at once),
// otherwise they are cancelled.
func (s *Server) stop(runQueued bool) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	<-s.tickDone
	s.pool.Close(runQueued)
}
