package serve

import (
	"context"
	"errors"
	"fmt"
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

// Server is the verification service engine: job intake, the slice
// dispatcher over a bounded worker pool, the deterministic fold of slice
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

// job is the in-memory state of one verification job. A job has at most
// one pool task queued or running — its plan, then one slice at a time —
// and the completion of each queues the next (taskDone).
type job struct {
	id    string
	spec  JobSpec
	check oracle.Spec
	// sc builds the job's program. The plan and every slice derive their
	// own Scenario.Outcomes pair: a pair's history map keeps every
	// machine it saw, so a pair held by the job would keep them all for
	// the job's lifetime.
	sc oracle.Scenario

	state  JobState
	errMsg string
	fold   *tso.Fold
	// frontier is the zero-progress checkpoint of every open work unit
	// (Checkpoint.Frontier); the fold holds the progress. Set once the
	// job is running.
	frontier *tso.Checkpoint
	budget   int // remaining executed-schedule budget
	executed int
	// memoEntries and memoBytes are the residency of the memo table the
	// job's slices continue: the sums of what each slice added (its
	// Memo.Entries and Memo.Bytes).
	memoEntries int
	memoBytes   int64
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
		id:     id,
		spec:   spec,
		check:  check,
		sc:     sc,
		state:  StateQueued,
		fold:   tso.NewFold(sc.Config.Threads),
		budget: budget,
	}, nil
}

// Submit validates and admits a job, persists its intake record, and
// queues the planning task that splits its frontier. The returned status
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
	s.enqueueLocked(j, "plan", s.plan)
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
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		Spec:     j.spec,
		Executed: j.executed,
		Error:    j.errMsg,
		Result:   j.result,
	}
	if j.frontier != nil {
		st.OutstandingUnits = len(j.frontier.Units)
	}
	return st
}

// recordLocked builds a job's durable record, including — for running
// jobs — the crash-consistent checkpoint: folded counts plus every open
// unit at the last slice boundary (mu held).
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
		cp, err := j.fold.Checkpoint(j.sc.Config, j.frontier.Units)
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

// enqueueLocked queues one pool task of a job — its plan or its next
// slice — whose completion is taskDone (mu held). The pool refuses it
// only once closed, and it closes only after draining is set: the job
// then keeps its frontier for the spool.
func (s *Server) enqueueLocked(j *job, name string, fn func(ctx context.Context, id string) error) {
	id := j.id
	_ = s.pool.Go(runner.Job{
		Name: id + "/" + name,
		Fn:   func(ctx context.Context) (any, error) { return nil, fn(ctx, id) },
	}, func(o runner.Outcome) { s.taskDone(id, o) })
}

// plan splits a queued job's decision tree into work units; its
// completion queues the first slice.
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
	s.startLocked(j, cp)
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
// and its open units become the frontier the job's slices resume (mu
// held). The caller then advances the job: the plan through its
// completion, a restart directly.
func (s *Server) startLocked(j *job, cp *tso.Checkpoint) {
	j.fold.AddBase(cp)
	j.executed = cp.Runs
	j.frontier = cp.Frontier()
	j.state = StateRunning
}

// advanceLocked queues a running job's next slice, or finalizes it once
// no unit is open or its budget is spent; the returned record is then
// the one to spool, nil otherwise (mu held).
func (s *Server) advanceLocked(j *job) *Record {
	if len(j.frontier.Units) == 0 || j.budget <= 0 {
		return s.finalizeLocked(j)
	}
	s.enqueueLocked(j, "slice", s.explore)
	return nil
}

// explore runs one budget slice of a job: one sequential exploration
// that resumes the job's whole zero-progress frontier and the memo table
// the previous slice left on it, so the job's slices dedup as one
// exploration does, and the engine returns a pure delta, which is folded
// into the job and into /metrics. The slice's open units, then the ones
// it did not resume, become the job's frontier.
//
// A DPOR job's slice resumes only its first open unit. DPOR has no memo
// table to share, and a unit resumed mid-walk re-derives its backtracking
// by exploring every open branch on its path, so a budget cut belongs
// inside a unit only when the unit alone outgrows a slice.
func (s *Server) explore(_ context.Context, id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.state != StateRunning || s.draining {
		s.mu.Unlock()
		return nil
	}
	take := min(s.cfg.SliceRuns, j.budget)
	sc, check, spec := j.sc, j.check, j.spec
	frontier := *j.frontier
	if spec.DPOR {
		frontier.Units = frontier.Units[:1]
	}
	s.mu.Unlock()
	s.metrics.slices.Add(1)

	mk, out := sc.Outcomes(check)
	set, res := tso.ExploreExhaustive(sc.Config, mk, out, tso.ExhaustiveOptions{
		ExploreOptions: tso.ExploreOptions{MaxRuns: take, MaxStepsPerRun: s.cfg.MaxStepsPerRun},
		Prune:          !spec.NoPrune && !spec.DPOR,
		MaxReorderings: spec.MaxReorderings,
		DPOR:           spec.DPOR,
		Resume:         &frontier,
		Interrupt:      s.stopCh,
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	j.fold.Add(set, res)
	j.budget -= res.Runs
	j.executed += res.Runs
	j.dirty = true
	s.metrics.explored.Add(set, res)
	if res.Memo.Stripes > 0 {
		j.memoEntries += res.Memo.Entries
		j.memoBytes += res.Memo.Bytes
		s.metrics.memoEntries.Store(int64(j.memoEntries))
		s.metrics.memoBytes.Store(j.memoBytes)
	}
	rest := j.frontier.Units[len(frontier.Units):]
	if res.Complete {
		j.frontier.Units = rest
	} else {
		j.frontier = res.Checkpoint.Frontier()
		j.frontier.Units = append(j.frontier.Units, rest...)
	}
	return nil
}

// taskDone is every pool task's completion callback: it converts a
// panicking task into a failed job, and otherwise advances a running job
// to its next slice or its result.
func (s *Server) taskDone(id string, o runner.Outcome) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
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
	case j.state == StateRunning && !s.draining:
		rec = s.advanceLocked(j)
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
	complete := len(j.frontier.Units) == 0
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
	// A done job keeps its open units for its status, not the memo
	// table its frontier carried between slices.
	j.frontier = &tso.Checkpoint{Units: j.frontier.Units}
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
			s.enqueueLocked(j, "plan", s.plan)
			continue
		}
		if err := rec.Checkpoint.CompatibleWithOptions(j.sc.Config, tso.ExhaustiveOptions{
			MaxReorderings: j.spec.MaxReorderings,
			DPOR:           j.spec.DPOR,
		}); err != nil {
			return fmt.Errorf("serve: resuming %s: %w", rec.ID, err)
		}
		s.startLocked(j, rec.Checkpoint)
		if rec2 := s.advanceLocked(j); rec2 != nil {
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
