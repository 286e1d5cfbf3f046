package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/tso"
)

// Metrics is the service's Prometheus-style counter set. All fields are
// monotonic counters except where noted; WritePrometheus renders them in
// the text exposition format. Exploration counters come from one
// server-wide tso.Fold that every slice's delta is added to — the same
// merge that folds each job's own result, where a slice is one resumed
// exploration of a job's whole open frontier — so they agree exactly
// with job results.
type Metrics struct {
	start time.Time

	// jobsSubmitted counts accepted submissions.
	jobsSubmitted atomic.Int64
	// jobsRejected counts submissions refused at intake (validation,
	// queue full, draining).
	jobsRejected atomic.Int64
	// jobsCompleted counts jobs that reached the done state.
	jobsCompleted atomic.Int64
	// jobsFailed counts jobs that reached the failed state.
	jobsFailed atomic.Int64
	// jobsResumed counts jobs recovered from the spool at startup.
	jobsResumed atomic.Int64
	// jobsActive is the current number of queued or running jobs (gauge).
	jobsActive atomic.Int64

	// explored folds every explore slice's outcome set and statistics:
	// executed and accounted schedules, verdicts, tree, prune, DPOR and
	// memo counters. Plan probes and resumed checkpoints' bases are not
	// added, so it counts only work this process executed. It is built
	// for zero threads: jobs differ in shape and /metrics reports no
	// occupancy.
	explored *tso.Fold
	// memoEntries and memoBytes are the entries resident in the memo
	// table of the job whose slice was folded last and the bytes that
	// table holds (gauges; a job's slices continue one table, so these
	// are that job's residency so far).
	memoEntries atomic.Int64
	memoBytes   atomic.Int64

	// slices counts pool tasks executed (plan and explore).
	slices atomic.Int64
	// checkpointWrites counts durable spool writes.
	checkpointWrites atomic.Int64
}

// NewMetrics returns a metrics set anchored at now (for the uptime and
// throughput gauges).
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), explored: tso.NewFold(0)}
}

// WritePrometheus renders every metric in the Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	uptime := time.Since(m.start).Seconds()
	set, res := m.explored.Result(false)
	var perSec float64
	if uptime > 0 {
		perSec = float64(res.Runs) / uptime
	}
	var hitRate float64
	if res.Prune.StatesSeen > 0 {
		hitRate = float64(res.Prune.StatesDeduped) / float64(res.Prune.StatesSeen)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("tsoserve_jobs_submitted_total", "Jobs accepted at intake.", m.jobsSubmitted.Load())
	counter("tsoserve_jobs_rejected_total", "Submissions refused (validation, queue full, draining).", m.jobsRejected.Load())
	counter("tsoserve_jobs_completed_total", "Jobs finished with a result.", m.jobsCompleted.Load())
	counter("tsoserve_jobs_failed_total", "Jobs that errored.", m.jobsFailed.Load())
	counter("tsoserve_jobs_resumed_total", "Jobs recovered from the spool at startup.", m.jobsResumed.Load())
	gauge("tsoserve_jobs_active", "Queued or running jobs right now.", float64(m.jobsActive.Load()))
	counter("tsoserve_runs_executed_total", "Schedules executed on a machine.", int64(res.Runs))
	counter("tsoserve_schedules_accounted_total", "Schedules accounted for, including memoized credits.", int64(set.Total()))
	counter("tsoserve_step_limited_total", "Schedules that hit the per-run step bound.", int64(res.StepLimited))
	counter("tsoserve_violations_total", "Accounted schedules with violating verdicts.", int64(violating(set.Counts)))
	counter("tsoserve_tree_choice_points_total", "Decision-tree nodes with fanout >= 2 explored.", res.Tree.ChoicePoints)
	counter("tsoserve_prune_states_seen_total", "Canonical states hashed by the memoizer.", res.Prune.StatesSeen)
	counter("tsoserve_prune_states_deduped_total", "Canonical states found already memoized.", res.Prune.StatesDeduped)
	counter("tsoserve_prune_schedules_saved_total", "Schedules credited from the memo table without execution.", res.Prune.SchedulesSaved)
	gauge("tsoserve_prune_hit_rate", "StatesDeduped / StatesSeen over the process lifetime.", hitRate)
	counter("tsoserve_reorder_skips_total", "Subtrees cut by jobs' reorder bounds.", res.Prune.ReorderSkips)
	counter("tsoserve_dpor_races_detected_total", "Reversible races DPOR detected on executed runs.", res.Prune.DPORRaces)
	counter("tsoserve_dpor_backtracks_total", "Branches DPOR race handling added to backtrack sets.", res.Prune.DPORBacktracks)
	counter("tsoserve_dpor_sleep_skips_total", "Branches skipped by DPOR dependence-derived sleep sets.", res.Prune.DPORSleepSkips)
	gauge("tsoserve_memo_entries", "Memo-arena entries resident in the table of the job whose slice finished last.", float64(m.memoEntries.Load()))
	gauge("tsoserve_memo_bytes", "Bytes held by the memo arena of the job whose slice finished last.", float64(m.memoBytes.Load()))
	counter("tsoserve_memo_admitted_total", "Memo-arena entries admitted across all slices.", res.Memo.Admitted)
	counter("tsoserve_memo_evicted_total", "Memo-arena entries evicted by the per-stripe FIFO clock.", res.Memo.Evicted)
	counter("tsoserve_memo_stripe_contention_total", "Memo stripe-lock acquisitions that found the lock held.", res.Memo.Contended)
	counter("tsoserve_slices_total", "Pool tasks executed (plan + explore slices).", m.slices.Load())
	counter("tsoserve_checkpoint_writes_total", "Durable spool writes.", m.checkpointWrites.Load())
	gauge("tsoserve_runs_per_second", "Executed schedules per second of uptime.", perSec)
	gauge("tsoserve_uptime_seconds", "Seconds since the server started.", uptime)
}
