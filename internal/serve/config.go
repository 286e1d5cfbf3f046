// Package serve is the always-on verification service: an HTTP daemon
// that accepts deque workloads (oracle programs) as jobs, model-checks
// them by sharding each job's schedule frontier across a bounded worker
// pool, and folds the shard deltas with the engine's deterministic merge
// — so a job's outcome counts are byte-identical to a direct in-process
// tso.Explore/oracle.Run of the same program. Progress is checkpointed
// periodically to a spool directory in the frontier wire format
// (tso.Checkpoint), so a killed or drained server resumes its jobs on
// restart and still lands on the same final counts.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Configuration error taxonomy. Each sentinel names one rejected field so
// callers classify failures with errors.Is; the wrapped message carries
// the offending value.
var (
	// ErrBadWorkers rejects a negative worker count (zero selects
	// GOMAXPROCS).
	ErrBadWorkers = errors.New("serve: workers must be >= 0")
	// ErrBadQueueDepth rejects a negative admission bound (zero selects
	// the default).
	ErrBadQueueDepth = errors.New("serve: queue depth must be >= 0")
	// ErrBadShardUnits rejects a negative shard target (zero selects the
	// default).
	ErrBadShardUnits = errors.New("serve: shard units must be >= 0")
	// ErrBadSliceRuns rejects a negative slice budget (zero selects the
	// default).
	ErrBadSliceRuns = errors.New("serve: slice runs must be >= 0")
	// ErrBadJobRuns rejects a negative default job budget (zero selects
	// the default).
	ErrBadJobRuns = errors.New("serve: max job runs must be >= 0")
	// ErrBadStepLimit rejects a negative per-run step bound (zero selects
	// the default).
	ErrBadStepLimit = errors.New("serve: max steps per run must be >= 0")
	// ErrBadInterval rejects a negative checkpoint interval (zero selects
	// the default).
	ErrBadInterval = errors.New("serve: checkpoint interval must be >= 0")
	// ErrBadSpoolDir rejects a spool path that exists but is not a
	// directory.
	ErrBadSpoolDir = errors.New("serve: spool path is not a directory")
)

// Duration is a time.Duration that marshals to and from JSON as a Go
// duration string ("5s", "1m30s"), so config files stay readable.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a bare number of
// nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// Config is the service configuration. The zero value is valid: every
// field has a working default (see withDefaults), so `tsoserve` runs
// with no config file at all.
type Config struct {
	// ListenAddr is the HTTP listen address (default ":8321").
	ListenAddr string `json:"listen_addr,omitempty"`
	// SpoolDir is where job records and frontier checkpoints persist
	// (default "tsoserve-spool", created on open).
	SpoolDir string `json:"spool_dir,omitempty"`
	// Workers sizes the exploration pool (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// QueueDepth bounds the unfinished jobs admitted at once; further
	// submissions are rejected with 429 (default 64). Admission is
	// bounded here, at intake, because the internal shard queue must stay
	// unbounded (completions re-enqueue follow-up slices).
	QueueDepth int `json:"queue_depth,omitempty"`
	// ShardUnits is the target number of frontier work units each job is
	// split into (default 4× workers).
	ShardUnits int `json:"shard_units,omitempty"`
	// SliceRuns is the schedule budget of one pool task; smaller slices
	// checkpoint and interleave jobs more finely, larger ones amortize
	// dispatch (default 4096).
	SliceRuns int `json:"slice_runs,omitempty"`
	// MaxJobRuns caps any job's executed-schedule budget and is the
	// default for jobs that do not set one (default 1<<20).
	MaxJobRuns int `json:"max_job_runs,omitempty"`
	// MaxStepsPerRun bounds each schedule; step-limited runs are bucketed
	// under "<step-limit>" (default 100000).
	MaxStepsPerRun int64 `json:"max_steps_per_run,omitempty"`
	// CheckpointInterval is how often running jobs' frontiers are spooled
	// (default 5s).
	CheckpointInterval Duration `json:"checkpoint_interval,omitempty"`
}

// DefaultConfig returns the configuration `tsoserve` runs with when no
// file is given — the zero Config with its defaults applied.
func DefaultConfig() Config {
	c, err := Config{}.withDefaults()
	if err != nil {
		panic(err) // the zero config always validates
	}
	return c
}

// Validate checks the configuration without applying defaults and
// returns the first violation, classified by the package's error
// taxonomy. The zero value of every field is valid (it selects the
// default); only explicitly out-of-range values are rejected.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("%w: got %d", ErrBadWorkers, c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("%w: got %d", ErrBadQueueDepth, c.QueueDepth)
	}
	if c.ShardUnits < 0 {
		return fmt.Errorf("%w: got %d", ErrBadShardUnits, c.ShardUnits)
	}
	if c.SliceRuns < 0 {
		return fmt.Errorf("%w: got %d", ErrBadSliceRuns, c.SliceRuns)
	}
	if c.MaxJobRuns < 0 {
		return fmt.Errorf("%w: got %d", ErrBadJobRuns, c.MaxJobRuns)
	}
	if c.MaxStepsPerRun < 0 {
		return fmt.Errorf("%w: got %d", ErrBadStepLimit, c.MaxStepsPerRun)
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("%w: got %s", ErrBadInterval, time.Duration(c.CheckpointInterval))
	}
	if c.SpoolDir != "" {
		if fi, err := os.Stat(c.SpoolDir); err == nil && !fi.IsDir() {
			return fmt.Errorf("%w: %s", ErrBadSpoolDir, c.SpoolDir)
		}
	}
	return nil
}

// withDefaults validates the configuration and fills the zero fields.
func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.ListenAddr == "" {
		c.ListenAddr = ":8321"
	}
	if c.SpoolDir == "" {
		c.SpoolDir = "tsoserve-spool"
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.ShardUnits == 0 {
		c.ShardUnits = 4 * c.Workers
	}
	if c.SliceRuns == 0 {
		c.SliceRuns = 4096
	}
	if c.MaxJobRuns == 0 {
		c.MaxJobRuns = 1 << 20
	}
	if c.MaxStepsPerRun == 0 {
		c.MaxStepsPerRun = 100_000
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = Duration(5 * time.Second)
	}
	return c, nil
}

// LoadConfig reads a JSON config file strictly: unknown fields are
// errors (they are invariably typos), and the decoded configuration must
// validate.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("serve: config %s: %w", path, err)
	}
	// A second document in the file is as much a mistake as an unknown
	// field.
	if dec.More() {
		return Config{}, fmt.Errorf("serve: config %s: trailing data", path)
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("serve: config %s: %w", path, err)
	}
	return c, nil
}

// String renders the effective (defaulted) configuration as indented
// JSON — the `tsoserve -print-config` output.
func (c Config) String() string {
	eff, err := c.withDefaults()
	if err != nil {
		return fmt.Sprintf("invalid config: %v", err)
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(eff); err != nil {
		return err.Error()
	}
	return strings.TrimSuffix(b.String(), "\n")
}
