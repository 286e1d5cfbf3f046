package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/tso"
)

// Record is a job's durable spool form: the submitted spec, the
// lifecycle state, the remaining schedule budget, and — while running —
// the frontier checkpoint (folded counts plus the unexplored units at
// their last slice boundary) that a restarted server resumes from.
type Record struct {
	// ID is the job identifier (also the spool file name).
	ID string `json:"id"`
	// Spec is the submitted job.
	Spec JobSpec `json:"spec"`
	// State is the lifecycle position at the last write.
	State JobState `json:"state"`
	// Budget is the remaining executed-schedule budget.
	Budget int `json:"budget"`
	// Error describes a failed job.
	Error string `json:"error,omitempty"`
	// Result is the final summary, present once State is done.
	Result *JobResult `json:"result,omitempty"`
	// Checkpoint is the resumable frontier of a queued or running job.
	// Its counts and units are crash-consistent: units are recorded at
	// slice-start positions, so re-exploring them after a crash never
	// double-counts a schedule.
	Checkpoint *tso.Checkpoint `json:"checkpoint,omitempty"`
}

// recordWire is the spool file schema. The record envelope stays JSON (it
// is small and operators grep it), while the checkpoint — the bulk of a
// running job's record — travels as a base64 blob in the tso.BinaryCodec
// wire format.
type recordWire struct {
	ID            string     `json:"id"`
	Spec          JobSpec    `json:"spec"`
	State         JobState   `json:"state"`
	Budget        int        `json:"budget"`
	Error         string     `json:"error,omitempty"`
	Result        *JobResult `json:"result,omitempty"`
	CheckpointBin []byte     `json:"checkpoint_bin,omitempty"`
}

// Store is the spool directory: one JSON file per job, written
// atomically (temp file + rename), so a crash never leaves a torn
// record. Seal stops all writes — the test harness's stand-in for
// SIGKILL, freezing the on-disk state at a chosen instant.
type Store struct {
	dir    string
	mu     sync.Mutex
	sealed bool
	writes int
}

// OpenStore opens (creating if needed) the spool directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening spool: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the spool directory path.
func (s *Store) Dir() string { return s.dir }

// path is the record file for a job ID.
func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// Put durably writes the record, replacing any previous version. After
// Seal it silently does nothing: a killed process writes nothing either.
func (s *Store) Put(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	wire := recordWire{
		ID:     rec.ID,
		Spec:   rec.Spec,
		State:  rec.State,
		Budget: rec.Budget,
		Error:  rec.Error,
		Result: rec.Result,
	}
	if rec.Checkpoint != nil {
		if err := rec.Checkpoint.Validate(); err != nil {
			return fmt.Errorf("serve: refusing to spool job %s: %w", rec.ID, err)
		}
		var buf bytes.Buffer
		if err := (tso.BinaryCodec{}).EncodeCheckpoint(&buf, rec.Checkpoint); err != nil {
			return fmt.Errorf("serve: encoding job %s checkpoint: %w", rec.ID, err)
		}
		wire.CheckpointBin = buf.Bytes()
	}
	data, err := json.MarshalIndent(&wire, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding job %s: %w", rec.ID, err)
	}
	tmp := s.path(rec.ID) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("serve: spooling job %s: %w", rec.ID, err)
	}
	if err := os.Rename(tmp, s.path(rec.ID)); err != nil {
		return fmt.Errorf("serve: spooling job %s: %w", rec.ID, err)
	}
	s.writes++
	return nil
}

// Get reads one job's record from disk. Unknown fields are errors: a
// record from a build whose schema differs (say, one embedding the
// checkpoint as JSON) must fail loudly rather than decode with its
// checkpoint silently dropped — resuming such a job from scratch under
// its already-spent budget would fold wrong counts.
func (s *Store) Get(id string) (*Record, error) {
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wire recordWire
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("serve: decoding job %s: %w", id, err)
	}
	if len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		return nil, fmt.Errorf("serve: decoding job %s: data after the record", id)
	}
	rec := Record{
		ID:     wire.ID,
		Spec:   wire.Spec,
		State:  wire.State,
		Budget: wire.Budget,
		Error:  wire.Error,
		Result: wire.Result,
	}
	if len(wire.CheckpointBin) > 0 {
		cp, err := (tso.BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(wire.CheckpointBin))
		if err != nil {
			return nil, fmt.Errorf("serve: job %s spooled checkpoint: %w", id, err)
		}
		rec.Checkpoint = cp
	}
	return &rec, nil
}

// List reads every record in the spool, sorted by ID — the restart
// recovery scan. Torn or foreign files fail the whole scan rather than
// being skipped: a spool the server cannot fully parse needs operator
// eyes, not silent data loss.
func (s *Store) List() ([]*Record, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var recs []*Record
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		rec, err := s.Get(strings.TrimSuffix(name, ".json"))
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}

// Seal stops all subsequent writes, freezing the spool's on-disk state.
// Used by tests to simulate SIGKILL at a precise instant.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
}

// Writes reports the number of records durably written so far (a test
// and metrics hook).
func (s *Store) Writes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}
