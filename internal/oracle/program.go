package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/tso"
)

// Program is a small declarative deque workload — the unit the fuzzing
// harness generates and the corpus files store. One worker thread runs
// WorkerOps against the queue (optionally draining it at the end); each
// entry of Thieves adds a thief thread making that many steal attempts.
// Tasks are numbered 1..Prefill for the prefilled ones and onward for the
// worker's puts, so every task value is unique and multiset accounting in
// the specs is exact.
type Program struct {
	// Algo selects the queue implementation.
	Algo core.Algo `json:"algo"`
	// S is the machine's store-buffer size.
	S int `json:"s"`
	// Stage enables the §7.3 post-retirement drain stage (bound S+1).
	Stage bool `json:"stage"`
	// Delta is the δ parameter for the fence-free variants (ignored by
	// the algorithms that do not use it).
	Delta int `json:"delta"`
	// Capacity is the queue capacity (default 64).
	Capacity int `json:"capacity,omitempty"`
	// Prefill installs tasks 1..Prefill before the run.
	Prefill int `json:"prefill"`
	// WorkerOps is the owner's script: 'P' puts the next task, 'T' takes.
	WorkerOps string `json:"worker_ops"`
	// Thieves holds one steal-attempt budget per thief thread. A thief
	// stops early when a steal reports Empty (Abort may be transient, so
	// it does not stop the loop).
	Thieves []int `json:"thieves"`
	// Drain makes the worker end with a take-until-Empty loop and marks
	// the history ExpectDrained, arming the specs' loss detection.
	Drain bool `json:"drain"`
}

// Config returns the machine configuration the program runs under.
func (p Program) Config() tso.Config {
	return tso.Config{Threads: 1 + len(p.Thieves), BufferSize: p.S, DrainBuffer: p.Stage}
}

// String renders the program compactly for reports.
func (p Program) String() string {
	return fmt.Sprintf("%s S=%d stage=%v delta=%d pre=%d ops=%s thieves=%v drain=%v",
		p.Algo, p.S, p.Stage, p.Delta, p.Prefill, p.WorkerOps, p.Thieves, p.Drain)
}

// Spec returns the specification the program's algorithm must meet.
// For WS-MULT the generic SpecFor answer (Idempotent) is tightened to
// the algorithm's actual claim: per-task multiplicity bounded by the
// number of extracting threads, which the program shape fixes as the
// worker plus its thieves. The relaxed variant keeps the unbounded
// Idempotent contract — its whole point is that no such bound exists.
func (p Program) Spec() Spec {
	if p.Algo == core.AlgoWSMult {
		return Multiplicity{K: 1 + len(p.Thieves)}
	}
	return SpecFor(p.Algo)
}

// Scenario compiles the program into a runnable oracle scenario. The
// returned Build is safe for the exhaustive engine's parallel workers:
// every call constructs a fresh queue recording into the given history.
func (p Program) Scenario() Scenario {
	capacity := p.Capacity
	if capacity == 0 {
		capacity = 64
	}
	return Scenario{
		Name:   p.String(),
		Config: p.Config(),
		Build: func(m *tso.Machine, h *History) []func(tso.Context) {
			q := Instrument(core.New(p.Algo, m, capacity, p.Delta), h)
			if p.Prefill > 0 {
				vals := make([]uint64, p.Prefill)
				for i := range vals {
					vals[i] = uint64(i + 1)
				}
				q.Prefill(m, vals)
			}
			if p.Drain {
				h.ExpectDrained()
			}
			progs := make([]func(tso.Context), 0, 1+len(p.Thieves))
			progs = append(progs, func(c tso.Context) {
				next := uint64(p.Prefill)
				for _, op := range p.WorkerOps {
					if op == 'P' {
						next++
						q.Put(c, next)
					} else {
						q.Take(c)
					}
				}
				if p.Drain {
					for {
						if _, st := q.Take(c); st == core.Empty {
							break
						}
					}
				}
			})
			for _, attempts := range p.Thieves {
				n := attempts
				progs = append(progs, func(c tso.Context) {
					for k := 0; k < n; k++ {
						if _, st := q.Steal(c); st == core.Empty {
							break
						}
					}
				})
			}
			return progs
		},
	}
}

// decode limits: the fuzzers keep programs tiny so sampled or explored
// schedule spaces stay tractable.
const (
	maxFuzzWorkerOps = 5
	maxFuzzThieves   = 2
	maxFuzzAttempts  = 3
	maxFuzzPrefill   = 3
)

// DecodeProgram derives a bounded, soundly-configured Program from raw
// fuzz bytes (nil ok=false when data is too short). Soundness means the
// decoded δ always equals the machine's observable bound and the drain
// stage is only enabled for algorithms whose safety does not depend on δ
// — so a fuzz-found violation is a real bug, not a paper-predicted
// unsound configuration. (The unsound configurations are covered
// deliberately by the seeded corpus instead.)
func DecodeProgram(data []byte) (Program, bool) {
	if len(data) < 7 {
		return Program{}, false
	}
	p := Program{
		Algo:    core.AllAlgos[int(data[0])%len(core.AllAlgos)],
		S:       1 + int(data[1])%2,
		Prefill: int(data[2]) % (maxFuzzPrefill + 1),
		Drain:   data[3]%2 == 0,
	}
	// The drain stage widens the observable bound to S+1; with δ kept at
	// the bound that is sound for steals, but a δ-dependent queue under
	// back-to-back takes can still defeat it (the coalescing boundary
	// explored in the corpus tests), so fuzzing pairs the stage only with
	// queues that take no δ.
	if data[3]%4 >= 2 && !p.Algo.UsesDelta() {
		p.Stage = true
	}
	p.Delta = p.Config().ObservableBound()
	nops := int(data[4]) % (maxFuzzWorkerOps + 1)
	ops := make([]byte, 0, nops)
	for i := 0; i < nops; i++ {
		b := byte(0)
		if 5+i < len(data) {
			b = data[5+i]
		}
		if b%2 == 0 {
			ops = append(ops, 'P')
		} else {
			ops = append(ops, 'T')
		}
	}
	p.WorkerOps = string(ops)
	nthieves := 1 + int(data[5])%maxFuzzThieves
	for i := 0; i < nthieves; i++ {
		b := byte(1)
		if 6+i < len(data) {
			b = data[6+i]
		}
		p.Thieves = append(p.Thieves, 1+int(b)%maxFuzzAttempts)
	}
	return p, true
}

// RandomProgram draws a program from the same bounded, soundly-configured
// space as DecodeProgram — the generator behind `tsoexplore -fuzz`.
func RandomProgram(r *rand.Rand) Program {
	data := make([]byte, 7+maxFuzzWorkerOps)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	p, ok := DecodeProgram(data)
	if !ok {
		panic("oracle: RandomProgram buffer too short")
	}
	return p
}

// CorpusEntry is the JSON schema of a checked-in counterexample under
// internal/oracle/testdata/: a program, the spec it violates, the
// schedule choices that reach the violation (tso.ReplaySchedule format),
// and the canonical verdict the replay must reproduce.
type CorpusEntry struct {
	// Comment says what the entry demonstrates.
	Comment string `json:"comment"`
	// Program is the workload.
	Program Program `json:"program"`
	// Spec names the checked contract ("precise", "idempotent", or
	// "multiplicity(k=N)").
	Spec string `json:"spec"`
	// Choices is the violating schedule's decision prefix.
	Choices []int `json:"choices"`
	// Outcome is the canonical verdict string the replay must report.
	Outcome string `json:"outcome"`
}

// SpecByName resolves a corpus entry's spec name. Every Spec's Name()
// round-trips: "precise", "idempotent", and "multiplicity(k=N)" for any
// integer N ≥ 0.
func SpecByName(name string) (Spec, bool) {
	switch name {
	case "precise":
		return Precise{}, true
	case "idempotent":
		return Idempotent{}, true
	}
	var k int
	if n, err := fmt.Sscanf(name, "multiplicity(k=%d)", &k); err == nil && n == 1 && k >= 0 {
		if s := (Multiplicity{K: k}); s.Name() == name {
			return s, true
		}
	}
	return nil, false
}
