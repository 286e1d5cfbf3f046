package tso

import (
	"errors"
	"fmt"
)

// Addr addresses a 64-bit word of simulated shared memory.
type Addr int

// MemoryModel selects the abstract machine's reordering rules.
type MemoryModel int

const (
	// ModelTSO is the paper's model: the store buffer drains in FIFO
	// order, so only store→load reordering is possible.
	ModelTSO MemoryModel = iota
	// ModelPSO weakens the drain rule to per-address FIFO: stores to
	// *different* addresses may reach memory out of program order
	// (store→store reordering), as on SPARC PSO. The paper poses the
	// weak-model question as future work (§10); this mode exists to
	// demonstrate concretely that the fence-free queues depend on TSO —
	// under PSO a put()'s task store can drain after its tail-index
	// store, letting a thief steal garbage. Supported by the chaos
	// engine only, and not combinable with DrainBuffer.
	ModelPSO
)

func (m MemoryModel) String() string {
	if m == ModelPSO {
		return "PSO"
	}
	return "TSO"
}

// Config describes an abstract TSO[S] machine.
type Config struct {
	// Threads is the number of hardware threads. Run must be called with
	// exactly this many programs.
	Threads int

	// BufferSize is S, the number of store-buffer entries per thread.
	// Must be >= 1.
	BufferSize int

	// DrainBuffer enables the §7.3 post-retirement drain stage: draining
	// moves the oldest store-buffer entry into a one-entry stage B before
	// it reaches memory, and a drained store to the address currently held
	// in B overwrites it (same-address coalescing). With this enabled the
	// observable reordering bound is S+1, and a run of back-to-back stores
	// to a single location can hide unboundedly many stores — the L=0
	// failure mode of Figure 8b.
	DrainBuffer bool

	// Seed seeds the chaos engine's scheduler RNG. Runs with equal seeds
	// and equal programs produce identical schedules.
	Seed int64

	// DrainBias is the probability in [0,1] that a chaos-engine step
	// drains a store-buffer entry rather than letting a thread act, when
	// both choices are available. Low values starve drains and maximize
	// store/load reordering; high values approach sequential consistency.
	// The default (0) is replaced by 0.5.
	DrainBias float64

	// MaxSteps bounds the number of chaos-engine steps before Run gives up
	// and reports ErrStepLimit; this converts livelock and deadlock into a
	// diagnosable failure. The default (0) is replaced by 50 million.
	MaxSteps int64

	// Model selects TSO (default) or PSO drain rules; see MemoryModel.
	Model MemoryModel

	// SMT makes the timed engine treat threads 2i and 2i+1 as
	// hyperthreads sharing core i: their instruction-issue cycles
	// serialize on a per-core clock, but *stall* cycles (a fence or
	// buffer-full wait, a CAS's implicit drain wait) consume no core
	// issue, so the sibling runs during them. This reproduces §8.1's
	// hyperthreading observation — the processor schedules one
	// hyperthread while its sibling stalls on a fence, shrinking the
	// benefit of removing the fence. Threads must be even. Ignored by the
	// chaos engine (which has no notion of time).
	SMT bool

	// Cost is the timed engine's cycle model. Zero fields take defaults.
	Cost CostModel

	// Metrics enables the per-thread metric series (occupancy histograms,
	// stall costs, drain latency; see MachineMetrics). Off by default:
	// with Metrics unset every instrumentation point is a nil check, so
	// the figures' hot paths pay nothing for the observability layer.
	Metrics bool
}

// CostModel assigns virtual-cycle costs to the timed engine's actions.
type CostModel struct {
	// LoadCycles is the cost of a load (≥ 1 so spin loops make progress).
	LoadCycles uint64
	// StoreCycles is the cost of issuing a store (buffer-entry occupancy
	// and drain latency are charged separately).
	StoreCycles uint64
	// DrainCycles is the latency for one store-buffer entry to be written
	// to the memory subsystem (roughly an L1 store-to-visible latency).
	DrainCycles uint64
	// DrainThroughputCycles is the minimum spacing between consecutive
	// drain completions: drains are pipelined, so a burst of k stores
	// becomes visible DrainCycles + (k-1)×DrainThroughputCycles after
	// issue, not k×DrainCycles. A fence behind a burst therefore waits
	// latency plus the pipelined tail, matching how mfence behaves behind
	// a store burst on real cores. Zero means fully parallel drains.
	DrainThroughputCycles uint64
	// FenceCycles is the fixed cost of a fence, paid after waiting for the
	// store buffer to empty.
	FenceCycles uint64
	// CASCycles is the fixed cost of an atomic read-modify-write, paid
	// after the implicit drain of the issuing thread's store buffer.
	CASCycles uint64
}

// DefaultCost is the cost model used when Config.Cost is zero. The ratios
// (drain ≈ 12× a load, CAS ≈ 2× a drain) are chosen so that, as on the
// paper's Westmere-EX/Haswell machines, a take()-path fence costs tens of
// cycles while loads and stores cost ~1, reproducing Figure 1's 3–25%
// single-thread fence overhead across task granularities.
var DefaultCost = CostModel{
	LoadCycles:            1,
	StoreCycles:           1,
	DrainCycles:           12,
	DrainThroughputCycles: 2,
	FenceCycles:           3,
	CASCycles:             24,
}

const (
	defaultMaxSteps = 50_000_000
	defaultDrain    = 0.5
)

// ErrStepLimit is returned by Machine.Run when the schedule exceeds
// Config.MaxSteps, which indicates livelock or deadlock in the simulated
// program (for example, a THEP thief waiting for a worker that never comes).
var ErrStepLimit = errors.New("tso: step limit exceeded (livelock or deadlock)")

// errRunCut is returned by Machine.Run when the installed policy cancelled
// the schedule mid-run. Only the exhaustive engine's pruning path produces
// it, and it never escapes the tso package.
var errRunCut = errors.New("tso: run cut by the exploration engine")

func (c Config) withDefaults() (Config, error) {
	if c.Threads < 1 {
		return c, fmt.Errorf("tso: config needs at least 1 thread, got %d", c.Threads)
	}
	if c.BufferSize < 1 {
		return c, fmt.Errorf("tso: store buffer size must be >= 1, got %d", c.BufferSize)
	}
	if c.DrainBias < 0 || c.DrainBias > 1 {
		return c, fmt.Errorf("tso: drain bias %v outside [0,1]", c.DrainBias)
	}
	if c.Model == ModelPSO && c.DrainBuffer {
		return c, fmt.Errorf("tso: the drain-stage model is defined for TSO only")
	}
	if c.SMT && c.Threads%2 != 0 {
		return c, fmt.Errorf("tso: SMT needs an even thread count, got %d", c.Threads)
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = defaultMaxSteps
	}
	if c.DrainBias == 0 {
		c.DrainBias = defaultDrain
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCost
	}
	if c.Cost.LoadCycles == 0 {
		c.Cost.LoadCycles = 1
	}
	return c, nil
}

// ObservableBound returns the bound on store/load reordering that the
// configured machine actually exhibits: S, or S+1 when the drain-stage
// buffer B is enabled (§7.3, "B observably behaves as an additional store
// buffer entry"). Code that derives δ for the fence-free queues must use
// this value, not BufferSize — conflating the two is exactly the Figure 8a
// mistake.
func (c Config) ObservableBound() int {
	if c.DrainBuffer {
		return c.BufferSize + 1
	}
	return c.BufferSize
}

// WestmereEX returns the machine configuration modelling the paper's Intel
// Xeon E7-4870: 10 cores, a documented 32-entry store buffer, and the drain
// stage that makes the measured reordering bound S = 33 (§7.3, §8).
func WestmereEX() Config {
	return Config{Threads: 10, BufferSize: 32, DrainBuffer: true}
}

// Haswell returns the machine configuration modelling the paper's Intel
// Core i7-4770: 4 cores, a documented 42-entry store buffer, and a measured
// reordering bound S = 43 (§8).
func Haswell() Config {
	return Config{Threads: 4, BufferSize: 42, DrainBuffer: true}
}

// Stats aggregates per-thread event counts recorded by either engine.
type Stats struct {
	Loads        int64 // loads executed
	Stores       int64 // stores issued
	Fences       int64 // fences executed
	CASes        int64 // atomic read-modify-writes executed
	Drains       int64 // store-buffer entries written toward memory
	Coalesces    int64 // drain-stage same-address coalesces (DrainBuffer)
	ForwardLoads int64 // loads satisfied from the issuing thread's buffer
	MaxOccupancy int   // high-water mark of buffered stores (incl. stage B)
	Steps        int64 // chaos-engine scheduling steps taken
}

func (s *Stats) add(o Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Fences += o.Fences
	s.CASes += o.CASes
	s.Drains += o.Drains
	s.Coalesces += o.Coalesces
	s.ForwardLoads += o.ForwardLoads
	if o.MaxOccupancy > s.MaxOccupancy {
		s.MaxOccupancy = o.MaxOccupancy
	}
	s.Steps += o.Steps
}
