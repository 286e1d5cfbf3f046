// Command perfbench is the repository's benchmark: one workload of the
// TSO[S] stack per process, timed with tracing off, its outputs checked
// against references stored beside it, and one JSON result line at the
// end of standard output.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--corrupt-reference]
//
// With --trace 0 the workload's fixed work runs in passes until --seconds
// have elapsed and the end-to-end metrics are reported. With --trace 1 the
// whole per-layer ledger is measured instead: every workload runs one
// untraced and one traced pass (the difference is the tracing overhead),
// spans are recorded around the calls into each layer, and the layer
// micro-probes run. See README.md for the workloads, the metrics and the
// layer → end-to-end map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// unitTime is the host latency of one unit of a workload's work: a
// proof, a service job, a reproduction section or a serving cell.
type unitTime struct {
	id string
	ms float64
}

// passResult is what one pass of a workload's fixed work produced.
type passResult struct {
	wall     time.Duration
	units    []unitTime
	executed int // schedules run on a machine (0 where none are counted)
	checks   checks
}

// checks counts operations attempted and failed, with a reason per
// failure.
type checks struct {
	attempted, failed int
	reasons           []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.reasons = append(c.reasons, o.reasons...)
}

// workload is one benchmark workload. setup builds its inputs and warms
// the stack with a fixed small piece of the work; pass runs the fixed
// work once (tr is nil when tracing is off); layers adds the per-layer
// metrics its traced pass and its layer probes measure.
type workload interface {
	setup() error
	pass(tr *tracer) (passResult, error)
	layers(tr *tracer, m map[string]metric) (checks, error)
	close()
}

// workloads maps each name to its constructor; the seed reaches only
// the generated inputs (serve job order, arrival seeds).
var workloads = map[string]func(seed int64, ref *reference) workload{
	"prove-commuting":  func(seed int64, ref *reference) workload { return newProve(commuting, ref) },
	"prove-convergent": func(seed int64, ref *reference) workload { return newProve(convergent, ref) },
	"serve":            func(seed int64, ref *reference) workload { return newServe(seed, ref) },
	"simulate":         func(seed int64, ref *reference) workload { return newSimulate(seed, ref) },
}

// workloadOrder fixes the order of the traced ledger.
var workloadOrder = []string{"prove-commuting", "prove-convergent", "serve", "simulate"}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 15

// In the ledger each workload runs untraced and traced passes in pairs,
// at least minPairs and until overheadTime has passed.
const (
	minPairs     = 2
	overheadTime = 4 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: prove-commuting, prove-convergent, serve or simulate")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: measure the per-layer ledger instead of the end-to-end metrics")
	corrupt := flag.Bool("corrupt-reference", false, "self-check: make the first reference checked wrong by one")
	write := flag.Bool("write-reference", false, "record the stored references from one pass of each workload")
	flag.Parse()

	if *write {
		if err := writeReference(*seed); err != nil {
			fail(err)
		}
		return
	}

	if _, ok := workloads[*name]; !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	ref, err := loadReference()
	if err != nil {
		fail(err)
	}
	if *corrupt {
		ref.corrupt()
	}
	printEnv(*name, *seed, *seconds, *trace)

	var res result
	if *trace == 1 {
		res, err = runLedger(*seed, ref)
	} else {
		res, err = runEndToEnd(*name, *seed, ref, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// fail reports err and exits non-zero without printing a result.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runEndToEnd sets the workload up several times, then runs passes of
// its fixed work until budget has elapsed (at least three).
func runEndToEnd(name string, seed int64, ref *reference, budget time.Duration) (result, error) {
	var setupS []float64
	var w workload
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		w = workloads[name](seed, ref)
		settle()
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()

	var walls, lat, rss []float64
	byUnit := map[string][]float64{}
	var unitOrder []string
	var all checks
	var unitsDone int
	var busy time.Duration
	executed := -1
	begin := time.Now()
	for n := 0; n < 3 || time.Since(begin) < budget; n++ {
		settle()
		p, err := w.pass(nil)
		if err != nil {
			return result{}, fmt.Errorf("%s pass %d: %w", name, n, err)
		}
		rss = append(rss, peakRSSMiB())
		walls = append(walls, p.wall.Seconds())
		busy += p.wall
		for _, u := range p.units {
			lat = append(lat, u.ms)
			if _, seen := byUnit[u.id]; !seen {
				unitOrder = append(unitOrder, u.id)
			}
			byUnit[u.id] = append(byUnit[u.id], u.ms)
		}
		unitsDone += len(p.units)
		all.add(p.checks)
		if executed >= 0 && p.executed != executed {
			fmt.Printf("# note: executed runs moved between passes: %d then %d\n", executed, p.executed)
		}
		executed = p.executed
	}
	for _, r := range all.reasons {
		fmt.Println("# FAILED:", r)
	}
	sort.Float64s(lat)
	fmt.Printf("# %s: %d passes, %d units (latency samples), executed runs per pass %d, pass wall s %s, pass peak RSS MiB %s, setup s %s\n",
		name, len(walls), unitsDone, executed, fmtList(walls), fmtList(rss), fmtList(setupS))
	var perUnit []string
	for _, id := range unitOrder {
		perUnit = append(perUnit, fmt.Sprintf("%s=%.3f", id, median(byUnit[id])))
	}
	fmt.Printf("# median ms per unit: %s\n", strings.Join(perUnit, " "))
	m := map[string]metric{
		"wall_s":     {median(walls), "s"},
		"setup_s":    {median(setupS), "s"},
		"rss_mb":     {median(rss), "MiB"},
		"jobs_per_s": {float64(unitsDone) / busy.Seconds(), "1/s"},
		"job_p50_ms": {quantile(lat, 0.50), "ms"},
		"job_p90_ms": {quantile(lat, 0.90), "ms"},
	}
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// runLedger measures every per-layer metric: for each workload
// alternating untraced and traced passes (tracing overhead), the last
// traced pass's spans, and the workload's layer probes.
func runLedger(seed int64, ref *reference) (result, error) {
	m := map[string]metric{}
	var all checks
	for _, name := range workloadOrder {
		w := workloads[name](seed, ref)
		if err := w.setup(); err != nil {
			w.close()
			return result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		// Untraced and traced passes alternate, ending traced: the layer
		// metrics come from the last pass, and the overhead compares the
		// fastest pass of each kind, the least disturbed by the host.
		var plain, traced passResult
		var tr *tracer
		begin := time.Now()
		for i := 0; i < 2*minPairs || i%2 == 1 || time.Since(begin) < overheadTime; i++ {
			tr = nil
			if i%2 == 1 {
				tr = newTracer()
			}
			settle()
			p, err := w.pass(tr)
			if err != nil {
				w.close()
				return result{}, fmt.Errorf("%s pass %d: %w", name, i, err)
			}
			all.add(p.checks)
			best := &plain
			if tr != nil {
				best = &traced
			}
			if best.wall == 0 || p.wall < best.wall {
				*best = p
			}
		}
		overhead := 100 * (traced.wall.Seconds()/plain.wall.Seconds() - 1)
		m["trace.overhead_pct."+name] = metric{overhead, "%"}
		c, err := w.layers(tr, m)
		w.close()
		if err != nil {
			return result{}, fmt.Errorf("%s layers: %w", name, err)
		}
		all.add(c)
		if err := tr.write(filepath.Join(".bench_build", "spans-"+name+".json")); err != nil {
			return result{}, err
		}
		fmt.Printf("# %s: untraced %.3fs traced %.3fs (tracing overhead %+.1f%%), %d spans\n",
			name, plain.wall.Seconds(), traced.wall.Seconds(), overhead, len(tr.spans))
		for _, line := range tr.selfTimes() {
			fmt.Println("#   " + line)
		}
	}
	if err := probeSubstrate(m); err != nil {
		return result{}, err
	}
	for _, r := range all.reasons {
		fmt.Println("# FAILED:", r)
	}
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// writeReference records the stored references from one pass of every
// workload that checks against them. It starts from an empty reference,
// so entries of proofs or sections that no longer exist are dropped.
func writeReference(seed int64) error {
	ref := &reference{Proofs: map[string]proofRef{}, Sections: map[string]string{}, recording: true}
	for _, name := range []string{"prove-commuting", "prove-convergent", "simulate"} {
		w := workloads[name](seed, ref)
		if err := w.setup(); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		_, err := w.pass(nil)
		w.close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return ref.save()
}

// printEnv records what the numbers were measured on.
func printEnv(name string, seed int64, seconds, trace int) {
	env := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("# env " + string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the Go toolchain stamped into the
// binary when it was built inside a git work tree; "unknown" for a plain
// source checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// settle collects garbage and returns free memory to the OS, then
// resets the peak resident set size, so every pass starts from the same
// heap and peakRSSMiB measures that pass alone.
func settle() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// resetPeakRSS restarts the kernel's peak-RSS count for this process
// (Linux 4.0 and later). Where that is refused, the peak stays the
// process's own and peakRSSMiB reads it.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // refused: fall back to the process peak
}

// peakRSSMiB is the peak resident set size since the last reset.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
