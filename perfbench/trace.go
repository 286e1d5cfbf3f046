package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the proof, job or cell
// it served, the span that caused it (0 for a root) and its interval
// since the tracer started.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Item   string        `json:"item,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans and summed per-run callback times in memory; they
// are written out when the run ends. A nil *tracer records nothing, so
// untraced passes call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	sums  map[string]time.Duration // callback time summed per name|item
	count map[string]int           // callbacks per name|item
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]time.Duration{}, count: map[string]int{}}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, item string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Item: item, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// addSum accumulates n callbacks' summed duration under name and item.
func (t *tracer) addSum(name, item string, d time.Duration, n int) {
	if t == nil {
		return
	}
	k := name + "|" + item
	t.mu.Lock()
	t.sums[k] += d
	t.count[k] += n
	t.mu.Unlock()
}

// sum returns the summed callback time and count under name and item.
func (t *tracer) sum(name, item string) (time.Duration, int) {
	k := name + "|" + item
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[k], t.count[k]
}

// total is the summed duration of the spans named name, restricted to
// item when it is not empty.
func (t *tracer) total(name, item string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && (item == "" || s.Item == item) {
			d += s.End - s.Start
		}
	}
	return d
}

// durations lists the durations of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTimes derives each span name's total and self time: a span's
// duration minus the part of its interval its children cover (children
// may overlap, as concurrent service clients do).
func (t *tracer) selfTimes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	total := map[string]time.Duration{}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(children[s.ID])
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("span %-28s total %9.3fms self %9.3fms", n, ms(total[n]), ms(self[n])))
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var d, lo, hi time.Duration
	open := false
	for _, s := range ss {
		switch {
		case !open:
			lo, hi, open = s.Start, s.End, true
		case s.Start > hi:
			d += hi - lo
			lo, hi = s.Start, s.End
		case s.End > hi:
			hi = s.End
		}
	}
	if open {
		d += hi - lo
	}
	return d
}

// write saves the spans and callback sums as JSON under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[string]float64{}
	for k, d := range t.sums {
		sums[k] = ms(d)
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans, "callback_ms": sums, "callbacks": t.count})
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
