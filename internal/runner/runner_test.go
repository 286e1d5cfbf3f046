package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestRunOrderIndependentOfCompletion(t *testing.T) {
	// Jobs sleep in reverse proportion to their index, so under a wide
	// pool the last-submitted job finishes first; the outcomes must still
	// come back in submission order.
	const n = 16
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("job%02d", i),
			Fn: func(context.Context) (any, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	out := New(n).Run(context.Background(), jobs)
	if len(out) != n {
		t.Fatalf("got %d outcomes want %d", len(out), n)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Name, o.Err)
		}
		if o.Name != fmt.Sprintf("job%02d", i) || o.Value.(int) != i*i {
			t.Fatalf("outcome %d out of order: %+v", i, o)
		}
	}
}

func TestRunWorkerPoolBound(t *testing.T) {
	var cur, peak atomic.Int64
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Fn: func(context.Context) (any, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}}
	}
	New(3).Run(context.Background(), jobs)
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds pool size 3", p)
	}
}

func TestRunCancellationMidSweep(t *testing.T) {
	// A single worker guarantees serial dispatch; the third job cancels
	// the context, so everything after it must be marked cancelled
	// without having run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	jobs := make([]Job, 10)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Fn: func(context.Context) (any, error) {
			ran.Add(1)
			if i == 2 {
				cancel()
			}
			return i, nil
		}}
	}
	out := New(1).Run(ctx, jobs)
	if ran.Load() != 3 {
		t.Fatalf("ran %d jobs want 3", ran.Load())
	}
	for i, o := range out {
		if i <= 2 && o.Err != nil {
			t.Fatalf("job %d unexpectedly failed: %v", i, o.Err)
		}
		if i > 2 && !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("job %d: err=%v want context.Canceled", i, o.Err)
		}
	}
}

func TestRunPanicIsolation(t *testing.T) {
	jobs := []Job{
		{Name: "ok1", Fn: func(context.Context) (any, error) { return "a", nil }},
		{Name: "boom", Fn: func(context.Context) (any, error) { panic("simulated crash") }},
		{Name: "ok2", Fn: func(context.Context) (any, error) { return "b", nil }},
	}
	out := New(2).Run(context.Background(), jobs)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", out[0].Err, out[2].Err)
	}
	var pe *PanicError
	if !errors.As(out[1].Err, &pe) {
		t.Fatalf("panicking job err = %v, want *PanicError", out[1].Err)
	}
	if pe.Job != "boom" || pe.Value != "simulated crash" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestMapTypedFanOut(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9}
	name := func(i int, v int) string { return fmt.Sprintf("sq%d", i) }
	got, err := Map(context.Background(), New(4), items, name,
		func(_ context.Context, v int) (int, error) { return v * v, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range items {
		if got[i] != v*v {
			t.Fatalf("got[%d]=%d want %d", i, got[i], v*v)
		}
	}

	// A nil runner is the serial path with identical results.
	serial, err := Map(context.Background(), nil, items, name,
		func(_ context.Context, v int) (int, error) { return v * v, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("serial/parallel mismatch at %d: %d vs %d", i, serial[i], got[i])
		}
	}

	// The first failing item (in item order) is reported with its name.
	_, err = Map(context.Background(), New(4), items, name,
		func(_ context.Context, v int) (int, error) {
			if v == 4 {
				return 0, errors.New("bad item")
			}
			return v, nil
		})
	if err == nil || !strings.Contains(err.Error(), "sq2") {
		t.Fatalf("err = %v, want wrapped sq2 failure", err)
	}
}

func TestProgressCounts(t *testing.T) {
	// Total starts at zero; Run announces the batch size via AddTotal.
	var buf strings.Builder
	p := NewProgress(&buf, "test sweep", 0)
	r := New(2)
	r.Progress = p
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Fn: func(context.Context) (any, error) { return nil, nil }}
	}
	r.Run(context.Background(), jobs)
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "4/4") || !strings.Contains(out, "4 jobs in") {
		t.Fatalf("progress output missing counts: %q", out)
	}
}

type cacheCfg struct {
	Seeds int       `json:"seeds"`
	Bias  []float64 `json:"bias"`
}

func TestCacheHitMissInvalidation(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheCfg{Seeds: 5, Bias: []float64{0.02, 0.4}}
	calls := 0
	compute := func() ([]float64, error) { calls++; return []float64{1.5, 2.25}, nil }

	v, hit, err := Cached(c, "fig", cfg, compute)
	if err != nil || hit || calls != 1 {
		t.Fatalf("first call: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	v, hit, err = Cached(c, "fig", cfg, compute)
	if err != nil || !hit || calls != 1 {
		t.Fatalf("second call not a hit: hit=%v err=%v calls=%d", hit, err, calls)
	}
	if len(v) != 2 || v[0] != 1.5 || v[1] != 2.25 {
		t.Fatalf("cached value corrupted: %v", v)
	}

	// Different config → miss.
	cfg2 := cfg
	cfg2.Seeds = 6
	if _, hit, _ := Cached(c, "fig", cfg2, compute); hit {
		t.Fatal("different config unexpectedly hit")
	}
	// Different experiment name → miss.
	if _, hit, _ := Cached(c, "other", cfg, compute); hit {
		t.Fatal("different name unexpectedly hit")
	}
	// New code version → miss (recompile invalidation).
	c2 := &Cache{Dir: dir, Version: c.Version + "-next"}
	if _, hit, _ := Cached(c2, "fig", cfg, compute); hit {
		t.Fatal("new code version unexpectedly hit")
	}
	// Corrupt entry → miss, then repaired by the recompute.
	ents, err := filepath.Glob(filepath.Join(dir, "fig-*.json"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no cache files found: %v", err)
	}
	for _, e := range ents {
		if err := os.WriteFile(e, []byte("{truncated"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := calls
	if _, hit, err := Cached(c, "fig", cfg, compute); hit || err != nil || calls != before+1 {
		t.Fatalf("corrupt entry not treated as miss: hit=%v err=%v", hit, err)
	}
	if _, hit, _ := Cached(c, "fig", cfg, compute); !hit {
		t.Fatal("repaired entry should hit")
	}
}

func TestCacheNilDegeneratesToCompute(t *testing.T) {
	calls := 0
	v, hit, err := Cached[int](nil, "x", 1, func() (int, error) { calls++; return 7, nil })
	if v != 7 || hit || err != nil || calls != 1 {
		t.Fatalf("nil cache: v=%d hit=%v err=%v calls=%d", v, hit, err, calls)
	}
}

func TestCodeVersionStable(t *testing.T) {
	a, b := CodeVersion(), CodeVersion()
	if a == "" || a != b {
		t.Fatalf("CodeVersion unstable: %q vs %q", a, b)
	}
}

func TestSignalContextCancel(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	stop()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("stop did not cancel the context")
	}

	// SIGTERM cancels it too: the signal a service manager sends. The
	// context catches it, so the test process survives.
	ctx, stop = SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
}
