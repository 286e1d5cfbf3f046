package expt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestMetricsJSONSchema is the stability contract for the metrics entry of
// the -json manifest: it validates every field name plotting scripts may
// rely on, so an accidental rename fails here rather than downstream.
func TestMetricsJSONSchema(t *testing.T) {
	rep, err := CollectMetrics(ScaledHaswell(), "timed")
	if err != nil {
		t.Fatal(err)
	}
	raw := manifestEntry(t, "metrics", rep)
	var data map[string]any
	if err := json.Unmarshal(raw, &data); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"platform", "engine", "app", "algo", "machine", "machine_stats", "sched"} {
		if _, ok := data[key]; !ok {
			t.Errorf("data missing key %q", key)
		}
	}
	if data["engine"] != "timed" {
		t.Errorf("engine = %v", data["engine"])
	}

	machine, ok := data["machine"].(map[string]any)
	if !ok {
		t.Fatalf("machine is %T", data["machine"])
	}
	if machine["bound"].(float64) != float64(ScaledHaswell().Cfg.ObservableBound()) {
		t.Errorf("bound = %v", machine["bound"])
	}
	threads, ok := machine["threads"].([]any)
	if !ok || len(threads) != ScaledHaswell().Cfg.Threads {
		t.Fatalf("threads = %v", machine["threads"])
	}
	th := threads[0].(map[string]any)
	for _, key := range []string{"thread", "occupancy_hist", "fence_stall_cost",
		"cas_stall_cost", "drain_latency_sum", "drain_latency_max",
		"drained_entries", "forward_loads", "coalesces", "max_occupancy"} {
		if _, ok := th[key]; !ok {
			t.Errorf("thread series missing key %q", key)
		}
	}
	if hist := th["occupancy_hist"].([]any); len(hist) != ScaledHaswell().Cfg.ObservableBound()+1 {
		t.Errorf("occupancy_hist has %d buckets", len(hist))
	}

	sched, ok := data["sched"].(map[string]any)
	if !ok {
		t.Fatalf("sched is %T", data["sched"])
	}
	if _, ok := sched["Workers"].([]any); !ok {
		t.Errorf("sched.Workers = %v (per-worker counters missing)", sched["Workers"])
	}

	// The report must survive a round trip back into the typed struct.
	var rt MetricsReport
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Machine == nil || len(rt.Machine.Threads) != len(rep.Machine.Threads) {
		t.Fatal("machine metrics did not round-trip")
	}
}

// TestCollectMetricsBothEngines checks the engine-independent invariants of
// a report: every issued store lands in exactly one occupancy bucket, and
// the per-worker scheduler counters sum to the pool totals.
func TestCollectMetricsBothEngines(t *testing.T) {
	for _, engine := range []string{"timed", "chaos"} {
		rep, err := CollectMetrics(ScaledHaswell(), engine)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if rep.Machine == nil {
			t.Fatalf("%s: no machine metrics", engine)
		}
		var pushes int64
		for _, th := range rep.Machine.Threads {
			for _, c := range th.OccupancyHist {
				pushes += c
			}
			if th.MaxOccupancy > rep.Machine.Bound {
				t.Errorf("%s: thread %d max occupancy %d exceeds bound %d",
					engine, th.Thread, th.MaxOccupancy, rep.Machine.Bound)
			}
		}
		if pushes != rep.MachineStats.Stores {
			t.Errorf("%s: occupancy histogram has %d samples, %d stores issued",
				engine, pushes, rep.MachineStats.Stores)
		}
		var takes, steals, aborts int64
		for _, ws := range rep.Sched.Workers {
			takes += ws.Takes
			steals += ws.Steals
			aborts += ws.Aborts
		}
		if steals != rep.Sched.Steals {
			t.Errorf("%s: per-worker steals %d != pool steals %d", engine, steals, rep.Sched.Steals)
		}
		if aborts != rep.Sched.Aborts {
			t.Errorf("%s: per-worker aborts %d != pool aborts %d", engine, aborts, rep.Sched.Aborts)
		}
		if takes+steals != rep.Sched.Executed {
			t.Errorf("%s: takes %d + steals %d != executed %d", engine, takes, steals, rep.Sched.Executed)
		}
	}
}

func TestCollectMetricsUnknownEngine(t *testing.T) {
	if _, err := CollectMetrics(ScaledHaswell(), "warp"); err == nil {
		t.Fatal("no error for unknown engine")
	}
}

func TestRenderMetrics(t *testing.T) {
	rep, err := CollectMetrics(ScaledHaswell(), "timed")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderMetrics(&buf, rep)
	out := buf.String()
	for _, want := range []string{"Store-buffer occupancy", "thread", "worker", "machine totals", "cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
