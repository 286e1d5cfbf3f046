package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/tso"
)

// jobClass is one kind of verification job in the service mix.
type jobClass struct {
	name string
	spec serve.JobSpec
}

// jobMix is the set of job classes. Small and medium jobs are dominated
// by the shard/slice/fold/spool path, the codec and HTTP; the heavy and
// DPOR jobs by the exploration engine; violating jobs add witness
// extraction. No recorded campaign fixes their proportions, so a pass
// runs every class equally often rather than implying a traffic shape.
var jobMix = []jobClass{
	{"small", serve.JobSpec{Algorithm: "FF-CL", S: 2, Prefill: 1, WorkerOps: "PT", Thieves: []int{2}}},
	{"medium", serve.JobSpec{Algorithm: "FF-CL", S: 2, Prefill: 2, WorkerOps: "PT", Thieves: []int{2}}},
	{"dpor", serve.JobSpec{Algorithm: "Chase-Lev", S: 2, Prefill: 2, WorkerOps: "PT", Thieves: []int{1, 1}, DPOR: true}},
	{"heavy", serve.JobSpec{Algorithm: "idempotent FIFO", S: 1, Prefill: 2, WorkerOps: "T", Thieves: []int{1, 1}, Drain: true}},
	{"violating", violating},
}

// roundsPerPass is how many jobs of each class one pass runs.
const roundsPerPass = 5

// violating is the δ<S unsound configuration: FF-CL with δ=1 on an S=2
// machine loses and duplicates tasks.
var violating = serve.JobSpec{Algorithm: "FF-CL", S: 2, Delta: 1, Prefill: 3, WorkerOps: "TT", Thieves: []int{2}, Spec: "precise"}

// serveWorkers and serveClients keep the load within two CPUs.
const (
	serveWorkers = 2
	serveClients = 2
	pollEvery    = time.Millisecond
)

// inProcess is a class's reference: oracle.Run of the same program in
// this process, and how long it took at Parallel 2.
type inProcess struct {
	verdicts  string
	schedules int
	took      time.Duration
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	class  string
	ms     float64
	status serve.JobStatus
	err    error
}

// serveLoad is the serve workload: tsoserve on loopback driven by a
// closed loop of two clients.
type serveLoad struct {
	ref    *reference
	rng    *rand.Rand
	dir    string
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	refs   map[string]inProcess
	passes int
	last   []jobOutcome
}

func newServe(seed int64, ref *reference) *serveLoad {
	return &serveLoad{ref: ref, rng: rand.New(rand.NewSource(seed)), refs: map[string]inProcess{}}
}

// setup starts a server on a fresh spool and a loopback listener, and
// runs one small job through it.
func (w *serveLoad) setup() error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "spool-")
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	w.dir = dir
	srv, err := serve.NewServer(serve.Config{SpoolDir: filepath.Join(dir, "spool"), Workers: serveWorkers, QueueDepth: 64})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler()}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	o := w.runJob(jobMix[0], nil, 0)
	if o.err == nil && o.status.State != serve.StateDone {
		o.err = fmt.Errorf("warm-up job ended %s: %s", o.status.State, o.status.Error)
	}
	return o.err
}

// close stops the listener, drains the server and removes the spool.
func (w *serveLoad) close() {
	if w.hs != nil {
		_ = w.hs.Shutdown(context.Background()) // idle connections only
		<-w.done
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Drain()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.hs, w.client, w.srv, w.dir = nil, nil, nil, ""
}

// order is the pass's job sequence: rounds of one job of each class,
// each round in an order drawn from the run seed. Rounds keep the heavy
// jobs spread through the pass, so how often a job shares the workers
// with a heavy one varies little from seed to seed.
func (w *serveLoad) order() []jobClass {
	var jobs []jobClass
	for r := 0; r < roundsPerPass; r++ {
		for _, i := range w.rng.Perm(len(jobMix)) {
			jobs = append(jobs, jobMix[i])
		}
	}
	return jobs
}

// runJob POSTs one job and polls its status until it is done or failed;
// the latency runs from the POST to the terminal status observed.
func (w *serveLoad) runJob(c jobClass, tr *tracer, parent int) jobOutcome {
	o := jobOutcome{class: c.name}
	body, err := json.Marshal(c.spec)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	sp := tr.begin("job", c.name, parent)
	defer tr.end(sp)
	hs := tr.begin("http.submit", c.name, sp)
	var st serve.JobStatus
	code, err := w.call(http.MethodPost, "/v1/jobs", body, &st)
	tr.end(hs)
	if err != nil {
		o.err = err
		return o
	}
	if code != http.StatusAccepted {
		o.err = fmt.Errorf("job rejected with HTTP %d", code)
		return o
	}
	for st.State != serve.StateDone && st.State != serve.StateFailed {
		time.Sleep(pollEvery)
		hs := tr.begin("http.status", c.name, sp)
		code, err = w.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
		tr.end(hs)
		if err != nil {
			o.err = err
			return o
		}
		if code != http.StatusOK {
			o.err = fmt.Errorf("status of %s: HTTP %d", st.ID, code)
			return o
		}
	}
	o.ms = ms(time.Since(start))
	o.status = st
	return o
}

// call makes one HTTP round trip and decodes the JSON reply into v.
func (w *serveLoad) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// pass runs the shuffled mix through two closed-loop clients, then
// checks every job against in-process oracle.Run of the same spec.
func (w *serveLoad) pass(tr *tracer) (passResult, error) {
	var pr passResult
	// Each pass gets a fresh server: a server keeps every finished job,
	// so reusing one would make memory grow with the number of passes.
	// The old server's memory is returned before the pass starts, so the
	// pass's peak RSS counts one server.
	if w.passes > 0 {
		w.close()
		if err := w.setup(); err != nil {
			return pr, err
		}
		settle()
	}
	jobs := w.order()
	outs := make([]jobOutcome, len(jobs))
	var mu sync.Mutex
	next := 0
	root := tr.begin("pass", "serve", 0)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				outs[i] = w.runJob(jobs[i], tr, root)
			}
		}()
	}
	wg.Wait()
	pr.wall = time.Since(start)
	tr.end(root)
	w.passes++
	w.last = outs

	for _, o := range outs {
		pr.units = append(pr.units, unitTime{o.class, o.ms})
		if o.status.Result != nil {
			pr.executed += o.status.Result.Executed
		}
		pr.checks.add(w.check(o))
	}
	return pr, nil
}

// check compares a job with the in-process exploration of its spec.
func (w *serveLoad) check(o jobOutcome) checks {
	var c checks
	if o.err != nil {
		c.expect(false, "%s job: %v", o.class, o.err)
		return c
	}
	st := o.status
	if st.State != serve.StateDone || st.Result == nil {
		c.expect(false, "%s job %s ended %s: %s", o.class, st.ID, st.State, st.Error)
		return c
	}
	want, err := w.reference(o.class)
	if err != nil {
		c.expect(false, "%s reference: %v", o.class, err)
		return c
	}
	got := inProcess{verdicts: verdictSet(st.Result.Outcomes), schedules: st.Result.Schedules}
	c.expect(st.Result.Complete && got.verdicts == want.verdicts && got.schedules == want.schedules,
		"%s job %s: complete %v verdicts %s schedules %d, in-process verdicts %s schedules %d",
		o.class, st.ID, st.Result.Complete, got.verdicts, got.schedules, want.verdicts, want.schedules)
	if st.Result.Violating > 0 {
		c.expect(st.Result.Witness != nil, "%s job %s: violating but no witness", o.class, st.ID)
	}
	return c
}

// reference explores a class's spec in-process once per run.
func (w *serveLoad) reference(class string) (inProcess, error) {
	if r, ok := w.refs[class]; ok {
		return r, nil
	}
	var spec serve.JobSpec
	for _, c := range jobMix {
		if c.name == class {
			spec = c.spec
		}
	}
	prog, check, err := spec.Compile()
	if err != nil {
		return inProcess{}, err
	}
	t0 := time.Now()
	rep := oracle.Run(prog.Scenario(), oracle.RunOptions{Spec: check, Parallel: serveWorkers, Prune: !spec.DPOR, DPOR: spec.DPOR})
	r := inProcess{verdicts: verdictSet(rep.Outcomes), schedules: rep.Schedules, took: time.Since(t0)}
	if !rep.Complete {
		return r, errors.New("in-process exploration incomplete")
	}
	r.schedules += w.ref.takeOffset()
	w.refs[class] = r
	return r, nil
}

func verdictSet(outcomes map[string]int) string {
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// layers reports HTTP round trips, service overhead over in-process
// exploration, the service's own counters, the store and the frontier
// path (shard, codec, fold) on each class, and witness extraction.
func (w *serveLoad) layers(tr *tracer, m map[string]metric) (checks, error) {
	var c checks
	m["serve.submit_ms"] = metric{1000 * median(tr.durations("http.submit")), "ms"}
	m["serve.status_ms"] = metric{1000 * median(tr.durations("http.status")), "ms"}

	byClass := map[string][]float64{}
	executed := 0
	for _, o := range w.last {
		byClass[o.class] = append(byClass[o.class], o.ms)
		if o.status.Result != nil {
			executed += o.status.Result.Executed
		}
	}
	m["executed_runs.serve"] = metric{float64(executed), "count"}
	for _, jc := range jobMix {
		ref, err := w.reference(jc.name)
		if err != nil {
			return c, err
		}
		m["serve.overhead_ratio."+jc.name] = metric{median(byClass[jc.name]) / ms(ref.took), "ratio"}
	}

	prom, err := w.scrape()
	if err != nil {
		return c, err
	}
	jobs := prom["tsoserve_jobs_completed_total"]
	m["serve.slices_per_job"] = metric{prom["tsoserve_slices_total"] / jobs, "count"}
	m["serve.checkpoint_writes_per_job"] = metric{prom["tsoserve_checkpoint_writes_total"] / jobs, "count"}
	m["serve.prune_hit_rate"] = metric{prom["tsoserve_prune_hit_rate"], "ratio"}
	m["serve.memo_contended"] = metric{prom["tsoserve_memo_stripe_contention_total"], "count"}

	if err := frontierProbe(m); err != nil {
		return c, err
	}
	if err := storeProbe(w.last, m); err != nil {
		return c, err
	}
	prog, check, err := violating.Compile()
	if err != nil {
		return c, err
	}
	t0 := time.Now()
	ce := oracle.FindCounterexample(prog.Scenario(), check, oracle.RunOptions{})
	m["serve.witness_ms"] = metric{ms(time.Since(t0)), "ms"}
	c.expect(ce != nil, "violating class: no counterexample found in-process")
	return c, nil
}

// scrape reads the server's Prometheus metrics into a name → value map.
func (w *serveLoad) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// frontierProbe times, on each class's program, the steps a job's
// frontier goes through: sharding, binary encode and decode, exploring
// each shard, and folding the shard deltas.
func frontierProbe(m map[string]metric) error {
	var shardT, encT, decT, foldT time.Duration
	var bytesOut, units int
	for _, jc := range jobMix {
		prog, check, err := jc.spec.Compile()
		if err != nil {
			return err
		}
		mk, out := prog.Scenario().Outcomes(check)
		cfg := prog.Config()
		t0 := time.Now()
		cp, err := tso.ShardFrontier(cfg, mk, tso.ExhaustiveOptions{Units: 4 * serveWorkers, DPOR: jc.spec.DPOR})
		shardT += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s shard: %w", jc.name, err)
		}
		var buf bytes.Buffer
		t0 = time.Now()
		if err := (tso.BinaryCodec{}).EncodeCheckpoint(&buf, cp); err != nil {
			return fmt.Errorf("%s encode: %w", jc.name, err)
		}
		encT += time.Since(t0)
		bytesOut += buf.Len()
		units += len(cp.Units)
		t0 = time.Now()
		if _, err := (tso.BinaryCodec{}).DecodeCheckpoint(&buf); err != nil {
			return fmt.Errorf("%s decode: %w", jc.name, err)
		}
		decT += time.Since(t0)

		base, shards := cp.Shards()
		type delta struct {
			set tso.OutcomeSet
			res tso.ExploreResult
		}
		var deltas []delta
		for _, sh := range shards {
			set, res := tso.ExploreExhaustive(cfg, mk, out, tso.ExhaustiveOptions{Prune: !jc.spec.DPOR, DPOR: jc.spec.DPOR, Resume: sh})
			deltas = append(deltas, delta{set, res})
		}
		t0 = time.Now()
		f := tso.NewFold(cfg.Threads)
		f.AddBase(base)
		for _, d := range deltas {
			f.Add(d.set, d.res)
		}
		f.Result(true)
		foldT += time.Since(t0)
	}
	n := float64(len(jobMix))
	m["tso.shard_us"] = metric{us(shardT) / n, "us"}
	m["tso.codec_encode_us"] = metric{us(encT) / n, "us"}
	m["tso.codec_decode_us"] = metric{us(decT) / n, "us"}
	m["tso.fold_us"] = metric{us(foldT) / n, "us"}
	m["tso.codec_bytes_per_unit"] = metric{float64(bytesOut) / float64(units), "bytes"}
	return nil
}

// storeProbe times serve.Store Put and Get of finished job records.
func storeProbe(jobs []jobOutcome, m map[string]metric) error {
	dir, err := os.MkdirTemp(".bench_build", "store-")
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	const n = 200
	var putT, getT time.Duration
	for i := 0; i < n; i++ {
		o := jobs[i%len(jobs)]
		rec := &serve.Record{ID: fmt.Sprintf("probe-%d", i), Spec: o.status.Spec, State: o.status.State, Result: o.status.Result}
		t0 := time.Now()
		if err := st.Put(rec); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		putT += time.Since(t0)
		t0 = time.Now()
		if _, err := st.Get(rec.ID); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		getT += time.Since(t0)
	}
	m["serve.store_put_us"] = metric{us(putT) / n, "us"}
	m["serve.store_get_us"] = metric{us(getT) / n, "us"}
	return nil
}
