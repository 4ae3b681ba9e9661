package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rendelim/internal/gpusim"
	"rendelim/internal/workload"
)

// fakeRun builds a RunFunc that counts executions and returns a result
// tagged with the spec alias.
func fakeRun(runs *atomic.Int64, delay time.Duration) RunFunc {
	return func(ctx context.Context, spec Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		runs.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return gpusim.Result{}, ctx.Err()
			}
		}
		return gpusim.Result{Name: spec.Alias, Technique: spec.Tech}, nil
	}
}

func spec(alias string) Spec {
	return Spec{Alias: alias, Params: workload.Params{Width: 64, Height: 64, Frames: 2, Seed: 1}, Tech: gpusim.RE}
}

func TestKeyDiscriminates(t *testing.T) {
	a, b := spec("ccs"), spec("ccs")
	if a.Key() != b.Key() {
		t.Fatal("identical specs must share a key")
	}
	b.Alias = "mst"
	if a.Key() == b.Key() {
		t.Error("different aliases must differ in TraceSig")
	}
	c := spec("ccs")
	c.Tech = gpusim.Baseline
	if a.Key().CfgHash == c.Key().CfgHash {
		t.Error("different techniques must differ in CfgHash")
	}
	d := spec("ccs")
	d.Tag = "variant"
	if a.Key().CfgHash == d.Key().CfgHash {
		t.Error("different tags must differ in CfgHash")
	}
	e := spec("ccs")
	e.Params.Seed = 2
	if a.Key().TraceSig == e.Key().TraceSig {
		t.Error("different seeds must differ in TraceSig")
	}
	up := Spec{TraceBin: []byte("RDLM....bytes"), Tech: gpusim.RE}
	up2 := Spec{TraceBin: []byte("RDLM....bytes"), Tech: gpusim.RE}
	if up.Key() != up2.Key() {
		t.Error("identical uploads must share a key")
	}
	up2.TraceBin = []byte("RDLM...Xbytes")
	if up.Key().TraceSig == up2.Key().TraceSig {
		t.Error("different uploads must differ in TraceSig")
	}
}

// Concurrent identical submissions must run the simulation exactly once:
// one leader simulates, every other submission joins it (singleflight).
func TestDedupConcurrentSubmissions(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(4), WithRun(fakeRun(&runs, 30*time.Millisecond)))
	defer p.Close(context.Background())

	const n = 16
	var wg sync.WaitGroup
	results := make([]gpusim.Result, n)
	errs := make([]error, n)
	deduped := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := p.Submit(spec("ccs"))
			if err != nil {
				errs[i] = err
				return
			}
			deduped[i] = j.Deduped
			results[i], errs[i] = j.Wait(context.Background())
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation ran %d times, want 1", got)
	}
	nDeduped := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if results[i].Name != "ccs" {
			t.Errorf("submission %d: wrong result %q", i, results[i].Name)
		}
		if deduped[i] {
			nDeduped++
		}
	}
	if nDeduped != n-1 {
		t.Errorf("deduped %d of %d, want %d", nDeduped, n, n-1)
	}
	m := p.Metrics()
	if got := m.Deduped.Load(); got != n-1 {
		t.Errorf("jobs_deduped_total = %d, want %d", got, n-1)
	}
	if got := m.Completed.Load(); got != 1 {
		t.Errorf("jobs_completed_total = %d, want 1", got)
	}
}

// A sequential re-submission after completion must be served from the LRU
// result cache.
func TestCacheHitAfterCompletion(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(2), WithRun(fakeRun(&runs, 0)))
	defer p.Close(context.Background())

	j1, err := p.Submit(spec("cde"))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	j2, err := p.Submit(spec("cde"))
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Deduped {
		t.Error("second submission not marked deduped")
	}
	if j2.State() != Done {
		t.Errorf("cache-hit job state %v, want done immediately", j2.State())
	}
	r2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Name != r2.Name || r1.Technique != r2.Technique {
		t.Error("cached result differs from original")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("simulation ran %d times, want 1", got)
	}
	if got := p.Metrics().CacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

func TestTimeoutFires(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(1), WithTimeout(20*time.Millisecond), WithRun(fakeRun(&runs, 5*time.Second)))
	defer p.Close(context.Background())

	j, err := p.Submit(spec("mst"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if j.State() != Failed {
		t.Errorf("state %v, want failed", j.State())
	}
	if got := p.Metrics().Timeouts.Load(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	// A timed-out job must not populate the cache.
	j2, _ := p.Submit(spec("mst"))
	if j2.Deduped {
		t.Error("resubmission of failed job was served from cache")
	}
	j2.Cancel()
	j2.Wait(context.Background())
}

func TestCancel(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(1), WithRun(fakeRun(&runs, 5*time.Second)))
	defer p.Close(context.Background())

	j, err := p.Submit(spec("ter"))
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	_, err = j.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

func TestRetryThenSucceed(t *testing.T) {
	var attempts atomic.Int64
	run := func(ctx context.Context, spec Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		if attempts.Add(1) < 3 {
			return gpusim.Result{}, Transient(fmt.Errorf("flaky backend"))
		}
		return gpusim.Result{Name: spec.Alias}, nil
	}
	p := NewPool(WithWorkers(1), WithRetries(3), WithBackoff(time.Millisecond), WithRun(run))
	defer p.Close(context.Background())

	j, err := p.Submit(spec("abi"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("want success after retries, got %v", err)
	}
	if res.Name != "abi" {
		t.Errorf("wrong result %q", res.Name)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := p.Metrics().Retries.Load(); got != 2 {
		t.Errorf("retries metric = %d, want 2", got)
	}
}

// Permanent (non-transient) failures must not be retried.
func TestPermanentFailureNoRetry(t *testing.T) {
	var attempts atomic.Int64
	run := func(ctx context.Context, spec Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		attempts.Add(1)
		return gpusim.Result{}, fmt.Errorf("bad trace")
	}
	p := NewPool(WithWorkers(1), WithRetries(3), WithBackoff(time.Millisecond), WithRun(run))
	defer p.Close(context.Background())

	j, _ := p.Submit(spec("tib"))
	_, err := j.Wait(context.Background())
	if err == nil || attempts.Load() != 1 {
		t.Fatalf("attempts = %d (err %v), want 1 permanent failure", attempts.Load(), err)
	}
	if got := p.Metrics().Failed.Load(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

// A panicking run must fail its job without killing the worker.
func TestPanicContained(t *testing.T) {
	calls := atomic.Int64{}
	run := func(ctx context.Context, spec Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		if calls.Add(1) == 1 {
			panic("simulator bug")
		}
		return gpusim.Result{Name: spec.Alias}, nil
	}
	p := NewPool(WithWorkers(1), WithRun(run))
	defer p.Close(context.Background())

	j1, _ := p.Submit(spec("hop"))
	if _, err := j1.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
	j2, _ := p.Submit(spec("csn"))
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("worker died after panic: %v", err)
	}
}

// Close must drain: every in-flight and queued job completes, and new
// submissions are rejected.
func TestGracefulDrain(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(2), WithRun(fakeRun(&runs, 20*time.Millisecond)))

	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := p.Submit(spec(fmt.Sprintf("bench%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range jobs {
		if res, err, ok := j.Result(); !ok || err != nil || res.Name == "" {
			t.Errorf("job %d not completed by drain (ok=%v err=%v)", i, ok, err)
		}
	}
	if got := runs.Load(); got != 8 {
		t.Errorf("ran %d jobs, want 8", got)
	}
	if _, err := p.Submit(spec("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// An expired drain deadline cancels outstanding jobs instead of hanging.
func TestDrainDeadline(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(1), WithRun(fakeRun(&runs, 10*time.Second)))
	j, err := p.Submit(spec("slow"))
	if err != nil {
		t.Fatal(err)
	}
	// Ensure the worker picked it up before draining.
	deadline := time.Now().Add(time.Second)
	for j.State() != Running && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close: %v, want DeadlineExceeded", err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Error("job reported success after forced drain")
	}
}

func TestGetRegistry(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(1), WithRun(fakeRun(&runs, 0)))
	defer p.Close(context.Background())

	j, _ := p.Submit(spec("ccs"))
	got, ok := p.Get(j.ID)
	if !ok || got != j {
		t.Fatalf("Get(%q) = %v, %v", j.ID, got, ok)
	}
	if _, ok := p.Get("j-999999"); ok {
		t.Error("Get of unknown ID succeeded")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	k := func(i uint32) Key { return Key{TraceSig: i} }
	c.put(k(1), &gpusim.Result{Name: "1"})
	c.put(k(2), &gpusim.Result{Name: "2"})
	c.get(k(1)) // refresh 1; 2 becomes LRU
	c.put(k(3), &gpusim.Result{Name: "3"})
	if _, ok := c.get(k(2)); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(WithWorkers(1), WithRun(fakeRun(&runs, 0)))
	defer p.Close(context.Background())
	j, _ := p.Submit(spec("ccs"))
	j.Wait(context.Background())
	j2, _ := p.Submit(spec("ccs"))
	j2.Wait(context.Background())

	var sb strings.Builder
	p.Metrics().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"resvc_jobs_submitted_total 2",
		"resvc_jobs_deduped_total 1",
		"resvc_jobs_completed_total 1",
		"resvc_job_elimination_ratio 0.5",
		"resvc_cache_hit_ratio 0.5",
		"# TYPE resvc_stage_latency_seconds histogram",
		`resvc_stage_latency_seconds_bucket{stage="queue",le="+Inf"} 1`,
		"resvc_queue_depth 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

// The singleflight in-flight gauge must track the live leader population:
// 1 while a job executes, 0 once it completes — and render in /metrics so
// dashboards read it directly instead of deriving it.
func TestSingleflightInflightGauge(t *testing.T) {
	block := make(chan struct{})
	run := func(ctx context.Context, spec Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		select {
		case <-block:
			return gpusim.Result{Name: spec.Alias}, nil
		case <-ctx.Done():
			return gpusim.Result{}, ctx.Err()
		}
	}
	p := NewPool(WithWorkers(1), WithRun(run))
	defer p.Close(context.Background())

	if got := p.Metrics().InflightKeys(); got != 0 {
		t.Fatalf("idle InflightKeys = %d, want 0", got)
	}
	j, err := p.Submit(spec("ccs"))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().InflightKeys(); got != 1 {
		t.Errorf("InflightKeys while running = %d, want 1", got)
	}
	var sb strings.Builder
	p.Metrics().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "resvc_singleflight_inflight 1") {
		t.Errorf("metrics missing resvc_singleflight_inflight 1:\n%s", sb.String())
	}
	close(block)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().InflightKeys(); got != 0 {
		t.Errorf("InflightKeys after completion = %d, want 0", got)
	}
}

// DefaultRun must actually simulate a real (tiny) workload and produce the
// same result as a direct gpusim run.
func TestDefaultRunRealWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	p := NewPool(WithWorkers(2))
	defer p.Close(context.Background())

	s := Spec{Alias: "ccs", Params: workload.Params{Width: 96, Height: 64, Frames: 3, Seed: 1}, Tech: gpusim.RE}
	j, err := p.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.TilesTotal == 0 || len(res.Frames) != 3 {
		t.Fatalf("implausible result: %+v", res.Total)
	}
	sum := Summarize(res)
	if sum.Technique != "re" || sum.Frames != 3 || sum.Cycles == 0 {
		t.Errorf("bad summary: %+v", sum)
	}
}

// TestFinishedJobDropsCheckpoint: a job's frame-boundary checkpoint exists
// only to resume a retried attempt, so a finished job — which stays
// addressable in the registry — must not keep it alive.
func TestFinishedJobDropsCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	p := NewPool(WithWorkers(1), WithCheckpointInterval(1))
	defer p.Close(context.Background())

	s := Spec{Alias: "ccs", Params: workload.Params{Width: 96, Height: 64, Frames: 3, Seed: 1}, Tech: gpusim.RE}
	j, err := p.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.resume != nil {
		t.Errorf("finished job still holds a checkpoint at frame %d", j.resume.cp.Frame())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Queued: "queued", Running: "running", Done: "done", Failed: "failed"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
