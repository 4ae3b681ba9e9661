package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/cluster"
	"rendelim/internal/gpusim"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/promtext"
	"rendelim/internal/server"
	"rendelim/internal/stats"
	"rendelim/internal/store"
	"rendelim/internal/workload"
)

// The service workloads run two resvc nodes in this process, each with
// resvc's default flags except one worker per node (two workers in all, one
// per host CPU): a jobs.Pool checkpointing every frame, a server.Handler
// served on a loopback listener, and a two-member cluster ring. The hit
// workload's nodes are durable, with a store in each node's own data
// directory; the cold workload's keep none, because its jobs would write
// gigabytes of fsynced checkpoints per run and their latency would follow
// the host disk's noise. Two closed-loop clients each send their next job
// only after the previous one returned, alternating entry nodes.

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// Job shape: small, so that the service layers weigh next to simulation.
// Cold jobs run longer than repeated ones because every completed job keeps
// its last frame checkpoint (about 1.2 MB) in the pool's job registry:
// three times fewer, longer jobs keep a run's live heap near 400 MB.
const (
	jobW, jobH = 160, 96
	hitFrames  = 8
	coldFrames = 24
)

// jobAliases mixes static-camera aliases, whose RE jobs skip most tiles
// and finish fast, with motion aliases, whose jobs skip few and take two to
// nine times longer. The count is odd so that the median job latency falls
// inside one alias's latencies, not on the gap between the two groups.
var jobAliases = []string{"ccs", "cde", "coc", "mst", "csn", "ter", "tib"}

// node is one in-process resvc node.
type node struct {
	addr    string
	dir     string
	st      *store.Store
	pool    *jobs.Pool
	srv     *server.Server
	clus    *cluster.Cluster
	hs      *http.Server
	served  chan error
	tracer  *obs.Tracer
	handler http.Handler
}

func newPool(st *store.Store, j *obs.Journal) *jobs.Pool {
	return jobs.NewPool(
		jobs.WithWorkers(1),
		jobs.WithCacheSize(512),
		jobs.WithTimeout(10*time.Minute),
		jobs.WithRetries(2),
		jobs.WithCheckpointInterval(1),
		jobs.WithBreaker(5, 30*time.Second),
		jobs.WithLogger(quiet),
		jobs.WithJournal(j),
		jobs.WithStore(st),
	)
}

// startNodes starts two clustered nodes, durable ones with their data
// directories under base, and returns once both answer /v1/healthz and
// have probed each other.
func startNodes(base string, traced, durable bool) ([]*node, error) {
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	var nodes []*node
	fail := func(err error) ([]*node, error) {
		for _, n := range nodes {
			n.stop()
		}
		for _, l := range lns[len(nodes):] {
			l.Close()
		}
		return nil, err
	}
	for i, ln := range lns {
		n := &node{addr: ln.Addr().String(), dir: nodeDir(base, i), served: make(chan error, 1)}
		if traced {
			n.tracer = obs.NewTracer()
			n.tracer.SetProcess(i+1, "resvc "+n.addr)
		}
		journal := obs.NewJournal(obs.DefaultJournalSize)
		if durable {
			st, err := store.Open(n.dir, store.Options{Logger: quiet})
			if err != nil {
				return fail(err)
			}
			n.st = st
		}
		n.pool = newPool(n.st, journal)
		var err error
		n.clus, err = cluster.New(cluster.Options{
			Self:           n.addr,
			Peers:          []string{lns[1-i].Addr().String()},
			HealthInterval: 2 * time.Second,
			ResultTTL:      30 * time.Second,
			Logger:         quiet,
			Tracer:         n.tracer,
			Journal:        journal,
		})
		if err != nil {
			n.pool.Close(context.Background())
			if n.st != nil {
				n.st.Close()
			}
			return fail(err)
		}
		n.srv = server.New(n.pool, server.Limits{MaxBodyBytes: 64 << 20})
		n.srv.SetLogger(quiet)
		n.srv.SetTracer(n.tracer)
		n.srv.SetJournal(journal)
		n.srv.SetCluster(n.clus)
		n.handler = n.srv.Handler()
		n.hs = &http.Server{
			Handler:           n.handler,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
			ErrorLog:          log.New(io.Discard, "", 0),
		}
		go func(ln net.Listener) { n.served <- n.hs.Serve(ln) }(ln)
		n.clus.Start()
		nodes = append(nodes, n)
	}
	for i, n := range nodes {
		for !n.ready(nodes[1-i].addr) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nodes, nil
}

// ready reports whether the node answers /v1/healthz and has probed its
// peer and found it up.
func (n *node) ready(peer string) bool {
	if n.clus.Metrics().HealthChecks.Load() == 0 || !n.clus.PeerUp(peer) {
		return false
	}
	resp, err := http.Get("http://" + n.addr + apihttp.PathHealthz)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop drains the node the way resvc does on SIGTERM and waits for every
// goroutine it started.
func (n *node) stop() error {
	n.srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, n.pool.Close(ctx))
	n.clus.Stop()
	if n.st != nil {
		err = errors.Join(err, n.st.Close())
	}
	return err
}

func stopNodes(nodes []*node) error {
	var err error
	for _, n := range nodes {
		err = errors.Join(err, n.stop())
	}
	return err
}

func nodeDir(base string, i int) string { return filepath.Join(base, fmt.Sprintf("node%d", i)) }

// startTimed starts fresh nodes setupReps times, timing each start until
// ready, and keeps the last set running. setup_s is the median. A durable
// start opens data directories created beforehand, untimed, as a
// restarting node does: creating them is a one-time cost whose filesystem
// metadata latency drifted by a factor of three with the disk's recent
// churn.
func startTimed(cfg runConfig, traced, durable bool) ([]*node, float64, error) {
	var reps []float64
	var nodes []*node
	for r := 0; r < setupReps; r++ {
		if nodes != nil {
			if err := stopNodes(nodes); err != nil {
				return nil, 0, err
			}
		}
		base := filepath.Join(cfg.out, "data", fmt.Sprint(r))
		for i := 0; durable && i < 2; i++ {
			st, err := store.Open(nodeDir(base, i), store.Options{Logger: quiet})
			if err != nil {
				return nil, 0, err
			}
			if err := st.Close(); err != nil {
				return nil, 0, err
			}
		}
		t := time.Now()
		var err error
		nodes, err = startNodes(base, traced, durable)
		if err != nil {
			return nil, 0, err
		}
		reps = append(reps, time.Since(t).Seconds())
	}
	return nodes, median(reps), nil
}

// request is one job as a client submits it.
type request struct {
	body  apihttp.SubmitRequest
	entry int // node the client sends it to
}

func (r request) spec() jobs.Spec {
	p := workload.Params{Width: r.body.Width, Height: r.body.Height, Frames: r.body.Frames, Seed: r.body.Seed}
	tech, _ := gpusim.ParseTechnique(r.body.Tech) // only "re" and "base" are sent
	return jobs.Spec{Alias: r.body.Alias, Params: p, Tech: tech}
}

// reply is one completed request, reduced to what the checks need.
type reply struct {
	req     request
	result  jobs.ResultSummary
	deduped bool
	latency time.Duration
	err     error
}

// verdict checks a reply against the in-process reference result.
func (r reply) verdict(ref jobs.ResultSummary, wantDeduped bool) error {
	switch {
	case r.err != nil:
		return r.err
	case r.result != ref:
		return errors.New("result differs from an in-process run")
	case r.deduped != wantDeduped:
		return fmt.Errorf("deduped=%v, want %v", r.deduped, wantDeduped)
	}
	return nil
}

// submit sends one job to its entry node's server.Handler and waits for
// the result. The call is made in-process: a client socket would add
// loopback and wake-up time that belongs to no layer of the service and
// varies widely on a shared host. Forwards from the entry node to the
// owner still cross the loopback listener.
func submit(nodes []*node, req request) reply {
	body, err := json.Marshal(req.body)
	if err != nil {
		return reply{req: req, err: err}
	}
	t := time.Now()
	hr := httptest.NewRequest(http.MethodPost, apihttp.PathJobs+"?wait=1", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	nodes[req.entry].handler.ServeHTTP(rec, hr)
	var jr apihttp.JobResponse
	err = json.NewDecoder(rec.Body).Decode(&jr)
	r := reply{req: req, latency: time.Since(t), deduped: jr.Deduped}
	switch {
	case err != nil:
		r.err = err
	case rec.Code != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", rec.Code, jr.Error)
	case jr.State != jobs.Done.String() || jr.Result == nil:
		r.err = fmt.Errorf("job %s ended %s: %s", jr.ID, jr.State, jr.Error)
	default:
		r.result = *jr.Result
	}
	return r
}

// closedLoop runs two clients until budget is spent and at least minOps
// requests have returned; client c sends next(c, k) as its k-th request and
// hands the reply to handle(c, reply). It returns the loop's wall time.
func closedLoop(nodes []*node, budget time.Duration, minOps int64, next func(c, k int) request, handle func(c int, r reply)) time.Duration {
	var wg sync.WaitGroup
	var done atomic.Int64
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < budget || done.Load() < minOps; k++ {
				handle(c, submit(nodes, next(c, k)))
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// coldRequests hands each client a stream of unique job specs. Client c's
// jobs are all owned by node c, so the two one-worker pools never queue
// one client's job behind the other's: ownership follows the ring, which
// hashes the nodes' ephemeral ports, and left to chance it would make
// queueing, and so latency, vary from run to run. Each client alternates
// entry nodes, so half of its jobs are forwarded to their owner.
type coldRequests struct {
	nodes []*node
	next  [2]int64 // per client: next workload seed to try
}

func newColdRequests(nodes []*node, seed int64) *coldRequests {
	// Workload seeds of one run never collide with another run's, and
	// client streams never collide with each other.
	base := (seed%1_000_000+1_000_000)%1_000_000*1_000_000 + 1
	return &coldRequests{nodes: nodes, next: [2]int64{base, base + 500_000}}
}

func (g *coldRequests) request(c, k int) request {
	body := apihttp.SubmitRequest{Alias: jobAliases[k%len(jobAliases)], Tech: "re", Width: jobW, Height: jobH, Frames: coldFrames}
	for {
		body.Seed = g.next[c]
		g.next[c]++
		req := request{body: body, entry: (c + k) % 2}
		spec := req.spec()
		if g.nodes[0].clus.Owner(spec.Key()) == g.nodes[c].addr {
			return req
		}
	}
}

// hitKeys is the set of jobs the hit workload completes before measuring
// and then repeats: every job alias under RE and baseline.
func hitKeys(seed int64) []apihttp.SubmitRequest {
	var keys []apihttp.SubmitRequest
	s := (seed%1_000_000+1_000_000)%1_000_000 + 1
	for _, tech := range []string{"re", "base"} {
		for _, a := range jobAliases {
			keys = append(keys, apihttp.SubmitRequest{Alias: a, Tech: tech, Width: jobW, Height: jobH, Frames: hitFrames, Seed: s})
		}
	}
	return keys
}

// reference runs each distinct spec in-process, outside the service, on
// two goroutines, and returns the summaries by job key.
func reference(reqs []request) (map[jobs.Key]jobs.ResultSummary, error) {
	specs := map[jobs.Key]jobs.Spec{}
	for _, r := range reqs {
		s := r.spec()
		specs[s.Key()] = s
	}
	todo := make(chan jobs.Spec, len(specs))
	for _, s := range specs {
		todo <- s
	}
	close(todo)
	var mu sync.Mutex
	out := map[jobs.Key]jobs.ResultSummary{}
	var errs error
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range todo {
				res, err := jobs.DefaultRun(context.Background(), s, func(string, time.Duration) {})
				mu.Lock()
				errs = errors.Join(errs, err)
				out[s.Key()] = jobs.Summarize(res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// checkReplies counts each reply as one operation, failed when its
// verdict against the reference is not nil.
func checkReplies(o *outcome, cfg runConfig, replies []reply, ref map[jobs.Key]jobs.ResultSummary, wantDeduped bool) {
	for _, r := range replies {
		spec := r.req.spec()
		err := r.verdict(ref[spec.Key()], wantDeduped)
		o.check(err == nil, cfg.log, "%s/%s seed %d: %v", r.req.body.Alias, r.req.body.Tech, r.req.body.Seed, err)
	}
}

func requests(replies []reply) []request {
	reqs := make([]request, len(replies))
	for i, r := range replies {
		reqs[i] = r.req
	}
	return reqs
}

func runServiceCold(cfg runConfig) (*outcome, error) { return runService(cfg, false) }
func runServiceHit(cfg runConfig) (*outcome, error)  { return runService(cfg, true) }

// runService runs the cold or the hit workload. Cold: every job is a new
// spec, so it is simulated, checkpointed every frame, and written to the
// WAL and snapshots; results are checked after the loop. Hit: the hit keys
// are completed and checked first, untimed; every measured job then repeats
// one, served from the owner's result cache, a forward to the owner, or the
// entry node's read-through cache, and is checked as it returns.
func runService(cfg runConfig, hit bool) (*outcome, error) {
	o := newOutcome()
	nodes, setup, err := startTimed(cfg, cfg.traced, hit)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stopNodes(nodes)
		}
	}()

	// Per client: latencies of good replies, replies kept for checking
	// after the loop, and the outcome of replies checked in the loop.
	lat := [2]*latHist{newLatHist(), newLatHist()}
	var kept [2][]reply
	var inLoop [2]outcome
	var next func(c, k int) request
	var handle func(c int, r reply)
	if hit {
		keys := hitKeys(cfg.seed)
		var preload []reply
		for i, k := range keys {
			preload = append(preload, submit(nodes, request{body: k, entry: i % 2}))
		}
		ref, err := reference(requests(preload))
		if err != nil {
			return nil, err
		}
		checkReplies(o, cfg, preload, ref, false)
		next = func(c, k int) request {
			return request{body: keys[(c*len(keys)/2+k)%len(keys)], entry: (c + k) % 2}
		}
		handle = func(c int, r reply) {
			spec := r.req.spec()
			err := r.verdict(ref[spec.Key()], true)
			inLoop[c].check(err == nil, cfg.log, "%s/%s repeat: %v", r.req.body.Alias, r.req.body.Tech, err)
			if r.err == nil {
				lat[c].add(ms(r.latency))
			}
		}
	} else {
		next = newColdRequests(nodes, cfg.seed).request
		handle = func(c int, r reply) {
			kept[c] = append(kept[c], r)
			if r.err == nil {
				lat[c].add(ms(r.latency))
			}
		}
	}

	var before layerSnap
	if cfg.traced {
		if before, err = snapLayers(nodes); err != nil {
			return nil, err
		}
	}
	var minOps int64
	if !cfg.traced {
		minOps = minSamples
	}
	wall := closedLoop(nodes, cfg.seconds, minOps, next, handle)
	// The nodes hold the most after the loop: the results, registry and
	// caches of every job so far.
	heapMB := liveHeapMB()

	v := o.values
	if cfg.traced {
		after, err := snapLayers(nodes)
		if err != nil {
			return nil, err
		}
		serviceLayers(v, after.since(before))
		if err := replayCheckpointed(v, cfg); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := stopNodes(nodes); err != nil {
		return nil, err
	}
	if cfg.traced && hit {
		t := time.Now()
		st, err := store.Open(nodes[0].dir, store.Options{Logger: quiet})
		if err != nil {
			return nil, err
		}
		pool := newPool(st, nil)
		v["store.recover_ms"] = ms(time.Since(t))
		if err := errors.Join(pool.Close(context.Background()), st.Close()); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		if err := writeServiceSpans(cfg, nodes); err != nil {
			return nil, err
		}
	}
	for c := range inLoop {
		o.attempted += inLoop[c].attempted
		o.failed += inLoop[c].failed
	}
	if cold := append(kept[0], kept[1]...); len(cold) > 0 {
		ref, err := reference(requests(cold))
		if err != nil {
			return nil, err
		}
		checkReplies(o, cfg, cold, ref, false)
	}
	if !cfg.traced {
		all := lat[0]
		all.merge(lat[1])
		v["ops_per_s"] = float64(all.n) / wall.Seconds()
		v["op_ms.p50"] = all.quantile(0.5)
		v["op_ms.p95"] = all.quantile(0.95)
		v["setup_s"] = setup
		v["max_heap_mb"] = heapMB
		fmt.Fprintf(cfg.log, "service: %d good jobs in %.1fs\n", all.n, wall.Seconds())
	}
	return o, os.RemoveAll(filepath.Join(cfg.out, "data"))
}

// mergeHist sums histogram snapshots with identical bounds.
func mergeHist(hs ...stats.HistSnapshot) stats.HistSnapshot {
	var m stats.HistSnapshot
	for _, h := range hs {
		if len(h.Bounds) == 0 {
			continue
		}
		if m.Bounds == nil {
			m = stats.HistSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Bounds))}
		}
		for i := range h.Counts {
			m.Counts[i] += h.Counts[i]
		}
		m.Sum += h.Sum
		m.Count += h.Count
	}
	return m
}

// layerSnap holds the counters and histograms the pools, clusters and
// stores export, and the server's /v1/jobs latency from /v1/metrics,
// summed over both nodes at one moment.
type layerSnap struct {
	count map[string]uint64
	hist  map[string]stats.HistSnapshot
}

func snapLayers(nodes []*node) (layerSnap, error) {
	s := layerSnap{count: map[string]uint64{}, hist: map[string]stats.HistSnapshot{}}
	addHist := func(name string, h stats.HistSnapshot) { s.hist[name] = mergeHist(s.hist[name], h) }
	for _, n := range nodes {
		pm := n.pool.Metrics()
		s.count["submitted"] += pm.Submitted.Load()
		s.count["deduped"] += pm.Deduped.Load()
		s.count["cache_hits"] += pm.CacheHits.Load()
		s.count["retries"] += pm.Retries.Load()
		s.count["failed"] += pm.Failed.Load()
		for _, stage := range []string{jobs.StageQueue, jobs.StageBuild, jobs.StageSimulate} {
			if h := pm.StageHist(stage); h != nil {
				addHist(stage, h.Snapshot())
			}
		}
		cm := n.clus.Metrics()
		s.count["forwarded"] += cm.Forwarded.Load()
		s.count["readthrough"] += cm.ReadThroughHits.Load()
		addHist("forward", cm.ForwardSeconds.Snapshot())

		resp, err := http.Get("http://" + n.addr + apihttp.PathMetrics)
		if err != nil {
			return s, err
		}
		pt, err := promtext.Parse(resp.Body)
		resp.Body.Close()
		if err != nil {
			return s, err
		}
		if h, ok := pt.Histogram("resvc_http_request_duration_seconds", map[string]string{"route": apihttp.PathJobs}); ok {
			addHist("request", h)
		}
	}
	return s, nil
}

// since returns what s accumulated after before.
func (s layerSnap) since(before layerSnap) layerSnap {
	d := layerSnap{count: map[string]uint64{}, hist: map[string]stats.HistSnapshot{}}
	for k, v := range s.count {
		d.count[k] = v - before.count[k]
	}
	for k, h := range s.hist {
		b := before.hist[k]
		if len(b.Bounds) == 0 {
			d.hist[k] = h
			continue
		}
		dh := stats.HistSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts)), Sum: h.Sum - b.Sum, Count: h.Count - b.Count}
		for i := range h.Counts {
			dh.Counts[i] = h.Counts[i] - b.Counts[i]
		}
		d.hist[k] = dh
	}
	return d
}

// serviceLayers reports the per-layer metrics of the measured loop.
func serviceLayers(v map[string]float64, d layerSnap) {
	q := func(name string, p float64) float64 { return d.hist[name].Quantile(p) * 1e3 }
	v["jobs.queue_ms.p50"] = q(jobs.StageQueue, 0.5)
	v["jobs.queue_ms.p95"] = q(jobs.StageQueue, 0.95)
	v["jobs.build_ms.p50"] = q(jobs.StageBuild, 0.5)
	v["jobs.simulate_ms.p50"] = q(jobs.StageSimulate, 0.5)
	if n := d.count["submitted"]; n > 0 {
		v["jobs.dedup_ratio"] = float64(d.count["deduped"]) / float64(n)
		v["jobs.cache_hit_ratio"] = float64(d.count["cache_hits"]) / float64(n)
	}
	v["jobs.retries"] = float64(d.count["retries"])
	v["jobs.failed"] = float64(d.count["failed"])
	v["server.request_ms.p50"] = q("request", 0.5)
	v["cluster.forwarded"] = float64(d.count["forwarded"])
	v["cluster.forward_ms.p50"] = q("forward", 0.5)
	v["cluster.forward_ms.p95"] = q("forward", 0.95)
	if n := d.count["forwarded"] + d.count["readthrough"]; n > 0 {
		v["cluster.readthrough_hit_ratio"] = float64(d.count["readthrough"]) / float64(n)
	}
}

// replayReps is how many times the checkpointed replay runs.
const replayReps = 3

// replayCheckpointed runs one cold job's spec outside the pool the way a
// durable pool runs it, timing RunFrame, Checkpoint+EncodeBinary and
// SaveCheckpoint, to a store of its own, for every frame.
func replayCheckpointed(v map[string]float64, cfg runConfig) error {
	st, err := store.Open(filepath.Join(cfg.out, "data", "replay"), store.Options{Logger: quiet})
	if err != nil {
		return err
	}
	defer st.Close()
	spec := apihttp.SubmitRequest{Alias: jobAliases[0], Tech: "re", Width: jobW, Height: jobH, Frames: coldFrames, Seed: cfg.seed}
	req := request{body: spec}
	var builds, news, runs, ckpts, saves []float64
	var ckptBytes, runNS, frames int64
	var res gpusim.Result
	for r := 0; r < replayReps; r++ {
		c := simCase{spec.Alias, gpusim.RE}
		tr, sim, build, nw, err := setupCase(c, req.spec().Params, nil)
		if err != nil {
			return err
		}
		builds = append(builds, ms(build))
		news = append(news, ms(nw))
		key := fmt.Sprintf("replay-%d", r)
		res = gpusim.Result{Technique: gpusim.RE, Name: tr.Name}
		for i := range tr.Frames {
			t := time.Now()
			fs := sim.RunFrame(&tr.Frames[i])
			d := time.Since(t)
			runs = append(runs, ms(d))
			runNS += int64(d)
			frames++
			res.Frames = append(res.Frames, fs)
			res.Total.Add(fs)
			if i+1 == len(tr.Frames) {
				break // the pool does not checkpoint after the last frame
			}
			t = time.Now()
			b := sim.Checkpoint().EncodeBinary()
			ckpts = append(ckpts, ms(time.Since(t)))
			ckptBytes += int64(len(b))
			t = time.Now()
			if err := st.SaveCheckpoint(key, i+1, res.Frames, b); err != nil {
				return err
			}
			saves = append(saves, ms(time.Since(t)))
		}
	}
	sum := jobs.Summarize(res)
	v["workload.build_ms"] = median(builds)
	v["gpusim.new_ms"] = median(news)
	v["gpusim.fps.re"] = float64(frames) / (float64(runNS) / 1e9)
	v["gpusim.replay_frame_ms"] = median(runs)
	v["gpusim.checkpoint_ms"] = median(ckpts)
	v["store.checkpoint_bytes"] = float64(ckptBytes) / float64(len(ckpts))
	v["store.save_checkpoint_ms"] = median(saves)
	m := st.Metrics()
	v["store.records_appended"] = float64(m.RecordsAppended.Load())
	v["store.snapshots_written"] = float64(m.SnapshotsWritten.Load())
	v["sim.cycles"] = float64(sum.Cycles)
	v["sim.tiles_skipped_ratio"] = sum.TileSkipFraction
	v["sim.frags_shaded"] = float64(sum.FragsShaded)
	v["sim.dram_bytes"] = float64(sum.DRAMBytes)
	v["sim.energy_mj"] = sum.EnergyMJ
	return nil
}

// writeServiceSpans folds each node's request and forward spans into one
// table per node and writes them out.
func writeServiceSpans(cfg runConfig, nodes []*node) error {
	tables := map[string]spanTable{}
	all := func(obs.Event) bool { return true }
	for i, n := range nodes {
		t := spanTable{}
		foldSpans(t, n.tracer.Events(), all)
		tables[fmt.Sprintf("node%d", i)] = t
	}
	return writeSpans(filepath.Join(cfg.out, "spans.json"), tables)
}
