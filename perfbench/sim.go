package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"rendelim/internal/api"
	"rendelim/internal/energy"
	"rendelim/internal/gpusim"
	"rendelim/internal/obs"
	"rendelim/internal/workload"
)

// simWorkload runs simulations directly on gpusim, one at a time, with
// tiles rendered serially. A round runs every case once from a fresh trace
// build; rounds repeat until the time budget is spent.
type simWorkload struct {
	name          string
	cases         []simCase
	width, height int
	frames        int
	// warm frames of each case run untimed: RE compares against signatures
	// from two frames back, so it cannot skip a tile before frame 2.
	warm int
	// refFrames is how many frames per case are checked, in the first
	// round, against a baseline render of that frame alone. The baseline
	// GPU renders every tile of every frame, so its output for one frame
	// does not depend on the frames before it.
	refFrames int
}

type simCase struct {
	alias string
	tech  gpusim.Technique
}

var allTechs = []gpusim.Technique{gpusim.Baseline, gpusim.RE, gpusim.TE, gpusim.Memo}

// suite is the paper's evaluation matrix: all ten Table II aliases under
// all four techniques. Baseline runs first per alias so the other three
// techniques' framebuffers can be checked against it.
var suite = func() simWorkload {
	w := simWorkload{name: "suite", width: 480, height: 272, frames: 5, warm: 2}
	for _, b := range workload.Suite() {
		for _, t := range allTechs {
			w.cases = append(w.cases, simCase{b.Alias, t})
		}
	}
	return w
}()

// reCoherent runs RE alone over long traces of the four static-camera
// aliases, where most tiles are eliminated and per-frame fixed costs weigh
// most.
var reCoherent = simWorkload{
	name: "re-coherent", width: 480, height: 272, frames: 300, warm: 2, refFrames: 6,
	cases: []simCase{{"ccs", gpusim.RE}, {"cde", gpusim.RE}, {"coc", gpusim.RE}, {"ctr", gpusim.RE}},
}

// setupReps is how many times a run times set-up; setup_s is the median.
const setupReps = 15

// traceChunk is how many frames a tracer records before its events are
// folded and a fresh tracer takes over, bounding trace memory.
const traceChunk = 16

// caseRun is one case's outcome in one round.
type caseRun struct {
	total gpusim.Stats // every frame, warm-up included
	fbcrc uint32       // displayed framebuffer after the last frame
	// refs maps a checked frame index to the displayed framebuffer's CRC.
	refs map[int]uint32
}

// simRound aggregates one round.
type simRound struct {
	cases   []caseRun
	frameMS []float64 // every timed RunFrame call, in ms
	runNS   int64     // sum of timed RunFrame calls
	techNS  [4]int64  // runNS split by technique
	techN   [4]int64  // timed frames split by technique
	timed   gpusim.Stats
	buildNS int64
	newNS   int64
	mallocs uint64 // heap allocations during timed frames, when measured
	bytes   uint64
	heapMB  float64              // largest live heap after a case's set-up or last frame, when measured
	spans   map[string]spanTable // by case label, traced rounds only
}

func (w *simWorkload) params(seed int64) workload.Params {
	return workload.Params{Width: w.width, Height: w.height, Frames: w.frames, Seed: seed}
}

func (w *simWorkload) timedFrames() int { return len(w.cases) * (w.frames - w.warm) }

// refFrameSet picks the frames of a case checked against the baseline:
// spread over the timed frames, offset by the seed, always the last one.
func (w *simWorkload) refFrameSet(seed int64) map[int]bool {
	set := map[int]bool{}
	if w.refFrames == 0 {
		return set
	}
	span := w.frames - w.warm
	step := span / w.refFrames
	off := int(uint64(seed) % uint64(step))
	for i := 0; i < w.refFrames-1; i++ {
		set[w.warm+off+i*step] = true
	}
	set[w.frames-1] = true
	return set
}

// setup builds one case's trace and simulator, timing each part.
func setupCase(c simCase, p workload.Params, tracer *obs.Tracer) (*api.Trace, *gpusim.Simulator, time.Duration, time.Duration, error) {
	t0 := time.Now()
	b, err := workload.ByAlias(c.alias)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	tr := b.Build(p)
	build := time.Since(t0)
	cfg := gpusim.DefaultConfig()
	cfg.Technique = c.tech
	cfg.Tracer = tracer
	t1 := time.Now()
	sim, err := gpusim.New(tr, cfg)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return tr, sim, build, time.Since(t1), nil
}

// setupSeconds times set-up of every case of a round setupReps times and
// returns the median in seconds.
func (w *simWorkload) setupSeconds(seed int64) (float64, error) {
	var reps []float64
	for r := 0; r < setupReps; r++ {
		var total time.Duration
		for _, c := range w.cases {
			_, _, build, nw, err := setupCase(c, w.params(seed), nil)
			if err != nil {
				return 0, err
			}
			total += build + nw
		}
		reps = append(reps, total.Seconds())
	}
	return median(reps), nil
}

// pass says how a round runs its cases: traced, counting allocations in
// the timed frames, or reading the live heap (outside the timed frames)
// once a case is set up and after its last frame.
type pass struct{ traced, countAllocs, measureHeap bool }

// round runs every case once under each pass and returns one simRound per
// pass. A case's passes run back to back, so they see the same host
// conditions: the traced/untraced ratio is not skewed by drift.
func (w *simWorkload) round(seed int64, passes []pass) ([]*simRound, error) {
	rs := make([]*simRound, len(passes))
	for i, p := range passes {
		rs[i] = &simRound{frameMS: make([]float64, 0, w.timedFrames())}
		if p.traced {
			rs[i].spans = map[string]spanTable{}
		}
	}
	refs := w.refFrameSet(seed)
	for _, c := range w.cases {
		for i, p := range passes {
			if err := w.runCase(c, seed, p, refs, rs[i]); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// runCase runs one case from a fresh set-up and adds it to r.
func (w *simWorkload) runCase(c simCase, seed int64, p pass, refs map[int]bool, r *simRound) error {
	var tracer *obs.Tracer
	if p.traced {
		tracer = obs.NewTracer()
	}
	tr, sim, build, nw, err := setupCase(c, w.params(seed), tracer)
	if err != nil {
		return err
	}
	r.buildNS += int64(build)
	r.newNS += int64(nw)
	if p.measureHeap {
		r.heapMB = max(r.heapMB, liveHeapMB())
	}
	// The CRC scratch buffer is allocated on first use; take it here so it
	// does not count as a steady-state allocation.
	sim.FrameBufferCRC()
	cr := caseRun{refs: map[int]uint32{}}
	spans := spanTable{}
	keep := func(root obs.Event) bool {
		f, _ := root.Args["frame"].(int64)
		return root.Name == "frame" && int(f) >= w.warm
	}
	var before, after runtime.MemStats
	for i := range tr.Frames {
		if i == w.warm && p.countAllocs {
			runtime.ReadMemStats(&before)
		}
		t := time.Now()
		st := sim.RunFrame(&tr.Frames[i])
		d := time.Since(t)
		cr.total.Add(st)
		if i >= w.warm {
			r.frameMS = append(r.frameMS, ms(d))
			r.runNS += int64(d)
			r.techNS[c.tech] += int64(d)
			r.techN[c.tech]++
			r.timed.Add(st)
		}
		if refs[i] {
			cr.refs[i] = sim.FrameBufferCRC()
		}
		if p.traced && ((i+1)%traceChunk == 0 || i == len(tr.Frames)-1) {
			foldSpans(spans, tracer.Events(), keep)
			tracer = obs.NewTracer()
			sim.SetTracer(tracer)
		}
	}
	if p.countAllocs {
		runtime.ReadMemStats(&after)
		r.mallocs += after.Mallocs - before.Mallocs
		r.bytes += after.TotalAlloc - before.TotalAlloc
	}
	cr.fbcrc = sim.FrameBufferCRC()
	if p.measureHeap {
		r.heapMB = max(r.heapMB, liveHeapMB())
	}
	r.cases = append(r.cases, cr)
	if p.traced {
		r.spans[c.alias+"/"+c.tech.String()] = spans
	}
	return nil
}

// check checks a round's outputs. Every round: each case's final
// framebuffer equals its alias's baseline. Later rounds: each case repeats
// the first round's counters and framebuffer exactly. First round: the
// sampled frames match a baseline render of that frame alone.
func (w *simWorkload) check(o *outcome, cfg runConfig, r, first *simRound) error {
	base := map[string]uint32{}
	for i, c := range w.cases {
		if c.tech == gpusim.Baseline {
			base[c.alias] = r.cases[i].fbcrc
		}
	}
	for i, c := range w.cases {
		cr := r.cases[i]
		ok := true
		if b, found := base[c.alias]; found && cr.fbcrc != b {
			fmt.Fprintf(cfg.log, "%s/%s: framebuffer %08x, baseline %08x\n", c.alias, c.tech, cr.fbcrc, b)
			ok = false
		}
		if first != r {
			if f := first.cases[i]; f.total != cr.total || f.fbcrc != cr.fbcrc {
				fmt.Fprintf(cfg.log, "%s/%s: counters or framebuffer differ from the first round\n", c.alias, c.tech)
				ok = false
			}
		} else if len(cr.refs) > 0 {
			bad, err := w.checkRefs(c, cfg.seed, cr.refs)
			if err != nil {
				return err
			}
			if bad > 0 {
				fmt.Fprintf(cfg.log, "%s/%s: %d of %d sampled frames differ from baseline\n", c.alias, c.tech, bad, len(cr.refs))
				ok = false
			}
		}
		o.check(ok, cfg.log, "%s %s/%s", w.name, c.alias, c.tech)
	}
	return nil
}

// checkRefs renders each sampled frame alone on a baseline simulator and
// counts the frames whose framebuffer differs from the case's.
func (w *simWorkload) checkRefs(c simCase, seed int64, refs map[int]uint32) (int, error) {
	b, err := workload.ByAlias(c.alias)
	if err != nil {
		return 0, err
	}
	tr := b.Build(w.params(seed))
	bad := 0
	for i, want := range refs {
		one := *tr
		one.Frames = tr.Frames[i : i+1]
		sim, err := gpusim.New(&one, gpusim.DefaultConfig())
		if err != nil {
			return 0, err
		}
		sim.RunFrame(&one.Frames[0])
		if sim.FrameBufferCRC() != want {
			bad++
		}
	}
	return bad, nil
}

// runRounds runs rounds under the given passes until the time budget is
// spent and, when minFrames > 0, at least minFrames frames were timed per
// pass. It checks every round against the run's first and returns the
// rounds of each pass.
func (w *simWorkload) runRounds(o *outcome, cfg runConfig, passes []pass, minFrames int) ([][]*simRound, error) {
	byPass := make([][]*simRound, len(passes))
	var first *simRound
	var spent time.Duration
	for n := 0; roundsFit(n, spent, cfg.seconds) || n*w.timedFrames() < minFrames; n++ {
		t := time.Now()
		rs, err := w.round(cfg.seed, passes)
		if err != nil {
			return nil, err
		}
		spent += time.Since(t)
		for i, r := range rs {
			if first == nil {
				first = r
			}
			if err := w.check(o, cfg, r, first); err != nil {
				return nil, err
			}
			byPass[i] = append(byPass[i], r)
		}
	}
	return byPass, nil
}

func runSuite(cfg runConfig) (*outcome, error)      { return suite.run(cfg) }
func runRECoherent(cfg runConfig) (*outcome, error) { return reCoherent.run(cfg) }

func (w *simWorkload) run(cfg runConfig) (*outcome, error) {
	// One simulation with serial tiles keeps one CPU busy. A second P only
	// lets the simulating goroutine and the GC move between CPUs, which
	// made frame times less steady from run to run on a shared 2-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := newOutcome()
	if !cfg.traced {
		setup, err := w.setupSeconds(cfg.seed)
		if err != nil {
			return nil, err
		}
		byPass, err := w.runRounds(o, cfg, []pass{{measureHeap: true}}, minSamples)
		if err != nil {
			return nil, err
		}
		rounds := byPass[0]
		var frames []float64
		var runNS int64
		var heapMB float64
		for _, r := range rounds {
			frames = append(frames, r.frameMS...)
			runNS += r.runNS
			heapMB = max(heapMB, r.heapMB)
		}
		o.values["ops_per_s"] = float64(len(frames)) / (float64(runNS) / 1e9)
		o.values["op_ms.p50"] = quantile(frames, 0.5)
		o.values["op_ms.p95"] = quantile(frames, 0.95)
		o.values["setup_s"] = setup
		o.values["max_heap_mb"] = heapMB
		fmt.Fprintf(cfg.log, "%s: %d rounds, %d timed frames\n", w.name, len(rounds), len(frames))
		return o, nil
	}

	// Traced: each case runs untraced, for the speeds, allocations and
	// counters, then traced, for the self-time split.
	byPass, err := w.runRounds(o, cfg, []pass{{countAllocs: true}, {traced: true}}, 0)
	if err != nil {
		return nil, err
	}
	plain, traced := byPass[0], byPass[1]
	v := o.values
	var builds, news []float64
	var runNS, frames, mallocs, bytes int64
	var techNS, techN [4]int64
	for _, r := range plain {
		builds = append(builds, float64(r.buildNS)/1e6)
		news = append(news, float64(r.newNS)/1e6)
		runNS += r.runNS
		frames += int64(len(r.frameMS))
		mallocs += int64(r.mallocs)
		bytes += int64(r.bytes)
		for t := range techNS {
			techNS[t] += r.techNS[t]
			techN[t] += r.techN[t]
		}
	}
	v["workload.build_ms"] = median(builds)
	v["gpusim.new_ms"] = median(news)
	for _, t := range allTechs {
		if techN[t] > 0 {
			v["gpusim.fps."+t.String()] = float64(techN[t]) / (float64(techNS[t]) / 1e9)
		}
	}
	v["gpusim.steady_allocs_per_frame"] = float64(mallocs) / float64(frames)
	v["gpusim.steady_bytes_per_frame"] = float64(bytes) / float64(frames)

	// Simulated counters: deterministic for a seed, checked to repeat
	// across rounds above; reported for the whole first round.
	var total gpusim.Stats
	var energyMJ float64
	for _, cr := range plain[0].cases {
		total.Add(cr.total)
		energyMJ += energy.Default().Compute(cr.total.Activity).Total() * 1e3
	}
	v["sim.cycles"] = float64(total.TotalCycles())
	v["sim.tiles_skipped_ratio"] = total.SkipFraction()
	v["sim.frags_shaded"] = float64(total.FragsShaded)
	v["sim.dram_bytes"] = float64(total.TotalTraffic())
	v["sim.energy_mj"] = energyMJ

	spans := spanTable{}
	byCase := map[string]spanTable{}
	var tracedNS, tracedFrames int64
	var timed gpusim.Stats
	for _, r := range traced {
		tracedNS += r.runNS
		tracedFrames += int64(len(r.frameMS))
		timed.Add(r.timed)
		for label, t := range r.spans {
			spans.merge(t)
			if byCase[label] == nil {
				byCase[label] = spanTable{}
			}
			byCase[label].merge(t)
		}
	}
	perFrame := func(names ...string) float64 { return float64(spans.self(names...)) / 1e6 / float64(tracedFrames) }
	v["geom.vertex_ms"] = perFrame("vertex-shading")
	v["tiling.bin_ms"] = perFrame("tiling")
	v["sig.re_check_ms"] = perFrame("re-check")
	v["rast.render_ms"] = perFrame("raster-tile", "fragment-shading")
	v["gpusim.commit_ms"] = perFrame("raster")
	v["dram.flush_ms"] = perFrame("dram-flush")
	v["gpusim.frame_other_ms"] = perFrame("frame", "geometry")
	if timed.FragsRasterized > 0 {
		v["rast.ns_per_frag"] = float64(spans.self("raster-tile", "fragment-shading")) / float64(timed.FragsRasterized)
	}
	if acc := timed.Activity.TextureCacheAccesses + timed.Activity.TileCacheAccesses; acc > 0 {
		v["gpusim.commit_ns_per_access"] = float64(spans.self("raster")) / float64(acc)
	}
	untracedFPS := float64(frames) / (float64(runNS) / 1e9)
	tracedFPS := float64(tracedFrames) / (float64(tracedNS) / 1e9)
	v["obs.trace_overhead_ratio"] = untracedFPS / tracedFPS
	v["obs.span_coverage_ratio"] = float64(spans.selfTotal()) / float64(tracedNS)
	fmt.Fprintf(cfg.log, "%s: %d rounds, each case untraced then traced\n", w.name, len(plain))
	return o, writeSpans(filepath.Join(cfg.out, "spans.json"), byCase)
}
