package gpusim

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"rendelim/internal/api"
	"rendelim/internal/cache"
	"rendelim/internal/core"
	"rendelim/internal/crc"
	"rendelim/internal/dram"
	"rendelim/internal/fb"
	"rendelim/internal/geom"
	"rendelim/internal/obs"
	"rendelim/internal/rast"
	"rendelim/internal/rerr"
	"rendelim/internal/shader"
	"rendelim/internal/sig"
	"rendelim/internal/texture"
	"rendelim/internal/tiling"
	"rendelim/internal/timing"
)

// drawRec snapshots the pipeline state a drawcall was issued under, so the
// raster phase (which runs after the whole geometry phase) shades with the
// right programs, textures and constants.
type drawRec struct {
	pipe     api.SetPipeline
	uniforms [api.SignedUniforms]geom.Vec4
	numAttrs int
}

// triRec is one binned screen-space triangle.
type triRec struct {
	st   rast.ScreenTri
	draw int
}

// progSlot is one program ID's entry: its decoded code (what both VMs run)
// and its read masks (what the memo hash covers).
type progSlot struct {
	code   shader.Code
	in     uint16
	consts uint32
}

// set installs p, decoding into the slot's existing code storage so a
// warmed upload allocates nothing. A nil p (an ID no upload has filled)
// leaves the slot empty.
func (sl *progSlot) set(p *shader.Program) {
	sl.code = sl.code[:0]
	if p != nil {
		sl.code = p.Decode(sl.code)
	}
	sl.in, sl.consts = p.ReadMasks()
}

// dramPort routes all traffic into the DRAM model while attributing bytes
// to the simulator's current traffic class.
type dramPort struct{ s *Simulator }

func (p dramPort) Read(addr uint64, size int) int {
	p.s.frame.Traffic[p.s.curClass] += uint64(size)
	return p.s.dram.Read(addr, size)
}

func (p dramPort) Write(addr uint64, size int) int {
	p.s.frame.Traffic[p.s.curClass] += uint64(size)
	return p.s.dram.Write(addr, size)
}

// Simulator replays a trace on the modeled GPU. Create one per (trace,
// config) pair; it is not safe for concurrent use (the tile-worker
// parallelism it manages internally is invisible to callers and never
// changes simulated results — see parallel.go).
type Simulator struct {
	cfg   Config
	trace *api.Trace

	fbuf      *fb.FrameBuffer
	state     *api.State
	binner    *tiling.Binner
	re        *core.Controller
	teBuf     *sig.Buffer
	teCRC     crc.ComputeUnit
	memo      *memoState
	dram      *dram.DRAM
	vcache    *cache.Cache
	tcache    [4]*cache.Cache
	tilecache *cache.Cache
	l2        *cache.Cache

	// The program and texture tables, by ID: the trace's registries
	// overlaid with the uploads executed so far. regTextures holds the
	// registry textures, synthesized once in New; textures are immutable,
	// so both tables may share them.
	programs    []progSlot
	textures    []*texture.Texture
	regTextures []*texture.Texture

	vsExec shader.Exec

	// Raster-phase execution (parallel.go): resolved worker count and the
	// persistent workers holding all per-goroutine mutable state.
	tileWorkers int
	workers     []*rasterWorker

	// arena owns all per-frame scratch, reused across frames (arena.go);
	// frame points at its Stats while RunFrame is executing.
	arena      frameArena
	frame      *Stats
	curClass   TrafficClass
	frameIdx   int
	clearColor uint32
	skipCounts []uint32
	signedPipe api.SetPipeline
	pipeSigned bool

	// tracer is the shared sink worker threads register tracks on; tr is the
	// pipeline-stage tracing track. Both are nil when tracing is off, and
	// every emission site is gated on that nil so the disabled path costs
	// nothing (see obs.BenchmarkTracerDisabled).
	tracer *obs.Tracer
	tr     *obs.Thread
}

// New builds a simulator for the trace. The trace is validated; textures are
// synthesized and placed in the simulated address map.
func New(trace *api.Trace, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := trace.Validate(); err != nil {
		return nil, fmt.Errorf("gpusim: %w: %v", rerr.ErrBadTrace, err)
	}
	s := &Simulator{cfg: cfg, trace: trace}
	s.dram = dram.New(cfg.DRAM)
	// DRAM accesses happen only on serial phases (geometry and raster
	// commit), never inside parallel render workers, so injected panics
	// always unwind through RunFrame on the calling goroutine.
	s.dram.Fault = cfg.Fault
	port := dramPort{s}
	s.l2 = cache.New(cfg.L2Cache, port)
	s.vcache = cache.New(cfg.VertexCache, s.l2)
	for i := range s.tcache {
		tc := cfg.TextureCache
		tc.Name = fmt.Sprintf("texture%d", i)
		s.tcache[i] = cache.New(tc, s.l2)
	}
	s.tilecache = cache.New(cfg.TileCache, s.l2)

	s.fbuf = fb.NewFrameBuffer(trace.Width, trace.Height, addrFBBase)
	s.state = api.NewState()
	s.binner = tiling.NewBinner(trace.Width, trace.Height, addrParamBase)
	s.binner.SetExact(cfg.ExactBinning)
	s.re = core.New(core.Config{Sig: cfg.Sig, RefreshInterval: cfg.RefreshInterval}, s.fbuf.NumTiles())
	s.teBuf = sig.NewBuffer(s.fbuf.NumTiles())
	s.memo = newMemoState(s.fbuf.NumTiles(), cfg.MemoLUTEntries)

	s.regTextures = make([]*texture.Texture, len(trace.Textures))
	for i, spec := range trace.Textures {
		s.regTextures[i] = spec.Build(i)
		s.regTextures[i].Base = addrTexBase + uint64(i)<<24
	}
	s.resetTables()
	s.clearColor = texture.PackColor(trace.ClearColor)
	s.skipCounts = make([]uint32, s.fbuf.NumTiles())

	// Worker state persists across frames.
	nw := TileWorkerCount(cfg.TileWorkers)
	s.tileWorkers = nw
	s.workers = make([]*rasterWorker, nw)
	for i := range s.workers {
		s.workers[i] = newRasterWorker(s, i)
	}

	if cfg.Tracer != nil {
		s.tracer = cfg.Tracer
		s.tr = cfg.Tracer.Thread("sim " + trace.Name + " [" + cfg.Technique.String() + "]")
	}
	return s, nil
}

// TileWorkerCount resolves a Config.TileWorkers value to the number of
// raster workers a simulator runs: negative means one per host CPU
// (runtime.GOMAXPROCS), and 0 and 1 both mean serial.
func TileWorkerCount(n int) int {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// SetTracer (re)binds the simulator to a trace sink, opening a new track.
// A nil tracer disables tracing.
func (s *Simulator) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.tr = t.Thread("sim " + s.trace.Name + " [" + s.cfg.Technique.String() + "]")
	for _, w := range s.workers {
		w.tr = nil // re-register lazily on the new sink
	}
}

// SkipCounts returns how many times each tile was bypassed so far, indexed
// by tile id — the data behind skip heat-maps (cmd/resim -heatmap).
func (s *Simulator) SkipCounts() []uint32 {
	out := make([]uint32, len(s.skipCounts))
	copy(out, s.skipCounts)
	return out
}

// TilesX returns the tile-grid width, for rendering skip maps.
func (s *Simulator) TilesX() int { return s.fbuf.TilesX() }

// NumTiles returns the screen's tile count.
func (s *Simulator) NumTiles() int { return s.fbuf.NumTiles() }

// FrameBufferSnapshot copies the currently displayed frame (front buffer),
// for image-diff tests and examples.
func (s *Simulator) FrameBufferSnapshot() []uint32 {
	out := make([]uint32, len(s.fbuf.Front()))
	copy(out, s.fbuf.Front())
	return out
}

// Result is a whole-run outcome.
type Result struct {
	Technique Technique
	Name      string
	Frames    []Stats
	Total     Stats

	// FBCRC is the CRC32 of the displayed framebuffer after the final
	// frame, set when a run completes every frame. It extends result
	// comparisons (chaos soak, determinism tests) to the rendered pixels
	// without carrying the framebuffer itself.
	FBCRC uint32
}

// Run replays every frame of the trace and aggregates statistics.
func (s *Simulator) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext replays frames until the trace ends or ctx is done, checking
// cancellation cooperatively at frame boundaries (a frame is the smallest
// unit of simulated work; mid-frame state is never left half-committed).
// The partial Result accumulated so far is returned alongside ctx.Err().
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	res := Result{Technique: s.cfg.Technique, Name: s.trace.Name}
	res.Frames = make([]Stats, 0, len(s.trace.Frames))
	for i := range s.trace.Frames {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		fs := s.RunFrame(&s.trace.Frames[i])
		res.Frames = append(res.Frames, fs)
		res.Total.Add(fs)
	}
	res.FBCRC = s.FrameBufferCRC()
	return res, nil
}

// FrameBufferCRC signs the displayed (front) buffer; see Result.FBCRC. The
// serialization scratch lives in the frame arena so per-frame CRC checks
// (determinism soaks, chaos tests) do not allocate.
//
//re:hotpath
func (s *Simulator) FrameBufferCRC() uint32 {
	front := s.fbuf.Front()
	if cap(s.arena.crcBuf) < len(front)*4 {
		s.arena.crcBuf = make([]byte, len(front)*4)
	}
	buf := s.arena.crcBuf[:len(front)*4]
	for i, px := range front {
		buf[i*4] = byte(px)
		buf[i*4+1] = byte(px >> 8)
		buf[i*4+2] = byte(px >> 16)
		buf[i*4+3] = byte(px >> 24)
	}
	return crc.Checksum(buf)
}

// RunFrame executes one frame and returns its statistics.
//
//re:hotpath
func (s *Simulator) RunFrame(frame *api.Frame) Stats {
	s.arena.beginFrame()
	st := &s.arena.stats
	s.frame = st
	if s.tr != nil {
		s.tr.BeginArg("frame", "frame", int64(s.frameIdx))
	}

	// Snapshot cumulative counters to diff at frame end.
	dramBefore := s.dram.Stats
	suBefore := s.re.Unit().Stats
	sbBefore := s.re.Unit().Buffer().Reads + s.re.Unit().Buffer().Writes
	teCRCBefore := s.teCRC.Stats
	teBufBefore := s.teBuf.Reads + s.teBuf.Writes
	vsBefore := s.vsExec.Counts
	cacheBefore := [4]cache.Stats{s.vcache.Stats, s.tcache[0].Stats, s.tilecache.Stats, s.l2.Stats}
	var tcacheBefore cache.Stats
	for _, tc := range s.tcache {
		tcacheBefore.Add(tc.Stats)
	}

	s.state.BeginFrame()
	s.re.BeginFrame()
	s.binner.Reset()
	s.pipeSigned = false // sign the first bound pipeline of each frame

	var geo timing.GeometryWork
	mrt := false
	if s.tr != nil {
		s.tr.Begin("geometry")
	}
	for _, cmd := range frame.Commands {
		switch c := cmd.(type) {
		case api.Draw:
			s.processDraw(c, st, &geo)
			continue
		case api.SetRenderTargets:
			if c.N > 1 {
				mrt = true
			}
		case api.SetUniforms:
			s.arena.pendingConsts = api.AppendUniformRecord(s.arena.pendingConsts, c)
		}
		s.apply(cmd)
	}

	// RE disable rules (Section III-E): shader/texture uploads invalidate
	// stale baselines and render normally; MRT frames render normally.
	if s.state.UploadsThisFrame {
		s.re.OnGlobalStateChange()
	}
	if mrt {
		s.re.DisableFrame()
	}

	geo.PBWriteBytes = s.binner.WrittenBytes()
	if s.cfg.Technique == RE {
		geo.SUStallCycles = s.re.Unit().Stats.StallCycles - suBefore.StallCycles
		st.SUStallCycles = geo.SUStallCycles
	}
	st.GeometryCycles = s.cfg.Timing.GeometryCycles(geo)
	vtx, til := s.cfg.Timing.GeometryStageCycles(geo)
	st.StageCycles[StageVertex] += vtx
	st.StageCycles[StageTiling] += til
	st.StageCycles[StageSigCheck] += geo.SUStallCycles
	if s.tr != nil {
		s.tr.End() // geometry
		s.tr.Begin("raster")
	}

	s.rasterPhase(st)
	if s.tr != nil {
		s.tr.End() // raster
	}

	s.re.EndFrame()
	if s.cfg.Technique == TE {
		s.teBuf.EndFrame()
	}
	s.fbuf.Swap()

	// Assemble the energy-model activity from counter deltas.
	// (FSInstructions is accumulated per tile by the raster commit stage —
	// fragment shaders run on per-worker VMs, so there is no single
	// cumulative counter to diff.)
	a := &st.Activity
	a.VSInstructions = s.vsExec.Counts.Instructions - vsBefore.Instructions
	a.VertexCacheAccesses = s.vcache.Stats.Accesses - cacheBefore[0].Accesses
	var tcacheNow cache.Stats
	for _, tc := range s.tcache {
		tcacheNow.Add(tc.Stats)
	}
	a.TextureCacheAccesses = tcacheNow.Accesses - tcacheBefore.Accesses
	a.TileCacheAccesses = s.tilecache.Stats.Accesses - cacheBefore[2].Accesses
	a.L2Accesses = s.l2.Stats.Accesses - cacheBefore[3].Accesses
	a.VerticesFetched = st.Vertices
	a.TrianglesSetup = st.Triangles
	a.QuadsTested = st.QuadsTested
	a.FragmentsBlended = st.FragsRasterized

	switch s.cfg.Technique {
	case RE:
		su := s.re.Unit()
		su.SyncStats()
		a.SigBufferAccesses = su.Buffer().Reads + su.Buffer().Writes - sbBefore
		a.CRCLUTAccesses = (su.Stats.Compute.LUTAccesses + su.Stats.Accumulate.LUTAccesses) -
			(suBefore.Compute.LUTAccesses + suBefore.Accumulate.LUTAccesses)
		a.BitmapAccesses = (su.Stats.BitmapReads + su.Stats.BitmapWrites) -
			(suBefore.BitmapReads + suBefore.BitmapWrites)
		a.OTQueueAccesses = su.Stats.TileUpdates - suBefore.TileUpdates
	case TE:
		a.SigBufferAccesses = s.teBuf.Reads + s.teBuf.Writes - teBufBefore
		a.CRCLUTAccesses = s.teCRC.Stats.LUTAccesses - teCRCBefore.LUTAccesses
	}

	dNow := s.dram.Stats
	a.DRAMBytes = dNow.TotalBytes() - dramBefore.TotalBytes()
	a.DRAMActivations = dNow.RowMisses - dramBefore.RowMisses
	a.DRAMRequests = (dNow.Reads + dNow.Writes) - (dramBefore.Reads + dramBefore.Writes)
	a.Cycles = st.TotalCycles()

	if s.tr != nil {
		s.tr.Counter("tiles-skipped", "skipped", int64(st.TilesSkipped))
		// Per-frame elimination ratio in permille (counter args are ints):
		// the live, per-frame form of the Figure 15a distribution that the
		// service also aggregates into resvc_sim_frame_eliminated_ratio.
		s.tr.Counter("eliminated-ratio", "permille", int64(st.SkipFraction()*1000))
		s.tr.End() // frame
	}
	s.frameIdx++
	s.frame = nil
	return *st
}

// apply folds one non-draw command into the API state and, for uploads,
// into the program and texture tables. It is the only code that mutates
// those tables after New: RunFrame calls it for every command it executes,
// and Resume replays the trace's earlier frames through it.
//
//re:hotpath
func (s *Simulator) apply(cmd api.Command) {
	s.state.Apply(cmd)
	switch c := cmd.(type) {
	case api.UploadProgram:
		for int(c.ID) >= len(s.programs) {
			// The table persists across frames and grows once to the
			// trace's program-ID high-water mark.
			//re:arena
			s.programs = append(s.programs, progSlot{})
		}
		s.programs[c.ID].set(c.Program)
	case api.UploadTexture:
		for int(c.ID) >= len(s.textures) {
			// Persists across frames; grows once per new texture ID.
			//re:arena
			s.textures = append(s.textures, nil)
		}
		t := c.Spec.Build(int(c.ID))
		t.Base = addrTexBase + uint64(c.ID)<<24
		s.textures[c.ID] = t
	}
}

// resetTables sets the program and texture tables back to the trace's
// registries, reusing every program slot's decode storage.
func (s *Simulator) resetTables() {
	progs := s.trace.Programs
	s.programs = slices.Grow(s.programs[:0], len(progs))[:len(progs)]
	for i, p := range progs {
		s.programs[i].set(p)
	}
	s.textures = append(s.textures[:0], s.regTextures...)
}

// accessExtra performs a cache access and returns the latency beyond the
// pipelined hit time, i.e. the stall contribution.
func (s *Simulator) accessExtra(c *cache.Cache, addr uint64, size int, write bool) uint64 {
	lat := c.Access(addr, size, write)
	lines := 0
	lb := c.Config().LineBytes
	for size > 0 {
		chunk := lb - int(addr)%lb
		if chunk > size {
			chunk = size
		}
		lines++
		addr += uint64(chunk)
		size -= chunk
	}
	base := lines * c.Config().Latency
	if lat > base {
		return uint64(lat - base)
	}
	return 0
}

// processDraw runs the geometry pipeline for one draw command.
//
//re:hotpath
func (s *Simulator) processDraw(d api.Draw, st *Stats, geo *timing.GeometryWork) {
	if d.Validate() != nil || d.TriangleCount() == 0 {
		return
	}
	// The record is built in place in the arena, not copied in from a
	// local.
	drawIdx := len(s.arena.draws)
	//re:arena
	s.arena.draws = append(s.arena.draws, drawRec{})
	rec := &s.arena.draws[drawIdx]
	rec.pipe = s.state.Pipeline
	rec.numAttrs = d.NumAttrs
	copy(rec.uniforms[:], s.state.SignedConstants())

	// Render-state changes are signed alongside the constants: rebinding a
	// program/texture/blend/depth mode changes tile outputs just like a
	// uniform does.
	if !s.pipeSigned || s.signedPipe != rec.pipe {
		s.arena.pendingConsts = api.AppendPipelineRecord(s.arena.pendingConsts, rec.pipe)
		s.signedPipe = rec.pipe
		s.pipeSigned = true
	}

	// A pending uniform or state update opens a new constants epoch in the
	// Signature Unit.
	if len(s.arena.pendingConsts) > 0 {
		s.re.OnConstants(s.arena.pendingConsts)
		s.arena.pendingConsts = s.arena.pendingConsts[:0]
	}

	// Vertex fetch through the vertex cache (static VBO layout: the same
	// simulated addresses every frame).
	if s.tr != nil {
		s.tr.BeginArg("vertex-shading", "draw", int64(drawIdx))
	}
	nv := d.VertexCount()
	st.Vertices += uint64(nv)
	vbase := uint64(addrVertexBase) + uint64(drawIdx)*addrVertexStride
	vbytes := nv * d.VertexBytes()
	geo.VertexBytes += uint64(vbytes)
	s.curClass = TrafficVertex
	for off := 0; off < vbytes; off += 64 {
		n := 64
		if vbytes-off < n {
			n = vbytes - off
		}
		geo.VertexMissCycles += s.accessExtra(s.vcache, vbase+uint64(off), n, false)
	}

	// Vertex shading.
	vs := s.programs[rec.pipe.VS].code
	s.vsExec.SetConsts(rec.uniforms[:])
	in, out := s.vsExec.In(), s.vsExec.Out()
	shaded := s.arena.shaded(nv)
	for v := 0; v < nv; v++ {
		copy(in[:], d.Vertex(v))
		s.vsExec.Run(vs)
		shaded[v].Pos = out[0]
		for i := 0; i < rast.MaxVaryings; i++ {
			shaded[v].Var[i] = out[i+1]
		}
	}
	geo.VSInstructions += uint64(nv * len(vs))
	if s.tr != nil {
		s.tr.End() // vertex-shading
		s.tr.BeginArg("tiling", "draw", int64(drawIdx))
	}

	// Primitive assembly: clip, cull, bin, and sign.
	producer := uint64(len(vs)*3 + 4)
	nVaryings := d.NumAttrs - 1
	pbBytesPerTri := 3 * (1 + nVaryings) * 16
	for tri := 0; tri < d.TriangleCount(); tri++ {
		st.Triangles++
		s.arena.clipScratch = rast.ClipNear(s.arena.clipScratch[:0],
			rast.Triangle{V: [3]rast.Vertex{
				shaded[d.TriVertexIndex(tri, 0)],
				shaded[d.TriVertexIndex(tri, 1)],
				shaded[d.TriVertexIndex(tri, 2)],
			}})
		for ci := range s.arena.clipScratch {
			stri, ok := rast.Setup(s.arena.clipScratch[ci], s.trace.Width, s.trace.Height, rec.pipe.CullBack)
			if !ok {
				continue
			}
			ref := tiling.PrimRef{Draw: drawIdx, Tri: len(s.arena.tris)}
			tiles := s.binner.Insert(&stri, ref, d.NumAttrs, pbBytesPerTri)
			if len(tiles) == 0 {
				continue
			}
			//re:arena
			s.arena.tris = append(s.arena.tris, triRec{st: stri, draw: drawIdx})
			st.Binned++
			geo.BinTilePairs += uint64(len(tiles))

			// Parameter Buffer writes through the L2.
			s.curClass = TrafficPBWrite
			entry := s.binner.Bin(tiles[0])
			s.l2.Access(entry[len(entry)-1].Addr, pbBytesPerTri, true)
			for _, tile := range tiles {
				s.l2.Access(s.binner.PtrAddr(tile)+uint64(len(s.binner.Bin(tile)))*tiling.PtrEntryBytes, tiling.PtrEntryBytes, true)
			}

			// Sign the primitive's submitted attributes (Section III-E).
			s.arena.primScratch = api.AppendPrimitive(s.arena.primScratch[:0], d, tri)
			s.re.OnPrimitive(s.arena.primScratch, tiles, producer)
		}
	}
	if s.tr != nil {
		s.tr.End() // tiling
	}
}

// dramWrite issues a classified direct-to-DRAM write (tile flush path).
func (s *Simulator) dramWrite(addr uint64, size int) {
	s.frame.Traffic[s.curClass] += uint64(size)
	s.dram.Write(addr, size)
}
