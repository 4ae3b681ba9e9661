package gpusim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"rendelim/internal/api"
	"rendelim/internal/crc"
	"rendelim/internal/fb"
	"rendelim/internal/geom"
	"rendelim/internal/obs"
	"rendelim/internal/rast"
	"rendelim/internal/shader"
	"rendelim/internal/texture"
	"rendelim/internal/tiling"
	"rendelim/internal/timing"
)

// The raster phase runs as a three-stage per-frame pipeline so tiles can be
// rendered on host worker goroutines without changing a single simulated
// number:
//
//  1. decide (serial, tile order): the RE signature check. It mutates shared
//     Signature Unit counters, so it runs exactly where the hardware would
//     perform it — before any tile is scheduled.
//  2. render (parallel): the expensive functional work — Parameter Buffer
//     walk, rasterization, early-Z, fragment shading, blending, memoization,
//     TE color signing and the ground-truth color compare — using only
//     per-worker and per-tile state. Instead of touching the shared
//     (stateful, order-sensitive) cache and DRAM models, a worker records
//     every simulated memory access into the tile's access log.
//  3. commit (serial, tile order): replays each tile's access log through
//     the shared tile/texture/L2/DRAM hierarchy — the LRU stacks and DRAM
//     row buffers therefore observe exactly the access order of a serial
//     run — then performs the TE store/match, flushes the tile to the Frame
//     Buffer, and folds the tile's stats shard into the frame's Stats.
//
// Functional results are independent of the memory models (caches are
// address-domain only; texel values come from the texture store), so the
// render stage needs no memory-system state, and the commit replay
// reproduces timing, traffic and energy activity bit-for-bit. With
// TileWorkers <= 1 the three stages run inline per tile, which is the
// pre-existing serial execution order.

// tileAccess is one recorded simulated memory access of the render stage.
type tileAccess struct {
	addr uint64
	size int32
	unit int8 // texUnitPB for a Parameter Buffer read, else the texture unit
}

// texUnitPB marks an access to the Parameter Buffer through the Tile Cache.
const texUnitPB int8 = -1

// tileShard is the per-tile slice of frame statistics the render stage
// produces; commit folds it into the frame's Stats in tile order.
type tileShard struct {
	quadsTested     uint64
	fragsEarlyZKill uint64
	fragsRasterized uint64
	fragsShaded     uint64
	fragsMemoReused uint64
	depthBufAcc     uint64
	colorBufAcc     uint64
	memoLookups     uint64
	memoHits        uint64
}

// tileResult carries everything one tile's render produced that commit
// needs. Entries are reused across frames; access logs keep their capacity.
type tileResult struct {
	skipped bool // RE bypassed the tile; nothing was rendered

	tw       timing.TileWork
	shard    tileShard
	accesses []tileAccess
	tb       fb.TileBuffer
	eqColor  bool // ground-truth color compare against the back buffer

	teSig      uint32
	teCRCStats crc.UnitStats
}

// reset prepares the entry for a new frame, keeping allocated capacity.
//
//re:hotpath
func (r *tileResult) reset() {
	r.skipped = false
	r.tw = timing.TileWork{}
	r.shard = tileShard{}
	r.accesses = r.accesses[:0]
	r.eqColor = false
	r.teSig = 0
	r.teCRCStats = crc.UnitStats{}
}

// rasterWorker is the private mutable state one raster goroutine needs: a
// fragment-shader VM, a recording texture sampler, the memo hasher and a
// private CRC unit for TE color signing. Workers persist across frames.
type rasterWorker struct {
	s  *Simulator
	id int

	fsExec    shader.Exec
	sampler   workerSampler
	hasher    fragmentHasher
	frag      rast.Fragment // rasterizer fragment scratch (RasterizeInto)
	teCRC     crc.ComputeUnit
	teByteBuf [fb.TileSize * fb.TileSize * 4]byte

	// tr is the worker's own trace track ("raster worker N"); lazily opened
	// so untraced runs pay nothing.
	tr *obs.Thread
}

// workerSampler adapts the texture store to the shader VM, recording each
// texel address into the current tile's access log instead of charging the
// shared texture caches (commit replays the log).
type workerSampler struct {
	res *tileResult
	tex [api.MaxTexUnits]*texture.Texture
}

// Sample implements shader.Sampler. The address-recording callback is a
// capture-free closure over the receiver, so it does not allocate per call;
// the access log append is arena-backed (capacity survives reset).
//
//re:hotpath
func (ws *workerSampler) Sample(unit int, u, v float32) geom.Vec4 {
	t := ws.tex[unit]
	if t == nil {
		return geom.Vec4{}
	}
	//lint:ignore hotpathalloc the closure captures only ws and unit, both live across the call already; escape analysis keeps it on the stack (alloc tests prove 0/tile)
	return t.Sample(u, v, func(addr uint64) {
		//re:arena
		ws.res.accesses = append(ws.res.accesses, tileAccess{addr: addr, size: 4, unit: int8(unit)})
	})
}

// thread returns the worker's trace track, opening it on first use.
func (w *rasterWorker) thread() *obs.Thread {
	if w.tr == nil && w.s.tracer != nil {
		w.tr = w.s.tracer.Thread(fmt.Sprintf("raster worker %d", w.id))
	}
	return w.tr
}

// newRasterWorker builds one worker bound to the simulator's shared
// read-only tables.
func newRasterWorker(s *Simulator, id int) *rasterWorker {
	w := &rasterWorker{s: s, id: id}
	w.fsExec.Sampler = &w.sampler
	return w
}

// decideTile is the serial pre-raster stage: the RE signature check for one
// tile, charging Signature Unit costs in tile order exactly like the
// hardware's raster scheduler.
//
//re:hotpath
func (s *Simulator) decideTile(tile int, res *tileResult) {
	res.reset()
	if s.cfg.Technique == RE && !s.re.Disabled() {
		res.tw.CompareCycles = 4
		if s.tr != nil {
			s.tr.BeginArg("re-check", "tile", int64(tile))
		}
		res.skipped = s.re.ShouldSkip(tile)
		if s.tr != nil {
			s.tr.End() // re-check
		}
	}
}

// renderTile is the parallel stage: the whole functional Raster Pipeline for
// one tile, against per-worker and per-tile state only. tr is the trace
// track to emit spans on (the worker's own track under parallel execution).
//
//re:hotpath
func (w *rasterWorker) renderTile(tile int, res *tileResult, tr *obs.Thread) {
	s := w.s
	rect := s.fbuf.TileRect(tile)
	res.tb.Clear(s.clearColor)
	bin := s.binner.Bin(tile)
	if tr != nil {
		tr.BeginArg("raster-tile", "tile", int64(tile))
	}

	// Tile Scheduler: record the pointer-list and primitive fetches for the
	// commit replay through the Tile Cache.
	for i, e := range bin {
		//re:arena
		res.accesses = append(res.accesses,
			tileAccess{addr: s.binner.PtrAddr(tile) + uint64(i)*tiling.PtrEntryBytes, size: tiling.PtrEntryBytes, unit: texUnitPB},
			tileAccess{addr: e.Addr, size: int32(e.Bytes), unit: texUnitPB})
		res.tw.FetchBytes += uint64(e.Bytes) + tiling.PtrEntryBytes
	}

	fsBefore := w.fsExec.Counts.Instructions
	if tr != nil {
		tr.Begin("fragment-shading")
	}
	// PFR pairing: the second frame of each pair may reuse the first's
	// same-tile entries; the first of a pair only reuses intra-frame.
	crossFrame := s.frameIdx%2 == 1
	var memoCur *memoTable
	if s.cfg.Technique == Memo {
		memoCur = s.memo.tileTable(tile)
	}
	var tileFrags uint64
	st := &res.shard
	w.sampler.res = res

	// Bind each draw's program, textures and constants once per run of
	// its triangles in the bin, not once per triangle.
	bound := -1
	var fs *progSlot
	for _, e := range bin {
		tri := &s.arena.tris[e.Ref.Tri]
		draw := &s.arena.draws[e.Ref.Draw]
		if e.Ref.Draw != bound {
			bound = e.Ref.Draw
			fs = &s.programs[draw.pipe.FS]
			for u := range w.sampler.tex {
				w.sampler.tex[u] = s.textures[draw.pipe.Tex[u]]
			}
			w.fsExec.SetConsts(draw.uniforms[:])
		}
		res.tw.SetupAttrs += uint64(3 * e.NumAttrs * 4)

		depthTest := draw.pipe.DepthTest
		depthWrite := draw.pipe.DepthWrite
		blend := draw.pipe.Blend

		tri.st.RasterizeInto(rect, &w.frag,
			//lint:ignore hotpathalloc the quad closure is consumed inside the call and never stored; escape analysis stack-allocates it (alloc tests prove 0/tile)
			func(qx, qy int, mask uint8) {
				res.tw.Quads++
				st.quadsTested++
				st.depthBufAcc += 2 // test + conditional update
			},
			//lint:ignore hotpathalloc the fragment closure is consumed inside the call and never stored; escape analysis stack-allocates it (alloc tests prove 0/tile)
			func(f *rast.Fragment) {
				idx := fb.Idx(f.X-rect.X0, f.Y-rect.Y0)
				if depthTest {
					if f.Z >= res.tb.Depth[idx] {
						st.fragsEarlyZKill++
						return
					}
					if depthWrite {
						res.tb.Depth[idx] = f.Z
					}
				}
				st.fragsRasterized++
				tileFrags++

				var color geom.Vec4
				reused := false
				if s.cfg.Technique == Memo {
					h := w.hasher.hash(uint8(draw.pipe.FS), [4]uint8{
						uint8(draw.pipe.Tex[0]), uint8(draw.pipe.Tex[1]),
						uint8(draw.pipe.Tex[2]), uint8(draw.pipe.Tex[3]),
					}, fs.in, fs.consts, draw.uniforms[:], &f.Var)
					st.memoLookups++
					if c, ok := s.memo.lookup(memoCur, tile, h, crossFrame); ok {
						color = c
						reused = true
						st.memoHits++
						st.fragsMemoReused++
					}
					if !reused {
						color = w.shadeFragment(fs.code, f)
						st.fragsShaded++
						s.memo.insert(memoCur, h, color)
					}
				} else {
					color = w.shadeFragment(fs.code, f)
					st.fragsShaded++
				}

				packed := texture.PackColor(color)
				if blend == api.BlendAlpha {
					dst := texture.UnpackColor(res.tb.Color[idx])
					a := color.W
					out := color.Scale(a).Add(dst.Scale(1 - a))
					out.W = a + dst.W*(1-a)
					packed = texture.PackColor(out)
					st.colorBufAcc++ // destination read
				}
				res.tb.Color[idx] = packed
				st.colorBufAcc++
			})
	}
	if s.cfg.Technique == Memo {
		s.memo.commitTile(tile, memoCur)
	}
	res.tw.FSInstructions = w.fsExec.Counts.Instructions - fsBefore
	res.tw.BlendFrags = tileFrags
	if tr != nil {
		tr.End() // fragment-shading
	}

	// Ground-truth classification reads the back buffer, which only commit
	// mutates — and only a tile's own commit touches its rect, after this.
	res.eqColor = s.fbuf.TileEqualsBack(tile, &res.tb)

	// Transaction Elimination: sign the rendered colors with the worker's
	// private CRC unit; commit merges the stats delta and does store/match.
	if s.cfg.Technique == TE {
		tilew := rect.X1 - rect.X0
		npx := rect.Area()
		for i := 0; i < npx; i++ {
			binary.LittleEndian.PutUint32(w.teByteBuf[i*4:], res.tb.Color[fb.Idx(i%tilew, i/tilew)])
		}
		before := w.teCRC.Stats
		res.teSig, _ = w.teCRC.Sign(w.teByteBuf[:npx*4])
		res.teCRCStats = w.teCRC.Stats
		res.teCRCStats.Cycles -= before.Cycles
		res.teCRCStats.LUTAccesses -= before.LUTAccesses
		res.teCRCStats.Subblocks -= before.Subblocks
	}
	if tr != nil {
		tr.End() // raster-tile
	}
}

// shadeFragment runs the fragment shader VM on one rasterized fragment.
//
//re:hotpath
func (w *rasterWorker) shadeFragment(code shader.Code, f *rast.Fragment) geom.Vec4 {
	copy(w.fsExec.In()[1:], f.Var[:])
	w.fsExec.Run(code)
	return w.fsExec.Out()[0]
}

// commitTile is the serial post-raster stage: it replays the tile's recorded
// memory accesses through the shared cache hierarchy (in tile order, i.e.
// the serial access order), performs the order-sensitive TE and Frame Buffer
// updates, and folds the tile's shard into the frame's statistics.
//
//re:hotpath
func (s *Simulator) commitTile(tile int, res *tileResult, st *Stats) {
	st.TilesTotal++

	if res.skipped {
		// Rendering Elimination bypass: the whole Raster Pipeline is
		// skipped and the Frame Buffer keeps the previous colors.
		res.tw.Skipped = true
		st.TilesSkipped++
		s.skipCounts[tile]++
		st.TileClasses[TileEqColorEqInput]++
		st.TilesClassified++
		st.StageCycles[StageSigCheck] += res.tw.CompareCycles
		st.RasterCycles += s.cfg.Timing.TileCycles(res.tw)
		if s.tr != nil {
			s.tr.Instant("tile-eliminated", "tile", int64(tile))
		}
		return
	}

	tw := &res.tw

	// Replay the render stage's memory accesses through the shared caches.
	for _, a := range res.accesses {
		if a.unit == texUnitPB {
			s.curClass = TrafficPBRead
			tw.FetchMissCycles += s.accessExtra(s.tilecache, a.addr, int(a.size), false)
		} else {
			s.curClass = TrafficTexel
			c := s.tcache[int(a.unit)%len(s.tcache)]
			lat := c.Access(a.addr, int(a.size), false)
			if extra := lat - c.Config().Latency; extra > 0 {
				tw.TexMissCycles += uint64(extra)
			}
		}
	}

	// Fold the tile's stats shard.
	sh := &res.shard
	st.QuadsTested += sh.quadsTested
	st.FragsEarlyZKill += sh.fragsEarlyZKill
	st.FragsRasterized += sh.fragsRasterized
	st.FragsShaded += sh.fragsShaded
	st.FragsMemoReused += sh.fragsMemoReused
	st.Activity.DepthBufferAccesses += sh.depthBufAcc
	st.Activity.ColorBufferAccesses += sh.colorBufAcc
	st.Activity.FSInstructions += tw.FSInstructions
	s.memo.Lookups += sh.memoLookups
	s.memo.Hits += sh.memoHits

	// Ground-truth classification against the frame two swaps back.
	if match, valid := s.re.BaselineMatch(tile); valid {
		st.TilesClassified++
		switch {
		case res.eqColor && match:
			st.TileClasses[TileEqColorEqInput]++
		case res.eqColor && !match:
			st.TileClasses[TileEqColorDiffInput]++
		case !res.eqColor && match:
			st.TileClasses[TileEqInputDiffColor]++ // CRC collision
		default:
			st.TileClasses[TileDiffColor]++
		}
	}

	// Transaction Elimination: store the color signature and skip the flush
	// when it matches the Back Buffer's previous contents (Section IV-C).
	doFlush := true
	if s.cfg.Technique == TE {
		s.teCRC.Stats.Add(res.teCRCStats)
		s.teBuf.Store(tile, res.teSig)
		if match, valid := s.teBuf.Match(tile); valid && match {
			doFlush = false
		}
	}

	// Tile flush: write the Color Buffer out to the Frame Buffer in DRAM.
	if doFlush {
		if s.tr != nil {
			s.tr.Begin("dram-flush")
		}
		rect := s.fbuf.TileRect(tile)
		st.FlushesDone++
		bytes := s.fbuf.FlushTile(tile, &res.tb)
		tw.FlushBytes = uint64(bytes)
		st.Activity.ColorBufferAccesses += uint64((bytes + 63) / 64)
		s.curClass = TrafficColor
		for y := rect.Y0; y < rect.Y1; y++ {
			s.dramWrite(s.fbuf.PixelAddr(rect.X0, y), (rect.X1-rect.X0)*4)
		}
		if s.tr != nil {
			s.tr.End() // dram-flush
		}
	} else {
		st.FlushesSkipped++
	}

	sigC, rastC, fragC, flushC := s.cfg.Timing.TileStageCycles(*tw)
	st.StageCycles[StageSigCheck] += sigC
	st.StageCycles[StageRaster] += rastC
	st.StageCycles[StageFragment] += fragC
	st.StageCycles[StageFlush] += flushC
	st.RasterCycles += s.cfg.Timing.TileCycles(*tw)
}

// rasterPhase executes the frame's raster pipeline over all tiles. With one
// worker the three stages run inline per tile (the serial execution order);
// with more, decisions are made up front, tiles render concurrently on the
// worker pool, and commits replay in tile order — simulated results are
// byte-identical either way.
func (s *Simulator) rasterPhase(st *Stats) {
	n := s.fbuf.NumTiles()
	tiles := s.arena.tiles(n)

	nw := s.tileWorkers
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		w := s.workers[0]
		for tile := 0; tile < n; tile++ {
			res := &tiles[tile]
			s.decideTile(tile, res)
			if !res.skipped {
				w.renderTile(tile, res, s.tr)
			}
			s.commitTile(tile, res, st)
		}
		return
	}

	for tile := 0; tile < n; tile++ {
		s.decideTile(tile, &tiles[tile])
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		w := s.workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := w.thread()
			for {
				tile := int(next.Add(1)) - 1
				if tile >= n {
					return
				}
				res := &tiles[tile]
				if !res.skipped {
					w.renderTile(tile, res, tr)
				}
			}
		}()
	}
	wg.Wait()

	for tile := 0; tile < n; tile++ {
		s.commitTile(tile, &tiles[tile], st)
	}
}
