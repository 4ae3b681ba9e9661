package gpusim

import (
	"fmt"
	"slices"

	"rendelim/internal/api"
	"rendelim/internal/cache"
	"rendelim/internal/core"
	"rendelim/internal/crc"
	"rendelim/internal/dram"
	"rendelim/internal/fb"
	"rendelim/internal/shader"
	"rendelim/internal/sig"
	"rendelim/internal/texture"
)

// Checkpoint is a frame-boundary snapshot of every piece of cross-frame
// simulator state: the double-buffered framebuffer, the RE controller with
// its Signature Buffer, the TE signature buffer and CRC counters, the
// memoization baselines, the DRAM row-buffer state, all cache tag/LRU
// arrays, the upload-mutable program/texture tables, the API state, and the
// counters. A run restored from a checkpoint is byte-identical — same
// per-frame stats, same pixels — to one that ran straight through, because
// frame statistics are computed as deltas of these counters and every
// timing-relevant structure (cache LRU clocks, DRAM open rows, signature
// parity) is captured.
//
// Frame boundaries are the natural checkpoint for the same reason they are
// RE's comparison point: RunFrame never leaves state half-committed
// (RunContext documents this), so a checkpoint taken between frames is
// always consistent. Per-frame scratch (binner, draw/triangle lists, tile
// results) is rebuilt from zero each frame and needs no capture.
//
// Checkpoints are restorable onto the simulator they came from (rewind) or
// onto a fresh Simulator built from the same trace and config (the job
// pool's recovery path — a mid-frame panic leaves the original simulator's
// internals unusable, so recovery always rebuilds).
type Checkpoint struct {
	frameIdx  int
	width     int
	height    int
	technique Technique
	traceSig  uint32 // guards against restoring across different traces

	fbuf     fb.Snapshot
	stateVal api.State // value copy; api.State holds no reference types
	re       core.Snapshot
	teBuf    sig.BufferSnapshot
	teCRC    crc.UnitStats

	// memoPrev is a compact deep copy of the per-tile memoization
	// baselines. The live tables are pooled and mutated again on later
	// frames (memoState swaps their roles), so the checkpoint extracts the
	// entries rather than sharing the tables.
	memoPrev    [][]memoEntry
	memoLookups uint64
	memoHits    uint64

	dram   dram.Snapshot
	caches []cache.Snapshot // vcache, tcache[0..3], tilecache, l2

	programs []*shader.Program // by program ID; nil for an ID never uploaded
	textures []*texture.Texture

	vsCounts   shader.Counts
	skipCounts []uint32
}

// Frame returns the number of completed frames the checkpoint covers:
// resuming replays the trace from frame index Frame().
func (cp *Checkpoint) Frame() int { return cp.frameIdx }

// traceIdentity signs what checkpoint compatibility depends on.
func (s *Simulator) traceIdentity() uint32 {
	return crc.Checksum([]byte(fmt.Sprintf("%s/%dx%d/%d/%s",
		s.trace.Name, s.trace.Width, s.trace.Height, len(s.trace.Frames), s.cfg.Technique)))
}

// Checkpoint snapshots the simulator at a frame boundary. Calling it
// mid-frame (from inside RunFrame) is not supported.
func (s *Simulator) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		frameIdx:  s.frameIdx,
		width:     s.trace.Width,
		height:    s.trace.Height,
		technique: s.cfg.Technique,
		traceSig:  s.traceIdentity(),

		fbuf:  s.fbuf.Snapshot(),
		re:    s.re.Snapshot(),
		teBuf: s.teBuf.Snapshot(),
		teCRC: s.teCRC.Stats,

		memoPrev:    s.memo.snapshotPrev(),
		memoLookups: s.memo.Lookups,
		memoHits:    s.memo.Hits,

		dram: s.dram.Snapshot(),

		programs: make([]*shader.Program, len(s.programs)),
		textures: append([]*texture.Texture(nil), s.textures...),

		vsCounts:   s.vsExec.Counts,
		skipCounts: append([]uint32(nil), s.skipCounts...),
	}
	for i := range s.programs {
		cp.programs[i] = s.programs[i].prog
	}
	for _, c := range s.checkpointCaches() {
		cp.caches = append(cp.caches, c.Snapshot())
	}
	cp.stateVal = *s.state
	return cp
}

// Resume restores the simulator to the checkpointed frame boundary. The
// checkpoint must come from a simulator over the same trace and technique
// (same dimensions, frame count and cache geometry); otherwise an error
// wrapping nothing in particular is returned and the simulator is left
// untouched. After a successful Resume, RunFrame(&trace.Frames[cp.Frame()])
// continues the run exactly where the checkpoint left off.
func (s *Simulator) Resume(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("gpusim: nil checkpoint")
	}
	if cp.traceSig != s.traceIdentity() {
		return fmt.Errorf("gpusim: checkpoint mismatch: snapshot of a %dx%d %s run cannot restore this simulator",
			cp.width, cp.height, cp.technique)
	}
	// Structural guards for checkpoints that crossed a process boundary
	// (DecodeCheckpoint): the CRC seal makes these unreachable for honest
	// corruption, but a mismatched cache geometry or tile count must error
	// here rather than panic inside a Restore.
	if got, want := len(cp.caches), len(s.checkpointCaches()); got != want {
		return fmt.Errorf("gpusim: checkpoint carries %d cache snapshots, simulator has %d caches", got, want)
	}
	if got, want := len(cp.memoPrev), len(s.memo.prev); got != want {
		return fmt.Errorf("gpusim: checkpoint carries %d memo tiles, simulator has %d", got, want)
	}
	if got, want := len(cp.fbuf.Bufs[0]), s.trace.Width*s.trace.Height; got != want {
		return fmt.Errorf("gpusim: checkpoint framebuffer has %d pixels, simulator has %d", got, want)
	}
	for i, p := range cp.programs {
		if p == nil {
			continue
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("gpusim: checkpoint program %d: %w", i, err)
		}
	}
	s.fbuf.Restore(cp.fbuf)
	s.re.Restore(cp.re)
	s.teBuf.Restore(cp.teBuf)
	s.teCRC.Stats = cp.teCRC

	s.memo.restorePrev(cp.memoPrev)
	s.memo.Lookups = cp.memoLookups
	s.memo.Hits = cp.memoHits

	s.dram.Restore(cp.dram)
	for i, c := range s.checkpointCaches() {
		c.Restore(cp.caches[i])
	}

	s.loadPrograms(cp.programs)
	s.textures = append(s.textures[:0], cp.textures...)

	s.vsExec.Counts = cp.vsCounts
	copy(s.skipCounts, cp.skipCounts)
	*s.state = cp.stateVal
	s.frameIdx = cp.frameIdx
	return nil
}

// loadPrograms refills the program table from progs, indexed by program ID,
// reusing every slot's decode storage.
func (s *Simulator) loadPrograms(progs []*shader.Program) {
	s.programs = slices.Grow(s.programs[:0], len(progs))[:len(progs)]
	for i, p := range progs {
		s.programs[i].set(p)
	}
}

// checkpointCaches lists every cache in a fixed order shared by Checkpoint
// and Resume.
func (s *Simulator) checkpointCaches() []*cache.Cache {
	return []*cache.Cache{s.vcache, s.tcache[0], s.tcache[1], s.tcache[2], s.tcache[3], s.tilecache, s.l2}
}
