package gpusim

import (
	"fmt"

	"rendelim/internal/api"
	"rendelim/internal/cache"
	"rendelim/internal/core"
	"rendelim/internal/crc"
	"rendelim/internal/dram"
	"rendelim/internal/fb"
	"rendelim/internal/shader"
	"rendelim/internal/sig"
)

// Checkpoint is a frame-boundary snapshot of the cross-frame simulator state
// the trace cannot rebuild: the double-buffered framebuffer, the RE
// controller with its Signature Buffer, the TE signature buffer and CRC
// counters, the memoization baselines, the DRAM row-buffer state, all cache
// tag/LRU arrays, and the counters. A run restored from a checkpoint is
// byte-identical — same per-frame stats, same pixels — to one that ran
// straight through, because frame statistics are computed as deltas of these
// counters and every timing-relevant structure (cache LRU clocks, DRAM open
// rows, signature parity) is captured.
//
// The program and texture tables and the API state are not captured: they
// are a pure function of the trace and the frame index, which traceSig and
// frameIdx pin, so Resume rebuilds them by replaying the non-draw commands
// of the frames the checkpoint covers.
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

	fbuf  fb.Snapshot
	re    core.Snapshot
	teBuf sig.BufferSnapshot
	teCRC crc.UnitStats

	// memoPrev is a compact deep copy of the per-tile memoization
	// baselines. The live tables are pooled and mutated again on later
	// frames (memoState swaps their roles), so the checkpoint extracts the
	// entries rather than sharing the tables.
	memoPrev    [][]memoEntry
	memoLookups uint64
	memoHits    uint64

	dram   dram.Snapshot
	caches []cache.Snapshot // vcache, tcache[0..3], tilecache, l2

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

		vsCounts:   s.vsExec.Counts,
		skipCounts: append([]uint32(nil), s.skipCounts...),
	}
	for _, c := range s.checkpointCaches() {
		cp.caches = append(cp.caches, c.Snapshot())
	}
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
	if cp.frameIdx < 0 || cp.frameIdx > len(s.trace.Frames) {
		return fmt.Errorf("gpusim: checkpoint frame %d is outside the trace's %d frames", cp.frameIdx, len(s.trace.Frames))
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

	s.vsExec.Counts = cp.vsCounts
	copy(s.skipCounts, cp.skipCounts)
	s.frameIdx = cp.frameIdx

	s.resetTables()
	*s.state = *api.NewState()
	for i := range s.trace.Frames[:cp.frameIdx] {
		s.state.BeginFrame()
		for _, cmd := range s.trace.Frames[i].Commands {
			if _, draw := cmd.(api.Draw); !draw {
				s.apply(cmd)
			}
		}
	}
	return nil
}

// checkpointCaches lists every cache in a fixed order shared by Checkpoint
// and Resume.
func (s *Simulator) checkpointCaches() []*cache.Cache {
	return []*cache.Cache{s.vcache, s.tcache[0], s.tcache[1], s.tcache[2], s.tcache[3], s.tilecache, s.l2}
}
