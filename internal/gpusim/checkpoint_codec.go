package gpusim

import (
	"fmt"

	"rendelim/internal/cache"
	"rendelim/internal/crc"
	"rendelim/internal/dram"
	"rendelim/internal/geom"
	"rendelim/internal/sig"
	"rendelim/internal/wire"
)

// Checkpoint wire format. The magic and version lead the blob so a decoder
// can reject foreign files and future formats before touching anything else;
// a trailing CRC32 over everything prior catches torn writes and bit rot
// independently of whatever integrity the store layer adds. A decoder reads
// only its own version and refuses every other (see
// TestCheckpointCodecVersionRejected), never misparsing them. Version 2
// dropped the program and texture tables and the API state, which Resume
// replays from the trace; a version-1 blob fails to decode, and a job
// whose stored checkpoint is one restarts from frame 0.
const (
	ckptMagic   = "RECK"
	ckptVersion = uint16(2)
)

// ErrCheckpointFormat is wrapped by every DecodeCheckpoint failure: bad
// magic, unknown version, CRC mismatch, or truncated/corrupt contents.
var ErrCheckpointFormat = fmt.Errorf("gpusim: bad checkpoint format")

// EncodeBinary serializes the checkpoint into a blob that DecodeCheckpoint
// can restore in a fresh process. Together with the
// determinism of the simulator this is the crash-recovery contract: build a
// new Simulator from the same trace and config, Resume the decoded
// checkpoint, and the continued run is byte-identical to one that never
// stopped.
func (cp *Checkpoint) EncodeBinary() []byte {
	b := make([]byte, 0, cp.encodedSizeHint())
	b = append(b, ckptMagic...)
	b = wire.AppendU16(b, ckptVersion)

	b = wire.AppendI64(b, int64(cp.frameIdx))
	b = wire.AppendI64(b, int64(cp.width))
	b = wire.AppendI64(b, int64(cp.height))
	b = wire.AppendU8(b, uint8(cp.technique))
	b = wire.AppendU32(b, cp.traceSig)

	// Framebuffer.
	b = wire.AppendI64(b, int64(cp.fbuf.Front))
	b = wire.AppendU32s(b, cp.fbuf.Bufs[0])
	b = wire.AppendU32s(b, cp.fbuf.Bufs[1])

	// RE controller.
	b = appendUnitSnapshot(b, cp.re.Unit)
	b = wire.AppendI64(b, int64(cp.re.FrameIdx))
	b = wire.AppendBool(b, cp.re.Disabled)
	b = wire.AppendBool(b, cp.re.Refresh)
	b = wire.AppendU64(b, cp.re.TilesChecked)
	b = wire.AppendU64(b, cp.re.TilesSkipped)

	// TE signature buffer + CRC unit counters.
	b = appendBufferSnapshot(b, cp.teBuf)
	b = appendUnitStats(b, cp.teCRC)

	// Memoization baselines.
	b = wire.AppendU32(b, uint32(len(cp.memoPrev)))
	for _, entries := range cp.memoPrev {
		b = wire.AppendU32(b, uint32(len(entries)))
		for _, e := range entries {
			b = wire.AppendU32(b, e.H)
			b = appendVec4(b, e.C)
		}
	}
	b = wire.AppendU64(b, cp.memoLookups)
	b = wire.AppendU64(b, cp.memoHits)

	// DRAM + caches.
	b = cp.dram.AppendBinary(b)
	b = wire.AppendU32(b, uint32(len(cp.caches)))
	for _, cs := range cp.caches {
		b = cs.AppendBinary(b)
	}

	// Counters.
	b = wire.AppendU64(b, cp.vsCounts.Instructions)
	b = wire.AppendU64(b, cp.vsCounts.TexSamples)
	b = wire.AppendU64(b, cp.vsCounts.Invocations)
	b = wire.AppendU32s(b, cp.skipCounts)

	// Integrity seal over everything prior.
	return wire.AppendU32(b, crc.Checksum(b))
}

// encodedSizeHint estimates the blob size to avoid re-allocation churn; the
// framebuffer dominates.
func (cp *Checkpoint) encodedSizeHint() int {
	return 4096 + 4*(len(cp.fbuf.Bufs[0])+len(cp.fbuf.Bufs[1]))
}

// DecodeCheckpoint parses a blob produced by EncodeBinary. Every failure
// wraps ErrCheckpointFormat; a nil error guarantees the trailing CRC
// matched, so the decoded checkpoint is exactly what was encoded.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < len(ckptMagic)+2+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrCheckpointFormat, len(b))
	}
	if string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointFormat, b[:len(ckptMagic)])
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc.Checksum(body), wire.NewReader(tail).U32(); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch: computed %08x, stored %08x", ErrCheckpointFormat, got, want)
	}
	r := wire.NewReader(body[len(ckptMagic):])
	if v := r.U16(); v != ckptVersion {
		return nil, fmt.Errorf("%w: unknown version %d (this build reads version %d)", ErrCheckpointFormat, v, ckptVersion)
	}

	cp := &Checkpoint{
		frameIdx:  int(r.I64()),
		width:     int(r.I64()),
		height:    int(r.I64()),
		technique: Technique(r.U8()),
		traceSig:  r.U32(),
	}

	cp.fbuf.Front = int(r.I64())
	cp.fbuf.Bufs[0] = r.U32s()
	cp.fbuf.Bufs[1] = r.U32s()

	cp.re.Unit = decodeUnitSnapshot(r)
	cp.re.FrameIdx = int(r.I64())
	cp.re.Disabled = r.Bool()
	cp.re.Refresh = r.Bool()
	cp.re.TilesChecked = r.U64()
	cp.re.TilesSkipped = r.U64()

	cp.teBuf = decodeBufferSnapshot(r)
	cp.teCRC = decodeUnitStats(r)

	if n, ok := decodeCount(r, 4); ok {
		cp.memoPrev = make([][]memoEntry, n)
		for i := range cp.memoPrev {
			m, ok := decodeCount(r, 20)
			if !ok {
				break
			}
			if m == 0 {
				continue
			}
			entries := make([]memoEntry, m)
			for j := range entries {
				entries[j].H = r.U32()
				entries[j].C = decodeVec4(r)
			}
			cp.memoPrev[i] = entries
		}
	}
	cp.memoLookups = r.U64()
	cp.memoHits = r.U64()

	cp.dram = dram.DecodeSnapshot(r)
	if n, ok := decodeCount(r, 4); ok {
		cp.caches = make([]cache.Snapshot, 0, n)
		for i := 0; i < n; i++ {
			cp.caches = append(cp.caches, cache.DecodeSnapshot(r))
		}
	}

	cp.vsCounts.Instructions = r.U64()
	cp.vsCounts.TexSamples = r.U64()
	cp.vsCounts.Invocations = r.U64()
	cp.skipCounts = r.U32s()

	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointFormat, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointFormat, r.Len())
	}
	return cp, nil
}

// decodeCount reads a u32 element count and sanity-checks it against the
// remaining input (elemSize = minimum encoded bytes per element), so a
// corrupted count cannot drive a huge allocation. The CRC makes this
// unreachable in practice; it is defense in depth.
func decodeCount(r *wire.Reader, elemSize int) (int, bool) {
	n := int(r.U32())
	if r.Err() != nil || n < 0 || n*elemSize > r.Len() {
		return 0, false
	}
	return n, true
}

func appendVec4(b []byte, v geom.Vec4) []byte {
	b = wire.AppendF32(b, v.X)
	b = wire.AppendF32(b, v.Y)
	b = wire.AppendF32(b, v.Z)
	return wire.AppendF32(b, v.W)
}

func decodeVec4(r *wire.Reader) geom.Vec4 {
	return geom.Vec4{X: r.F32(), Y: r.F32(), Z: r.F32(), W: r.F32()}
}

func appendUnitStats(b []byte, s crc.UnitStats) []byte {
	b = wire.AppendU64(b, s.Cycles)
	b = wire.AppendU64(b, s.LUTAccesses)
	return wire.AppendU64(b, s.Subblocks)
}

func decodeUnitStats(r *wire.Reader) crc.UnitStats {
	return crc.UnitStats{Cycles: r.U64(), LUTAccesses: r.U64(), Subblocks: r.U64()}
}

func appendBufferSnapshot(b []byte, s sig.BufferSnapshot) []byte {
	b = wire.AppendU32s(b, s.Building)
	b = wire.AppendU32s(b, s.Prev[0])
	b = wire.AppendU32s(b, s.Prev[1])
	b = wire.AppendBools(b, s.Valid[0])
	b = wire.AppendBools(b, s.Valid[1])
	b = wire.AppendI64(b, int64(s.Parity))
	b = wire.AppendU64(b, s.Reads)
	return wire.AppendU64(b, s.Writes)
}

func decodeBufferSnapshot(r *wire.Reader) sig.BufferSnapshot {
	var s sig.BufferSnapshot
	s.Building = r.U32s()
	s.Prev[0] = r.U32s()
	s.Prev[1] = r.U32s()
	s.Valid[0] = r.Bools()
	s.Valid[1] = r.Bools()
	s.Parity = int(r.I64())
	s.Reads = r.U64()
	s.Writes = r.U64()
	return s
}

func appendSigStats(b []byte, s sig.Stats) []byte {
	b = wire.AppendU64(b, s.StallCycles)
	b = wire.AppendU64(b, s.BusyCycles)
	b = wire.AppendU64(b, s.CompareCycles)
	b = appendUnitStats(b, s.Compute)
	b = appendUnitStats(b, s.Accumulate)
	b = wire.AppendU64(b, s.BitmapReads)
	b = wire.AppendU64(b, s.BitmapWrites)
	b = wire.AppendU64(b, s.PrimBlocks)
	b = wire.AppendU64(b, s.ConstBlocks)
	return wire.AppendU64(b, s.TileUpdates)
}

func decodeSigStats(r *wire.Reader) sig.Stats {
	var s sig.Stats
	s.StallCycles = r.U64()
	s.BusyCycles = r.U64()
	s.CompareCycles = r.U64()
	s.Compute = decodeUnitStats(r)
	s.Accumulate = decodeUnitStats(r)
	s.BitmapReads = r.U64()
	s.BitmapWrites = r.U64()
	s.PrimBlocks = r.U64()
	s.ConstBlocks = r.U64()
	s.TileUpdates = r.U64()
	return s
}

func appendUnitSnapshot(b []byte, s sig.UnitSnapshot) []byte {
	b = appendBufferSnapshot(b, s.Buf)
	b = appendUnitStats(b, s.Compute)
	b = appendUnitStats(b, s.Accumulate)
	b = wire.AppendU32(b, s.ConstSig)
	b = wire.AppendI64(b, int64(s.ConstShift))
	b = wire.AppendBool(b, s.HaveConst)
	b = wire.AppendBools(b, s.Bitmap)
	b = wire.AppendU64(b, s.PLBClock)
	b = wire.AppendU64(b, s.SUClock)
	return appendSigStats(b, s.Stats)
}

func decodeUnitSnapshot(r *wire.Reader) sig.UnitSnapshot {
	var s sig.UnitSnapshot
	s.Buf = decodeBufferSnapshot(r)
	s.Compute = decodeUnitStats(r)
	s.Accumulate = decodeUnitStats(r)
	s.ConstSig = r.U32()
	s.ConstShift = int(r.I64())
	s.HaveConst = r.Bool()
	s.Bitmap = r.Bools()
	s.PLBClock = r.U64()
	s.SUClock = r.U64()
	s.Stats = decodeSigStats(r)
	return s
}
