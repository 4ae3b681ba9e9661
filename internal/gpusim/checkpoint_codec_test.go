package gpusim

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/crc"
	"rendelim/internal/shader"
	"rendelim/internal/wire"
	"rendelim/internal/workload"
)

// The crash-recovery contract: a checkpoint that crosses a process boundary
// (encode → bytes → decode, with no shared memory) must restore a fresh
// simulator so exactly that the continued run is byte-identical — per-frame
// stats and final pixels — to one that never stopped. The fresh simulator
// here stands in for the restarted process: it shares nothing with the one
// that took the checkpoint except the trace and config, which is all a
// recovering resvc has.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	params := workload.Params{Width: 96, Height: 64, Frames: 8, Seed: 1}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			tr := b.Build(params)
			cfg := DefaultConfig()
			cfg.Technique = tech

			const k = 3
			ref, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var blob []byte
			var refStats []Stats
			for i := range tr.Frames {
				if i == k {
					blob = ref.Checkpoint().EncodeBinary()
				}
				refStats = append(refStats, ref.RunFrame(&tr.Frames[i]))
			}
			refCRC := ref.FrameBufferCRC()

			cp, err := DecodeCheckpoint(blob)
			if err != nil {
				t.Fatalf("DecodeCheckpoint: %v", err)
			}
			if cp.Frame() != k {
				t.Fatalf("decoded checkpoint frame = %d, want %d", cp.Frame(), k)
			}

			// The "restarted process": a simulator built from scratch.
			res, err := New(b.Build(params), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Resume(cp); err != nil {
				t.Fatalf("Resume(decoded): %v", err)
			}
			for i := k; i < len(tr.Frames); i++ {
				got := res.RunFrame(&tr.Frames[i])
				if !reflect.DeepEqual(got, refStats[i]) {
					t.Fatalf("frame %d stats diverge after decoded resume:\n got %+v\nwant %+v", i, got, refStats[i])
				}
			}
			if got := res.FrameBufferCRC(); got != refCRC {
				t.Fatalf("framebuffer CRC after decoded resume = %08x, want %08x", got, refCRC)
			}
		})
	}
}

// Any version tag but this build's must be rejected outright — decoding a
// blob of another version with this field layout would corrupt a recovery
// silently. Version 1 still carried the program/texture tables.
func TestCheckpointCodecVersionRejected(t *testing.T) {
	blob := testCheckpointBlob(t)
	for _, v := range []uint16{1, ckptVersion + 1} {
		// Rewrite the version field (right after the 4-byte magic) and
		// re-seal the CRC so only the version differs from a valid blob.
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint16(mut[4:], v)
		body := mut[:len(mut)-4]
		reseal := wire.AppendU32(body[:len(body):len(body)], crc.Checksum(body))
		if _, err := DecodeCheckpoint(reseal); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("version %d decoded: err = %v, want ErrCheckpointFormat", v, err)
		}
	}
}

func TestCheckpointCodecRejectsDamage(t *testing.T) {
	blob := testCheckpointBlob(t)

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), blob...)
		mut[0] ^= 0xff
		if _, err := DecodeCheckpoint(mut); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		mut := append([]byte(nil), blob...)
		mut[len(mut)/2] ^= 0x10
		if _, err := DecodeCheckpoint(mut); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeCheckpoint(blob[:len(blob)*2/3]); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeCheckpoint(nil); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
}

// A decoded checkpoint from one trace must not restore a simulator built
// over a different one.
func TestCheckpointCodecTraceMismatch(t *testing.T) {
	blob := testCheckpointBlob(t)
	cp, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(b.Build(workload.Params{Width: 64, Height: 48, Frames: 3, Seed: 9}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Resume(cp); err == nil {
		t.Fatal("Resume accepted a checkpoint from a different trace")
	}
}

// testCheckpointBlob runs two frames of the suite's ccs workload under RE
// and returns the encoded frame-2 checkpoint.
func testCheckpointBlob(t *testing.T) []byte {
	t.Helper()
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 96, Height: 64, Frames: 4, Seed: 1})
	cfg := DefaultConfig()
	cfg.Technique = RE
	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFrame(&tr.Frames[0])
	sim.RunFrame(&tr.Frames[1])
	return sim.Checkpoint().EncodeBinary()
}

// The checkpoint encoding is a stored format: resvc's durable store keeps
// checkpoints across restarts and upgrades. This pins the version-2 bytes
// for a memo run with an upload before the checkpoint, which the blob must
// not carry, so a change to what the simulator holds cannot alter what it
// writes or what it must read back. (The body ends in its own raw-CRC seal,
// so the pin uses the conditioned IEEE checksum, which does not cancel it.)
func TestCheckpointCodecBytesPinned(t *testing.T) {
	const wantLen, wantCRC = 472954, 0x08bcea19
	tr := staticTrace(4)
	up := api.UploadProgram{ID: 4, Program: shader.LambertTexFS()}
	tr.Frames[1].Commands = append([]api.Command{up}, tr.Frames[1].Commands...)
	cfg := DefaultConfig()
	cfg.Technique = Memo
	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sim.RunFrame(&tr.Frames[i])
	}
	blob := sim.Checkpoint().EncodeBinary()
	if got := crc32.ChecksumIEEE(blob); len(blob) != wantLen || got != wantCRC {
		t.Fatalf("checkpoint encoding: %d bytes, CRC %#08x; want %d bytes, CRC %#08x", len(blob), got, wantLen, wantCRC)
	}
	cp, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again := cp.EncodeBinary(); string(again) != string(blob) {
		t.Fatal("decode then encode changed the bytes")
	}
}
