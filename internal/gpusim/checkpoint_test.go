package gpusim

import (
	"reflect"
	"slices"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/shader"
	"rendelim/internal/texture"
	"rendelim/internal/workload"
)

// For every technique, a run that checkpoints at frame k, finishes, and is
// then replayed by a fresh simulator resuming from that checkpoint must
// produce byte-identical per-frame stats and pixels for the remaining
// frames — checkpoint/resume is exact, not approximate.
func TestCheckpointResumeByteIdentical(t *testing.T) {
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

			// Reference: straight run, collecting per-frame stats and a
			// checkpoint at the boundary after frame k.
			const k = 3
			ref, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var cp *Checkpoint
			var refStats []Stats
			for i := range tr.Frames {
				if i == k {
					cp = ref.Checkpoint()
				}
				refStats = append(refStats, ref.RunFrame(&tr.Frames[i]))
			}
			refFB := ref.FrameBufferSnapshot()

			// Fresh simulator, resumed from the checkpoint.
			res, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Resume(cp); err != nil {
				t.Fatal(err)
			}
			if cp.Frame() != k {
				t.Fatalf("checkpoint frame = %d, want %d", cp.Frame(), k)
			}
			for i := k; i < len(tr.Frames); i++ {
				got := res.RunFrame(&tr.Frames[i])
				if !reflect.DeepEqual(got, refStats[i]) {
					t.Fatalf("frame %d stats diverge after resume:\n got %+v\nwant %+v", i, got, refStats[i])
				}
			}
			if gotFB := res.FrameBufferSnapshot(); !reflect.DeepEqual(gotFB, refFB) {
				t.Fatal("framebuffer diverges after resume")
			}
			if res.FrameBufferCRC() != ref.FrameBufferCRC() {
				t.Fatal("framebuffer CRC diverges after resume")
			}
		})
	}
}

// Rewinding the same simulator (restore in place, not onto a fresh one)
// must work too: run to the end, resume back to frame k, re-run the tail.
func TestCheckpointRewindInPlace(t *testing.T) {
	params := workload.Params{Width: 96, Height: 64, Frames: 6, Seed: 1}
	b, err := workload.ByAlias("hop")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(params)
	cfg := DefaultConfig()
	cfg.Technique = RE

	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	var cp *Checkpoint
	var refStats []Stats
	for i := range tr.Frames {
		if i == k {
			cp = sim.Checkpoint()
		}
		refStats = append(refStats, sim.RunFrame(&tr.Frames[i]))
	}
	refCRC := sim.FrameBufferCRC()

	if err := sim.Resume(cp); err != nil {
		t.Fatal(err)
	}
	for i := k; i < len(tr.Frames); i++ {
		got := sim.RunFrame(&tr.Frames[i])
		if !reflect.DeepEqual(got, refStats[i]) {
			t.Fatalf("frame %d stats diverge after rewind", i)
		}
	}
	if sim.FrameBufferCRC() != refCRC {
		t.Fatal("framebuffer diverges after rewind")
	}
}

// A checkpoint from a different trace or technique must be rejected.
func TestResumeRejectsMismatch(t *testing.T) {
	params := workload.Params{Width: 96, Height: 64, Frames: 4, Seed: 1}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(params)
	cfg := DefaultConfig()
	cfg.Technique = RE
	simA, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := simA.Checkpoint()

	cfgB := cfg
	cfgB.Technique = TE
	simB, err := New(tr, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := simB.Resume(cp); err == nil {
		t.Fatal("Resume accepted a checkpoint from a different technique")
	}
	if err := simB.Resume(nil); err == nil {
		t.Fatal("Resume accepted a nil checkpoint")
	}

	// A checkpoint read back from a store is outside input: Resume replays
	// the trace up to its frame index, which must lie within the trace.
	bad := simA.Checkpoint()
	bad.frameIdx = len(tr.Frames) + 1
	if err := simA.Resume(bad); err == nil {
		t.Fatal("Resume accepted a checkpoint past the trace's last frame")
	}
}

// uploadTrace is staticTrace with a second registry texture and uploads on
// both sides of frame 4. Frame 1 replaces the fragment shader with a lit one
// and sets its light, frame 2 replaces texture 0, and frame 4 uses all
// three. Frame 5 binds the registry's texture 1, which frame 6 replaces
// along with the fragment shader.
func uploadTrace() *api.Trace {
	tr := staticTrace(8)
	tex := func(a, b geom.Vec4) api.TextureSpec {
		return api.TextureSpec{Kind: api.TexChecker, W: 16, H: 16, Cell: 4, A: a, B: b, Filter: texture.Nearest}
	}
	tr.Textures = append(tr.Textures, tex(geom.V4(1, 1, 1, 1), geom.V4(0, 0, 0, 1)))
	prepend := func(f int, cmds ...api.Command) {
		tr.Frames[f].Commands = append(cmds, tr.Frames[f].Commands...)
	}
	prepend(1,
		api.UploadProgram{ID: 1, Program: shader.LambertTexFS()},
		api.SetUniforms{First: 5, Values: []geom.Vec4{geom.V4(0.6, 0.3, 0.2, 0.5)}})
	prepend(2, api.UploadTexture{ID: 0, Spec: tex(geom.V4(0.1, 0.9, 0.1, 1), geom.V4(0.9, 0.9, 0.1, 1))})
	for i, c := range tr.Frames[5].Commands {
		if p, ok := c.(api.SetPipeline); ok {
			p.Tex[0] = 1
			tr.Frames[5].Commands[i] = p
		}
	}
	prepend(6,
		api.UploadProgram{ID: 1, Program: shader.TexturedFS()},
		api.UploadTexture{ID: 1, Spec: tex(geom.V4(0.9, 0.1, 0.9, 1), geom.V4(0.1, 0.1, 0.1, 1))})
	return tr
}

// Resume rebuilds the program and texture tables and the API state by
// replaying the trace, so uploads on either side of the checkpoint must
// resume exactly on every route: onto a fresh simulator, by rewinding one
// that already ran past later uploads (its tables must return to the
// registries first), and through the binary codec. Pixels are compared
// after every frame, since each frame redraws the whole screen.
func TestCheckpointResumeReplaysUploads(t *testing.T) {
	const k = 4
	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		t.Run(tech.String(), func(t *testing.T) {
			tr := uploadTrace()
			cfg := DefaultConfig()
			cfg.Technique = tech
			ref, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var cp *Checkpoint
			var refStats []Stats
			var refCRCs []uint32
			for i := range tr.Frames {
				if i == k {
					cp = ref.Checkpoint()
				}
				refStats = append(refStats, ref.RunFrame(&tr.Frames[i]))
				refCRCs = append(refCRCs, ref.FrameBufferCRC())
			}
			refFB := ref.FrameBufferSnapshot()

			check := func(t *testing.T, sim *Simulator, cp *Checkpoint) {
				t.Helper()
				if err := sim.Resume(cp); err != nil {
					t.Fatal(err)
				}
				for i := k; i < len(tr.Frames); i++ {
					if got := sim.RunFrame(&tr.Frames[i]); !reflect.DeepEqual(got, refStats[i]) {
						t.Fatalf("frame %d stats diverge after resume:\n got %+v\nwant %+v", i, got, refStats[i])
					}
					if got := sim.FrameBufferCRC(); got != refCRCs[i] {
						t.Fatalf("frame %d framebuffer CRC = %08x, want %08x", i, got, refCRCs[i])
					}
				}
				if !reflect.DeepEqual(sim.FrameBufferSnapshot(), refFB) {
					t.Fatal("framebuffer diverges after resume")
				}
			}
			t.Run("fresh", func(t *testing.T) {
				sim, err := New(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, sim, cp)
			})
			t.Run("rewind", func(t *testing.T) { check(t, ref, cp) })
			t.Run("codec", func(t *testing.T) {
				dec, err := DecodeCheckpoint(cp.EncodeBinary())
				if err != nil {
					t.Fatal(err)
				}
				sim, err := New(uploadTrace(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, sim, dec)
			})
		})
	}
}

// On a fresh simulator Resume synthesizes only the textures uploaded before
// the checkpoint; every other table entry stays the one New built. No suite
// workload uploads mid-trace, so for them Resume synthesizes nothing.
func TestResumeSynthesizesOnlyUploadedTextures(t *testing.T) {
	resumed := func(t *testing.T, tr *api.Trace, k int) (built, after []*texture.Texture) {
		t.Helper()
		src, err := New(tr, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			src.RunFrame(&tr.Frames[i])
		}
		sim, err := New(tr, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, sim.textures...)
		if err := sim.Resume(src.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		return built, sim.textures
	}

	built, after := resumed(t, uploadTrace(), 4)
	if len(after) != 2 || after[0] == built[0] || after[1] != built[1] {
		t.Fatalf("texture table %v after resume at frame 4, New built %v; want ID 0 replaced, ID 1 kept", after, built)
	}

	for _, b := range workload.Suite() {
		tr := b.Build(workload.Params{Width: 64, Height: 48, Frames: 3, Seed: 1})
		built, after := resumed(t, tr, 2)
		if !slices.Equal(built, after) {
			t.Errorf("%s: Resume synthesized textures; want the table New built", b.Alias)
		}
	}
}
