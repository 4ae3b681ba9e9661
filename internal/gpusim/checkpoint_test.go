package gpusim

import (
	"reflect"
	"testing"

	"rendelim/internal/shader"
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

	// A checkpoint read back from a store is outside input: a program that
	// fails Validate must not reach the decoder, which trusts every index.
	bad := simA.Checkpoint()
	bad.programs[0] = &shader.Program{Name: "wild", Instrs: []shader.Instr{
		{Op: shader.OpMov, Dst: shader.RD(200), Src: [3]shader.Src{shader.V(0)}},
	}}
	if err := simA.Resume(bad); err == nil {
		t.Fatal("Resume accepted a checkpoint carrying an invalid program")
	}
}
