package gpusim

import (
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/shader"
	"rendelim/internal/texture"
	"rendelim/internal/workload"
)

// smallParams keeps unit-test runs fast.
func smallParams() workload.Params {
	return workload.Params{Width: 128, Height: 96, Frames: 8, Seed: 1}
}

func runTrace(t *testing.T, tr *api.Trace, tech Technique) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Technique = tech
	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run()
}

// staticTrace renders identical content every frame: a textured background
// plus a grid of sprites, never moving.
func staticTrace(frames int) *api.Trace {
	const W, H = 128, 96
	tr := &api.Trace{
		Name: "static", Width: W, Height: H,
		ClearColor: geom.V4(0.1, 0.1, 0.1, 1),
		Programs:   []*shader.Program{shader.TransformVS(2), shader.TexturedFS()},
		Textures: []api.TextureSpec{
			{Kind: api.TexChecker, W: 32, H: 32, Cell: 8,
				A: geom.V4(0.8, 0.2, 0.2, 1), B: geom.V4(0.2, 0.2, 0.8, 1), Filter: texture.Nearest},
		},
	}
	ortho := geom.Ortho(0, W, 0, H, -1, 1)
	quad := func(data []geom.Vec4, x, y, w, h float32, c geom.Vec4) []geom.Vec4 {
		p00, p10 := geom.V4(x, y, 0, 1), geom.V4(x+w, y, 0, 1)
		p01, p11 := geom.V4(x, y+h, 0, 1), geom.V4(x+w, y+h, 0, 1)
		uv0, uv1, uv2, uv3 := geom.V4(0, 0, 0, 0), geom.V4(1, 0, 0, 0), geom.V4(1, 1, 0, 0), geom.V4(0, 1, 0, 0)
		data = append(data, p00, c, uv0, p10, c, uv1, p11, c, uv2)
		return append(data, p00, c, uv0, p11, c, uv2, p01, c, uv3)
	}
	for f := 0; f < frames; f++ {
		var data []geom.Vec4
		data = quad(data, 0, 0, W, H, geom.V4(1, 1, 1, 1))
		for i := 0; i < 4; i++ {
			data = quad(data, 10+float32(i)*28, 30, 20, 20, geom.V4(0.5, 1, 0.5, 1))
		}
		tr.Frames = append(tr.Frames, api.Frame{Commands: []api.Command{
			api.SetUniforms{First: 0, Values: []geom.Vec4{ortho.Row(0), ortho.Row(1), ortho.Row(2), ortho.Row(3)}},
			api.SetUniforms{First: 4, Values: []geom.Vec4{geom.V4(1, 1, 1, 1)}},
			api.SetPipeline{VS: 0, FS: 1},
			api.Draw{NumAttrs: 3, Data: data},
		}})
	}
	return tr
}

func TestTechniqueStrings(t *testing.T) {
	if Baseline.String() != "base" || RE.String() != "re" || TE.String() != "te" || Memo.String() != "memo" {
		t.Fatal("technique names wrong")
	}
	if len(RE.SkippedStages()) <= len(TE.SkippedStages()) {
		t.Fatal("Figure 3: RE must skip more stages than TE")
	}
	if len(Baseline.SkippedStages()) != 0 {
		t.Fatal("baseline skips nothing")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.MemoLUTEntries = 0
	if bad.Validate() == nil {
		t.Fatal("bad memo geometry accepted")
	}
	bad = cfg
	bad.RefreshInterval = -1
	if bad.Validate() == nil {
		t.Fatal("negative refresh accepted")
	}
}

func TestBaselineRendersDeterministically(t *testing.T) {
	tr := staticTrace(3)
	a := runTrace(t, tr, Baseline)
	b := runTrace(t, tr, Baseline)
	if a.Total.TotalCycles() != b.Total.TotalCycles() ||
		a.Total.Activity.FSInstructions != b.Total.Activity.FSInstructions {
		t.Fatal("simulation not deterministic")
	}
}

func TestStaticSceneFullyRedundantAfterWarmup(t *testing.T) {
	tr := staticTrace(6)
	res := runTrace(t, tr, RE)
	// Frames 0 and 1 have no baseline; frames 2..5 must skip every tile.
	for f := 2; f < 6; f++ {
		fs := res.Frames[f]
		if fs.TilesSkipped != fs.TilesTotal {
			t.Fatalf("frame %d: skipped %d of %d tiles", f, fs.TilesSkipped, fs.TilesTotal)
		}
	}
	if res.Frames[0].TilesSkipped != 0 || res.Frames[1].TilesSkipped != 0 {
		t.Fatal("warmup frames must render")
	}
}

// The core safety invariant: RE must produce exactly the same displayed
// pixels as the baseline, frame by frame.
func TestREPixelExactVsBaseline(t *testing.T) {
	for _, alias := range []string{"desktop", "ccs", "cde", "coc", "ctr", "hop", "mst", "abi", "csn", "ter", "tib"} {
		b, err := workload.ByAlias(alias)
		if err != nil {
			t.Fatal(err)
		}
		tr := b.Build(smallParams())
		cfgA := DefaultConfig()
		cfgB := DefaultConfig()
		cfgB.Technique = RE
		simA, _ := New(tr, cfgA)
		simB, _ := New(tr, cfgB)
		for f := range tr.Frames {
			simA.RunFrame(&tr.Frames[f])
			simB.RunFrame(&tr.Frames[f])
			fa := simA.FrameBufferSnapshot()
			fb := simB.FrameBufferSnapshot()
			for i := range fa {
				if fa[i] != fb[i] {
					t.Fatalf("%s frame %d: pixel %d differs base=%08x re=%08x", alias, f, i, fa[i], fb[i])
				}
			}
		}
	}
}

// Equal inputs must imply equal colors: zero tiles in the collision class.
func TestNoEqualInputDifferentColor(t *testing.T) {
	for _, alias := range []string{"ccs", "cde", "coc", "mst", "hop", "tib"} {
		b, err := workload.ByAlias(alias)
		if err != nil {
			t.Fatal(err)
		}
		res := runTrace(t, b.Build(smallParams()), Baseline)
		if n := res.Total.TileClasses[TileEqInputDiffColor]; n != 0 {
			t.Fatalf("%s: %d equal-input different-color tiles (CRC collision or nondeterminism)", alias, n)
		}
	}
}

func TestREFasterOnStaticSlowerNowhere(t *testing.T) {
	tr := staticTrace(8)
	base := runTrace(t, tr, Baseline)
	re := runTrace(t, tr, RE)
	if re.Total.TotalCycles() >= base.Total.TotalCycles() {
		t.Fatalf("RE %d cycles >= baseline %d on a static scene", re.Total.TotalCycles(), base.Total.TotalCycles())
	}

	// On a no-redundancy scene the overhead must stay tiny (<1%, Section V).
	b, _ := workload.ByAlias("mst")
	mst := b.Build(smallParams())
	baseM := runTrace(t, mst, Baseline)
	reM := runTrace(t, mst, RE)
	ratio := float64(reM.Total.TotalCycles()) / float64(baseM.Total.TotalCycles())
	if ratio > 1.01 {
		t.Fatalf("RE overhead on mst = %.3fx (want <= 1.01x)", ratio)
	}
}

func TestTESkipsFlushesOnStaticScene(t *testing.T) {
	tr := staticTrace(6)
	res := runTrace(t, tr, TE)
	if res.Frames[5].FlushesSkipped != res.Frames[5].TilesTotal {
		t.Fatalf("static frame should skip all flushes: %d of %d",
			res.Frames[5].FlushesSkipped, res.Frames[5].TilesTotal)
	}
	// TE still renders everything: no tile skips, fragments shaded as base.
	base := runTrace(t, tr, Baseline)
	if res.Total.FragsShaded != base.Total.FragsShaded {
		t.Fatal("TE must not change shading work")
	}
	if res.Total.Traffic[TrafficColor] >= base.Total.Traffic[TrafficColor] {
		t.Fatal("TE should reduce color traffic")
	}
}

func TestTEPixelExactVsBaseline(t *testing.T) {
	b, _ := workload.ByAlias("ccs")
	tr := b.Build(smallParams())
	simA, _ := New(tr, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Technique = TE
	simB, _ := New(tr, cfg)
	for f := range tr.Frames {
		simA.RunFrame(&tr.Frames[f])
		simB.RunFrame(&tr.Frames[f])
	}
	fa := simA.FrameBufferSnapshot()
	fb := simB.FrameBufferSnapshot()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}

func TestMemoReusesAndStaysPixelExact(t *testing.T) {
	tr := staticTrace(6)
	base := runTrace(t, tr, Baseline)
	memo := runTrace(t, tr, Memo)
	if memo.Total.FragsMemoReused == 0 {
		t.Fatal("memoization never hit on a static scene")
	}
	if memo.Total.FragsShaded >= base.Total.FragsShaded {
		t.Fatal("memoization did not reduce shading")
	}
	// Functional equivalence.
	cfgM := DefaultConfig()
	cfgM.Technique = Memo
	simA, _ := New(tr, DefaultConfig())
	simB, _ := New(tr, cfgM)
	for f := range tr.Frames {
		simA.RunFrame(&tr.Frames[f])
		simB.RunFrame(&tr.Frames[f])
	}
	fa := simA.FrameBufferSnapshot()
	fb := simB.FrameBufferSnapshot()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("pixel %d differs under memoization", i)
		}
	}
}

func TestMemoOddFramesCannotReuseCrossFrame(t *testing.T) {
	tr := staticTrace(5)
	cfg := DefaultConfig()
	cfg.Technique = Memo
	sim, _ := New(tr, cfg)
	var frames []Stats
	for f := range tr.Frames {
		frames = append(frames, sim.RunFrame(&tr.Frames[f]))
	}
	// Even (first-of-pair) frames only reuse intra-frame; odd frames also
	// reuse the previous frame. On a static scene odd frames must reuse
	// strictly more.
	if frames[1].FragsMemoReused <= frames[2].FragsMemoReused {
		t.Fatalf("PFR pairing broken: odd frame reused %d, even frame %d",
			frames[1].FragsMemoReused, frames[2].FragsMemoReused)
	}
}

func TestUploadDisablesREForFrame(t *testing.T) {
	tr := staticTrace(8)
	// Inject a texture upload into frame 4.
	up := api.UploadTexture{ID: 9, Spec: api.TextureSpec{
		Kind: api.TexChecker, W: 8, H: 8, Cell: 2,
		A: geom.V4(1, 0, 0, 1), B: geom.V4(0, 0, 1, 1), Filter: texture.Nearest},
	}
	tr.Frames[4].Commands = append([]api.Command{up}, tr.Frames[4].Commands...)
	res := runTrace(t, tr, RE)
	if res.Frames[4].TilesSkipped != 0 {
		t.Fatal("upload frame must render everything")
	}
	// Frame 5 compares against pre-upload frame 3, whose baseline was
	// invalidated: it must render. Frame 6 compares against frame 4, which
	// already used the new texture, so skipping is safe again.
	if res.Frames[5].TilesSkipped != 0 {
		t.Fatalf("stale pre-upload baseline used: frame 5 skipped %d", res.Frames[5].TilesSkipped)
	}
	if res.Frames[6].TilesSkipped != res.Frames[6].TilesTotal {
		t.Fatalf("frame 6 should be fully redundant vs post-upload frame 4, skipped %d", res.Frames[6].TilesSkipped)
	}
	if res.Frames[7].TilesSkipped != res.Frames[7].TilesTotal {
		t.Fatalf("frame 7 should be fully redundant, skipped %d", res.Frames[7].TilesSkipped)
	}
}

func TestMRTDisablesRE(t *testing.T) {
	tr := staticTrace(6)
	tr.Frames[4].Commands = append([]api.Command{api.SetRenderTargets{N: 2}}, tr.Frames[4].Commands...)
	tr.Frames[5].Commands = append([]api.Command{api.SetRenderTargets{N: 1}}, tr.Frames[5].Commands...)
	res := runTrace(t, tr, RE)
	if res.Frames[4].TilesSkipped != 0 {
		t.Fatal("MRT frame must render everything")
	}
	if res.Frames[5].TilesSkipped == 0 {
		t.Fatal("RE should resume after MRT ends (baselines remain valid)")
	}
}

func TestRefreshIntervalForcesRender(t *testing.T) {
	tr := staticTrace(9)
	cfg := DefaultConfig()
	cfg.Technique = RE
	cfg.RefreshInterval = 4
	sim, _ := New(tr, cfg)
	var frames []Stats
	for f := range tr.Frames {
		frames = append(frames, sim.RunFrame(&tr.Frames[f]))
	}
	if frames[4].TilesSkipped != 0 || frames[8].TilesSkipped != 0 {
		t.Fatalf("refresh frames must render: f4=%d f8=%d", frames[4].TilesSkipped, frames[8].TilesSkipped)
	}
	if frames[5].TilesSkipped == 0 {
		t.Fatal("non-refresh frame should skip again")
	}
}

func TestTrafficClassification(t *testing.T) {
	b, _ := workload.ByAlias("ccs")
	res := runTrace(t, b.Build(smallParams()), Baseline)
	tot := res.Total
	if tot.Traffic[TrafficColor] == 0 || tot.Traffic[TrafficTexel] == 0 ||
		tot.Traffic[TrafficPBWrite] == 0 || tot.Traffic[TrafficVertex] == 0 {
		t.Fatalf("traffic classes missing: %+v", tot.Traffic)
	}
	if tot.TotalTraffic() != tot.Activity.DRAMBytes {
		t.Fatalf("classified %d bytes, DRAM moved %d", tot.TotalTraffic(), tot.Activity.DRAMBytes)
	}
}

func TestREReducesTrafficAndEnergyActivity(t *testing.T) {
	b, _ := workload.ByAlias("cde")
	tr := b.Build(smallParams())
	base := runTrace(t, tr, Baseline)
	re := runTrace(t, tr, RE)
	if re.Total.RasterTraffic() >= base.Total.RasterTraffic() {
		t.Fatal("RE should cut raster traffic on cde")
	}
	if re.Total.FragsShaded >= base.Total.FragsShaded {
		t.Fatal("RE should cut shaded fragments on cde")
	}
	if re.Total.Activity.SigBufferAccesses == 0 {
		t.Fatal("RE runs must charge Signature Buffer energy")
	}
	if base.Total.Activity.SigBufferAccesses != 0 {
		t.Fatal("baseline must not charge RE structures")
	}
}

func TestStatsAddAndDerived(t *testing.T) {
	var s Stats
	s.TilesClassified = 10
	s.TileClasses[TileEqColorEqInput] = 4
	s.TileClasses[TileEqColorDiffInput] = 2
	if s.EqualColorFraction() != 0.6 {
		t.Fatalf("equal-color fraction = %v", s.EqualColorFraction())
	}
	s.TilesTotal = 20
	s.TilesSkipped = 5
	if s.SkipFraction() != 0.25 {
		t.Fatalf("skip fraction = %v", s.SkipFraction())
	}
	var zero Stats
	if zero.EqualColorFraction() != 0 || zero.SkipFraction() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestShaderUploadMidTrace(t *testing.T) {
	tr := staticTrace(4)
	newFS := shader.FlatFS()
	tr.Frames[2].Commands = append([]api.Command{api.UploadProgram{ID: 9, Program: newFS}}, tr.Frames[2].Commands...)
	res := runTrace(t, tr, RE)
	if res.Frames[2].TilesSkipped != 0 {
		t.Fatal("program upload frame must render")
	}
}

// A vertex shader has no texture units bound, so its tex samples the zero
// vector: adding that sample to the color varying changes no pixel.
func TestTexInVertexShaderSamplesZero(t *testing.T) {
	plain := staticTrace(2)
	texVS := staticTrace(2)
	vs := shader.TransformVS(2)
	vs.Instrs = append(vs.Instrs,
		shader.Instr{Op: shader.OpTex, Dst: shader.RD(1), Src: [3]shader.Src{shader.V(2)}},
		shader.Instr{Op: shader.OpAdd, Dst: shader.OD(1), Src: [3]shader.Src{shader.V(1), shader.R(1)}},
	)
	texVS.Programs[0] = vs
	simA, err := New(plain, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	simB, err := New(texVS, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for f := range plain.Frames {
		simA.RunFrame(&plain.Frames[f])
		simB.RunFrame(&texVS.Frames[f])
		fa, fb := simA.FrameBufferSnapshot(), simB.FrameBufferSnapshot()
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("frame %d: pixel %d differs plain=%08x tex-vs=%08x", f, i, fa[i], fb[i])
			}
		}
	}
}
