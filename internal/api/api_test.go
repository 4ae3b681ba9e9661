package api

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"rendelim/internal/geom"
	"rendelim/internal/shader"
)

func TestDrawShape(t *testing.T) {
	d := Draw{NumAttrs: 3, Data: make([]geom.Vec4, 18)} // 6 verts = 2 tris
	if d.VertexCount() != 6 || d.TriangleCount() != 2 {
		t.Fatalf("counts: %d verts, %d tris", d.VertexCount(), d.TriangleCount())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.VertexBytes() != 48 {
		t.Fatalf("vertex bytes = %d", d.VertexBytes())
	}
	if (Draw{}).VertexCount() != 0 {
		t.Fatal("empty draw should have zero vertices")
	}
}

func TestDrawValidateRejects(t *testing.T) {
	bad := []Draw{
		{NumAttrs: 0, Data: make([]geom.Vec4, 3)},
		{NumAttrs: MaxVertexAttrs + 1, Data: make([]geom.Vec4, 15)},
		{NumAttrs: 2, Data: make([]geom.Vec4, 7)}, // not whole triangles
	}
	for i, d := range bad {
		if d.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDrawVertexSlicing(t *testing.T) {
	d := Draw{NumAttrs: 2, Data: []geom.Vec4{
		geom.V4(0, 0, 0, 1), geom.V4(9, 9, 9, 9),
		geom.V4(1, 0, 0, 1), geom.V4(8, 8, 8, 8),
		geom.V4(0, 1, 0, 1), geom.V4(7, 7, 7, 7),
	}}
	v1 := d.Vertex(1)
	if len(v1) != 2 || v1[0] != geom.V4(1, 0, 0, 1) || v1[1] != geom.V4(8, 8, 8, 8) {
		t.Fatalf("vertex 1 = %v", v1)
	}
}

func TestStateApply(t *testing.T) {
	s := NewState()
	if !s.Pipeline.DepthTest || s.RenderTargets != 1 {
		t.Fatal("reset state wrong")
	}
	s.Apply(SetPipeline{VS: 1, FS: 2, Blend: BlendAlpha})
	if s.Pipeline.FS != 2 || s.Pipeline.Blend != BlendAlpha {
		t.Fatal("pipeline not applied")
	}
	s.Apply(SetUniforms{First: 4, Values: []geom.Vec4{geom.V4(1, 2, 3, 4)}})
	if s.Uniforms[4] != geom.V4(1, 2, 3, 4) {
		t.Fatal("uniform not applied")
	}
	s.Apply(SetRenderTargets{N: 2})
	if s.RenderTargets != 2 {
		t.Fatal("render targets not applied")
	}
	// Out-of-range uniform writes are ignored, not panicking.
	s.Apply(SetUniforms{First: shader.MaxConsts - 1, Values: make([]geom.Vec4, 4)})
}

func TestStateUploadFlag(t *testing.T) {
	s := NewState()
	s.Apply(UploadTexture{ID: 1})
	if !s.UploadsThisFrame {
		t.Fatal("upload flag not set")
	}
	s.BeginFrame()
	if s.UploadsThisFrame {
		t.Fatal("upload flag not cleared")
	}
	s.Apply(UploadProgram{ID: 1, Program: shader.FlatFS()})
	if !s.UploadsThisFrame {
		t.Fatal("program upload flag not set")
	}
}

func TestSignedConstantsWindow(t *testing.T) {
	s := NewState()
	s.Apply(SetUniforms{First: 0, Values: []geom.Vec4{geom.V4(5, 0, 0, 0)}})
	c := s.SignedConstants()
	if len(c) != SignedUniforms || c[0] != geom.V4(5, 0, 0, 0) {
		t.Fatalf("signed constants = %v", c[:1])
	}
}

func TestAppendUniformRecordDistinguishesRegisters(t *testing.T) {
	v := geom.V4(1, 2, 3, 4)
	a := AppendUniformRecord(nil, SetUniforms{First: 4, Values: []geom.Vec4{v}})
	b := AppendUniformRecord(nil, SetUniforms{First: 5, Values: []geom.Vec4{v}})
	if bytes.Equal(a, b) {
		t.Fatal("same value at different registers must serialize differently")
	}
	if len(a) != 8+16 {
		t.Fatalf("record length = %d", len(a))
	}
}

func TestAppendPrimitiveBytes(t *testing.T) {
	d := Draw{NumAttrs: 2, Data: make([]geom.Vec4, 12)} // 2 triangles
	for i := range d.Data {
		d.Data[i] = geom.V4(float32(i), 0, 0, 1)
	}
	p0 := AppendPrimitive(nil, d, 0)
	p1 := AppendPrimitive(nil, d, 1)
	if len(p0) != PrimitiveBytes(2) || PrimitiveBytes(2) != 96 {
		t.Fatalf("primitive bytes = %d", len(p0))
	}
	if bytes.Equal(p0, p1) {
		t.Fatal("distinct triangles serialized identically")
	}
	// Deterministic, including float bit patterns.
	if !bytes.Equal(p0, AppendPrimitive(nil, d, 0)) {
		t.Fatal("serialization not deterministic")
	}
}

func TestAppendPrimitiveDistinguishesNegZero(t *testing.T) {
	mk := func(x float32) []byte {
		d := Draw{NumAttrs: 1, Data: []geom.Vec4{
			geom.V4(x, 0, 0, 1), geom.V4(1, 0, 0, 1), geom.V4(0, 1, 0, 1),
		}}
		return AppendPrimitive(nil, d, 0)
	}
	negZero := float32(math.Copysign(0, -1))
	if bytes.Equal(mk(0), mk(negZero)) {
		t.Fatal("+0 and -0 should sign differently (bit-pattern hashing)")
	}
}

func TestTextureSpecBuildKinds(t *testing.T) {
	kinds := []TextureKind{TexChecker, TexGradient, TexNoise, TexDisc}
	for _, k := range kinds {
		spec := TextureSpec{Kind: k, W: 8, H: 8, Cell: 2, Seed: 1,
			A: geom.V4(1, 0, 0, 1), B: geom.V4(0, 0, 1, 1), Amp: 0.2}
		tex := spec.Build(3)
		if tex.ID != 3 || tex.W != 8 || tex.H != 8 {
			t.Fatalf("kind %d: built %dx%d id %d", k, tex.W, tex.H, tex.ID)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{
		Name: "t", Width: 32, Height: 32,
		Programs: []*shader.Program{shader.FlatFS()},
		Textures: []TextureSpec{{Kind: TexChecker, W: 4, H: 4, Cell: 2}},
		Frames: []Frame{{Commands: []Command{
			SetPipeline{VS: 0, FS: 0},
			SetUniforms{First: 0, Values: make([]geom.Vec4, 4)},
			Draw{NumAttrs: 1, Data: make([]geom.Vec4, 3)},
		}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := *good
	bad.Width = 0
	if bad.Validate() == nil {
		t.Fatal("zero width accepted")
	}

	badProg := *good
	badProg.Frames = []Frame{{Commands: []Command{SetPipeline{VS: 7}}}}
	if badProg.Validate() == nil {
		t.Fatal("out-of-range program accepted")
	}

	badTex := *good
	badTex.Frames = []Frame{{Commands: []Command{SetPipeline{Tex: [MaxTexUnits]TextureID{3}}}}}
	if badTex.Validate() == nil {
		t.Fatal("out-of-range texture accepted")
	}

	badUni := *good
	badUni.Frames = []Frame{{Commands: []Command{SetUniforms{First: shader.MaxConsts, Values: make([]geom.Vec4, 1)}}}}
	if badUni.Validate() == nil {
		t.Fatal("out-of-range uniform accepted")
	}

	badRT := *good
	badRT.Frames = []Frame{{Commands: []Command{SetRenderTargets{N: 0}}}}
	if badRT.Validate() == nil {
		t.Fatal("zero render targets accepted")
	}

	badDraw := *good
	badDraw.Frames = []Frame{{Commands: []Command{Draw{NumAttrs: 1, Data: make([]geom.Vec4, 4)}}}}
	if badDraw.Validate() == nil {
		t.Fatal("ragged draw accepted")
	}

	upload := *good
	upload.Frames = []Frame{{Commands: []Command{UploadProgram{ID: 1, Program: shader.LambertTexFS()}}}}
	if err := upload.Validate(); err != nil {
		t.Fatalf("valid upload rejected: %v", err)
	}
}

// Uploaded programs reach the shader VM like the trace's own programs, so
// Validate must reject the same defects in them.
func TestTraceValidateRejectsBadUploads(t *testing.T) {
	outOfRange := &shader.Program{Name: "wild", Instrs: []shader.Instr{
		{Op: shader.OpMov, Dst: shader.RD(200), Src: [3]shader.Src{shader.V(0)}},
	}}
	wantErr := outOfRange.Validate()
	if wantErr == nil {
		t.Fatal("program with temp dst 200 validated")
	}
	for _, tc := range []struct {
		name string
		prog *shader.Program
	}{
		{"nil", nil},
		{"out-of-range", outOfRange},
	} {
		tr := &Trace{
			Name: "t", Width: 32, Height: 32,
			Programs: []*shader.Program{shader.FlatFS()},
			Frames:   []Frame{{Commands: []Command{UploadProgram{ID: 1, Program: tc.prog}}}},
		}
		err := tr.Validate()
		if err == nil {
			t.Fatalf("%s upload accepted", tc.name)
		}
		if inner := errors.Unwrap(err); tc.prog != nil && (inner == nil || inner.Error() != wantErr.Error()) {
			t.Fatalf("%s upload: error %q does not wrap the program's %q", tc.name, err, wantErr)
		}
	}
}
