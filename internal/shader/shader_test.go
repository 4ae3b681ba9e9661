package shader

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rendelim/internal/geom"
)

type fixedSampler struct{ v geom.Vec4 }

func (s fixedSampler) Sample(unit int, u, v float32) geom.Vec4 {
	return s.v.Add(geom.V4(float32(unit), u, v, 0))
}

func run(t *testing.T, p *Program, setup func(*Exec)) *Exec {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	e := &Exec{Sampler: fixedSampler{geom.V4(0.5, 0.5, 0.5, 1)}}
	if setup != nil {
		setup(e)
	}
	e.Run(p.Decode(nil))
	return e
}

func TestOpSemantics(t *testing.T) {
	a := geom.V4(1, -2, 3, 0.5)
	b := geom.V4(2, 2, -1, 4)
	c := geom.V4(10, 20, 30, 40)
	cases := []struct {
		op   Op
		want geom.Vec4
	}{
		{OpMov, a},
		{OpAdd, a.Add(b)},
		{OpSub, a.Sub(b)},
		{OpMul, a.Mul(b)},
		{OpMad, a.Mul(b).Add(c)},
		{OpDP3, splat(a.Dot3(b))},
		{OpDP4, splat(a.Dot(b))},
		{OpMin, geom.V4(1, -2, -1, 0.5)},
		{OpMax, geom.V4(2, 2, 3, 4)},
		{OpRcp, splat(1)},
		{OpRsq, splat(1)},
		{OpFrc, geom.V4(0, 0, 0, 0.5)},
		{OpFlr, geom.V4(1, -2, 3, 0)},
		{OpSat, geom.V4(1, 0, 1, 0.5)},
		{OpCmp, geom.V4(2, 20, -1, 4)},
	}
	for _, tc := range cases {
		p := &Program{Name: "t", Instrs: []Instr{
			{Op: tc.op, Dst: OD(0), Src: [3]Src{V(0), V(1), V(2)}},
		}}
		e := run(t, p, func(e *Exec) { e.In()[0], e.In()[1], e.In()[2] = a, b, c })
		if tc.op == OpRcp || tc.op == OpRsq {
			// a.X == 1 so both are exactly 1.
		}
		if e.Out()[0] != tc.want {
			t.Errorf("%v: got %v, want %v", tc.op, e.Out()[0], tc.want)
		}
	}
}

func TestOpTexCountsSamples(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpTex, Dst: OD(0), Src: [3]Src{V(0)}, TexUnit: 2},
	}}
	e := run(t, p, func(e *Exec) { e.In()[0] = geom.V4(0.25, 0.75, 0, 0) })
	want := geom.V4(0.5+2, 0.5+0.25, 0.5+0.75, 1)
	if e.Out()[0] != want {
		t.Fatalf("tex result %v, want %v", e.Out()[0], want)
	}
	if e.Counts.TexSamples != 1 || e.Counts.Instructions != 1 || e.Counts.Invocations != 1 {
		t.Fatalf("counts = %+v", e.Counts)
	}
}

func TestSwizzleAndNegate(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpMov, Dst: OD(0), Src: [3]Src{V(0).Swizzled(Swz(3, 2, 1, 0)).Negated()}},
	}}
	e := run(t, p, func(e *Exec) { e.In()[0] = geom.V4(1, 2, 3, 4) })
	if e.Out()[0] != geom.V4(-4, -3, -2, -1) {
		t.Fatalf("swizzle+neg = %v", e.Out()[0])
	}
}

func TestWriteMask(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpMov, Dst: RD(0), Src: [3]Src{V(0)}},
		{Op: OpMov, Dst: RD(0).Masked(MaskY | MaskW), Src: [3]Src{V(1)}},
		{Op: OpMov, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
	e := run(t, p, func(e *Exec) {
		e.In()[0] = geom.V4(1, 2, 3, 4)
		e.In()[1] = geom.V4(9, 9, 9, 9)
	})
	if e.Out()[0] != geom.V4(1, 9, 3, 9) {
		t.Fatalf("masked write = %v", e.Out()[0])
	}
}

func TestRcpRsqSpecialValues(t *testing.T) {
	if !math.IsInf(float64(rcp(0)), 1) {
		t.Fatal("rcp(0) should be +Inf")
	}
	if !math.IsInf(float64(rsq(0)), 1) {
		t.Fatal("rsq(0) should be +Inf")
	}
	if got := rsq(-4); got != 0.5 {
		t.Fatalf("rsq(-4) = %v, want 0.5 (abs semantics)", got)
	}
}

func TestTempsZeroedBetweenRuns(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpAdd, Dst: RD(0), Src: [3]Src{R(0), V(0)}},
		{Op: OpMov, Dst: OD(0), Src: [3]Src{R(0)}},
	}}
	e := run(t, p, func(e *Exec) { e.In()[0] = geom.V4(1, 1, 1, 1) })
	e.Run(p.Decode(nil))
	if e.Out()[0] != geom.V4(1, 1, 1, 1) {
		t.Fatalf("temps leaked across invocations: %v", e.Out()[0])
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	bad := []*Program{
		{Name: "badop", Instrs: []Instr{{Op: opCount, Dst: OD(0)}}},
		{Name: "baddst", Instrs: []Instr{{Op: OpMov, Dst: Dst{File: FileConst}, Src: [3]Src{V(0)}}}},
		{Name: "dstrange", Instrs: []Instr{{Op: OpMov, Dst: RD(MaxTemps), Src: [3]Src{V(0)}}}},
		{Name: "outrange", Instrs: []Instr{{Op: OpMov, Dst: OD(MaxOutputs), Src: [3]Src{V(0)}}}},
		{Name: "srcfile", Instrs: []Instr{{Op: OpMov, Dst: OD(0), Src: [3]Src{{File: FileOutput, Swz: SwzXYZW}}}}},
		{Name: "srcrange", Instrs: []Instr{{Op: OpMov, Dst: OD(0), Src: [3]Src{V(MaxInputs)}}}},
		{Name: "swz", Instrs: []Instr{{Op: OpMov, Dst: OD(0), Src: [3]Src{V(0).Swizzled(Swz(0, 1, 2, 9))}}}},
		{Name: "texunit", Instrs: []Instr{{Op: OpTex, Dst: OD(0), Src: [3]Src{V(0)}, TexUnit: MaxTexUnit}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", p.Name)
		}
	}
}

func TestStdProgramsValidateAndCount(t *testing.T) {
	for _, p := range StdPrograms() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if len(p.Instrs) == 0 {
			t.Errorf("%s: empty program", p.Name)
		}
	}
}

func TestTransformVSTransformsPosition(t *testing.T) {
	mvp := geom.Translate(geom.V3(10, 20, 30))
	p := TransformVS(2)
	e := run(t, p, func(e *Exec) {
		e.SetConsts([]geom.Vec4{mvp.Row(0), mvp.Row(1), mvp.Row(2), mvp.Row(3)})
		e.In()[0] = geom.V4(1, 2, 3, 1)
		e.In()[1] = geom.V4(0.1, 0.2, 0.3, 0.4)
		e.In()[2] = geom.V4(0.5, 0.6, 0, 0)
	})
	if e.Out()[0] != geom.V4(11, 22, 33, 1) {
		t.Fatalf("position = %v", e.Out()[0])
	}
	if e.Out()[1] != geom.V4(0.1, 0.2, 0.3, 0.4) || e.Out()[2] != geom.V4(0.5, 0.6, 0, 0) {
		t.Fatalf("varyings = %v %v", e.Out()[1], e.Out()[2])
	}
}

func TestFlatFSAndTexturedFS(t *testing.T) {
	tint := geom.V4(0.5, 1, 0.25, 1)
	e := run(t, FlatFS(), func(e *Exec) {
		consts := make([]geom.Vec4, 8)
		consts[4] = tint
		e.SetConsts(consts)
	})
	if e.Out()[0] != tint {
		t.Fatalf("flat = %v", e.Out()[0])
	}

	e = run(t, TexturedFS(), func(e *Exec) {
		consts := make([]geom.Vec4, 8)
		consts[4] = geom.V4(1, 1, 1, 1)
		e.SetConsts(consts)
		e.In()[2] = geom.V4(0.5, 0.5, 0, 0)
	})
	want := geom.V4(0.5, 1, 1, 1) // fixedSampler(unit 0, 0.5, 0.5) saturated
	if e.Out()[0] != want {
		t.Fatalf("textured = %v, want %v", e.Out()[0], want)
	}
	if e.Counts.TexSamples != 1 {
		t.Fatalf("tex samples = %d", e.Counts.TexSamples)
	}
}

func TestLambertDarkAndLit(t *testing.T) {
	consts := make([]geom.Vec4, 8)
	consts[4] = geom.V4(1, 1, 1, 1)
	consts[5] = geom.V4(0, 0, 1, 0.25) // light +z, ambient 0.25

	lit := run(t, LambertTexFS(), func(e *Exec) {
		e.SetConsts(consts)
		e.In()[1] = geom.V4(0, 0, 1, 0) // normal facing light
		e.In()[2] = geom.V4(0, 0, 0, 0)
	})
	dark := run(t, LambertTexFS(), func(e *Exec) {
		e.SetConsts(consts)
		e.In()[1] = geom.V4(0, 0, -1, 0) // facing away -> ambient only
		e.In()[2] = geom.V4(0, 0, 0, 0)
	})
	if lit.Out()[0].X <= dark.Out()[0].X {
		t.Fatalf("lit %v not brighter than dark %v", lit.Out()[0], dark.Out()[0])
	}
	if dark.Out()[0].X == 0 {
		t.Fatal("ambient floor missing")
	}
}

// Property: the VM is a pure function of (program, inputs, consts).
func TestQuickDeterminism(t *testing.T) {
	p := LambertTexFS()
	f := func(in1, in2 [4]float32, tint [4]float32) bool {
		mk := func() geom.Vec4 {
			e := &Exec{Sampler: fixedSampler{geom.V4(0.5, 0.5, 0.5, 1)}}
			consts := make([]geom.Vec4, 8)
			consts[4] = geom.V4(tint[0], tint[1], tint[2], tint[3])
			consts[5] = geom.V4(0.3, 0.3, 0.9, 0.2)
			e.SetConsts(consts)
			e.In()[1] = geom.V4(in1[0], in1[1], in1[2], in1[3])
			e.In()[2] = geom.V4(in2[0], in2[1], in2[2], in2[3])
			e.Run(p.Decode(nil))
			return e.Out()[0]
		}
		a, b := mk(), mk()
		return a == b || (a != a) == (b != b) // NaN-tolerant equality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpAndFileStrings(t *testing.T) {
	if OpMad.String() != "mad" || OpTex.String() != "tex" {
		t.Fatal("op names wrong")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op should still format")
	}
	if FileTemp.String() != "r" || FileConst.String() != "c" || File(9).String() != "?" {
		t.Fatal("file names wrong")
	}
}

// A nil Sampler (the vertex stage binds no texture units) samples zero but
// still counts the sample.
func TestTexWithoutSamplerIsZero(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{
		{Op: OpTex, Dst: OD(0), Src: [3]Src{V(0)}, TexUnit: 1},
	}}
	e := &Exec{}
	e.Out()[0] = geom.V4(1, 2, 3, 4)
	e.In()[0] = geom.V4(0.5, 0.5, 0, 0)
	e.Run(p.Decode(nil))
	if e.Out()[0] != (geom.Vec4{}) || e.Counts.TexSamples != 1 {
		t.Fatalf("tex without sampler = %v, samples %d", e.Out()[0], e.Counts.TexSamples)
	}
}

func BenchmarkExecRun(b *testing.B) {
	consts := make([]geom.Vec4, MaxConsts)
	for i := range consts {
		consts[i] = geom.V4(float32(i)*0.1, 0.5, -0.25, 1)
	}
	for _, p := range StdPrograms() {
		b.Run(fmt.Sprintf("%s-%d", p.Name, len(p.Instrs)), func(b *testing.B) {
			e := &Exec{Sampler: fixedSampler{geom.V4(0.5, 0.5, 0.5, 1)}}
			e.SetConsts(consts)
			in := e.In()
			for i := range in {
				in[i] = geom.V4(0.25, float32(i)*0.125, 0.75, 1)
			}
			code := p.Decode(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Run(code)
			}
		})
	}
}
