// Package shader implements the programmable-stage model of the simulated
// GPU: a small vec4 register bytecode that both the Vertex Processors and
// the Fragment Processors execute (paper Section II, "programs called
// shaders ... shared among all vertices of a drawcall"). The interpreter
// renders real colors — the functional half of the simulator — and counts
// executed instructions and texture samples for the timing and energy
// models.
package shader

import (
	"fmt"
	"math"

	"rendelim/internal/geom"
)

// Register-file size limits. They mirror the small register budgets of a
// Mali-class shader core and bound Exec's fixed storage.
const (
	MaxInputs  = 8  // vertex attributes / interpolated varyings
	MaxTemps   = 8  // scratch registers
	MaxConsts  = 32 // uniform registers ("scene constants")
	MaxOutputs = 4  // o0 = position (VS) or color (FS), o1.. = varyings
	MaxTexUnit = 4
)

// Op enumerates the VM opcodes.
type Op uint8

// Supported operations. All execute in one cycle of a shader processor.
const (
	OpMov Op = iota // d = a
	OpAdd           // d = a + b
	OpSub           // d = a - b
	OpMul           // d = a * b
	OpMad           // d = a*b + c
	OpDP3           // d = splat(a.xyz · b.xyz)
	OpDP4           // d = splat(a · b)
	OpMin           // d = min(a, b)
	OpMax           // d = max(a, b)
	OpRcp           // d = splat(1 / a.x)
	OpRsq           // d = splat(1 / sqrt(|a.x|))
	OpFrc           // d = a - floor(a)
	OpFlr           // d = floor(a)
	OpSat           // d = clamp(a, 0, 1)
	OpCmp           // d_i = a_i >= 0 ? b_i : c_i
	OpTex           // d = sample(TexUnit, a.xy)
	opCount
)

var opNames = [opCount]string{
	"mov", "add", "sub", "mul", "mad", "dp3", "dp4", "min", "max",
	"rcp", "rsq", "frc", "flr", "sat", "cmp", "tex",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// nsrc[op] is the number of source operands the op reads.
var nsrc = [opCount]int{
	OpMov: 1, OpAdd: 2, OpSub: 2, OpMul: 2, OpMad: 3, OpDP3: 2, OpDP4: 2,
	OpMin: 2, OpMax: 2, OpRcp: 1, OpRsq: 1, OpFrc: 1, OpFlr: 1, OpSat: 1,
	OpCmp: 3, OpTex: 1,
}

// File selects a register bank.
type File uint8

// Register banks.
const (
	FileTemp   File = iota // r0..r7, read/write
	FileInput              // v0..v7, read-only
	FileConst              // c0..c31, read-only uniforms
	FileOutput             // o0..o3, write-only
)

// String implements fmt.Stringer.
func (f File) String() string {
	switch f {
	case FileTemp:
		return "r"
	case FileInput:
		return "v"
	case FileConst:
		return "c"
	case FileOutput:
		return "o"
	}
	return "?"
}

// Swizzle selects, per destination component, which source component to
// read. The identity swizzle is {0,1,2,3} (".xyzw").
type Swizzle [4]uint8

// SwzXYZW is the identity swizzle.
var SwzXYZW = Swizzle{0, 1, 2, 3}

// Swz builds a swizzle from component indices (0=x .. 3=w).
func Swz(x, y, z, w uint8) Swizzle { return Swizzle{x, y, z, w} }

// Src is a source operand: a register reference with swizzle and negation.
type Src struct {
	File File
	Idx  uint8
	Swz  Swizzle
	Neg  bool
}

// R, V, C construct plain temp/input/const sources with identity swizzle.
func R(i uint8) Src { return Src{File: FileTemp, Idx: i, Swz: SwzXYZW} }

// V returns input register i as a source.
func V(i uint8) Src { return Src{File: FileInput, Idx: i, Swz: SwzXYZW} }

// C returns constant register i as a source.
func C(i uint8) Src { return Src{File: FileConst, Idx: i, Swz: SwzXYZW} }

// Swizzled returns s with the given swizzle.
func (s Src) Swizzled(sw Swizzle) Src { s.Swz = sw; return s }

// Negated returns s with the sign flipped.
func (s Src) Negated() Src { s.Neg = !s.Neg; return s }

// Write-mask bits for Dst.Mask. A zero mask means "all lanes" so that the
// zero value of Dst writes the whole register.
const (
	MaskX = 1 << iota
	MaskY
	MaskZ
	MaskW
	MaskXYZW = MaskX | MaskY | MaskZ | MaskW
)

// Dst is a destination operand: a temp or output register with an optional
// per-component write mask (as in ARB/DX shader assembly).
type Dst struct {
	File File
	Idx  uint8
	Mask uint8
}

// RD and OD construct temp and output destinations.
func RD(i uint8) Dst { return Dst{File: FileTemp, Idx: i} }

// OD returns output register i as a destination.
func OD(i uint8) Dst { return Dst{File: FileOutput, Idx: i} }

// Masked returns d writing only the lanes in mask.
func (d Dst) Masked(mask uint8) Dst { d.Mask = mask; return d }

// Instr is one VM instruction.
type Instr struct {
	Op      Op
	Dst     Dst
	Src     [3]Src
	TexUnit uint8 // for OpTex
}

// Program is a validated sequence of instructions with a name for reports.
type Program struct {
	Name   string
	Instrs []Instr
}

// Validate checks every register reference against the bank limits.
func (p *Program) Validate() error {
	for i, in := range p.Instrs {
		if in.Op >= opCount {
			return fmt.Errorf("shader %q instr %d: bad opcode %d", p.Name, i, in.Op)
		}
		switch in.Dst.File {
		case FileTemp:
			if in.Dst.Idx >= MaxTemps {
				return fmt.Errorf("shader %q instr %d: temp dst %d out of range", p.Name, i, in.Dst.Idx)
			}
		case FileOutput:
			if in.Dst.Idx >= MaxOutputs {
				return fmt.Errorf("shader %q instr %d: output dst %d out of range", p.Name, i, in.Dst.Idx)
			}
		default:
			return fmt.Errorf("shader %q instr %d: dst file %v not writable", p.Name, i, in.Dst.File)
		}
		for s := 0; s < nsrc[in.Op]; s++ {
			src := in.Src[s]
			var limit uint8
			switch src.File {
			case FileTemp:
				limit = MaxTemps
			case FileInput:
				limit = MaxInputs
			case FileConst:
				limit = MaxConsts
			default:
				return fmt.Errorf("shader %q instr %d: src file %v not readable", p.Name, i, src.File)
			}
			if src.Idx >= limit {
				return fmt.Errorf("shader %q instr %d: src %v%d out of range", p.Name, i, src.File, src.Idx)
			}
			for _, c := range src.Swz {
				if c > 3 {
					return fmt.Errorf("shader %q instr %d: bad swizzle component %d", p.Name, i, c)
				}
			}
		}
		if in.Op == OpTex && in.TexUnit >= MaxTexUnit {
			return fmt.Errorf("shader %q instr %d: texture unit %d out of range", p.Name, i, in.TexUnit)
		}
	}
	return nil
}

// Sampler provides texture lookups to the VM. The GPU integrator wraps the
// texture store with cache-traffic recording behind this interface.
type Sampler interface {
	Sample(unit int, u, v float32) geom.Vec4
}

// Counts accumulates the dynamic activity of shader invocations.
type Counts struct {
	Instructions uint64
	TexSamples   uint64
	Invocations  uint64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Instructions += o.Instructions
	c.TexSamples += o.TexSamples
	c.Invocations += o.Invocations
}

// The flat register file: Exec keeps every bank in one array, so a decoded
// operand is a single index and Run never switches on the bank.
const (
	tempBase   = 0
	inputBase  = tempBase + MaxTemps
	constBase  = inputBase + MaxInputs
	outputBase = constBase + MaxConsts
	numRegs    = outputBase + MaxOutputs
)

// regIndex maps a bank-relative register to its flat index.
func regIndex(f File, idx uint8) uint8 {
	base := [...]uint8{FileTemp: tempBase, FileInput: inputBase, FileConst: constBase, FileOutput: outputBase}
	return base[f] + idx
}

// instr is one decoded instruction: every operand resolved to a flat
// register index, with the swizzle, negation and write-mask work flagged so
// Run skips it when it is the identity.
type instr struct {
	op    Op
	nsrc  uint8
	ident uint8 // bit s: source s has the identity swizzle
	neg   uint8 // bit s: source s is negated
	dst   uint8
	full  bool  // the write mask covers all four lanes
	mask  uint8 // lanes written when !full
	unit  uint8 // texture unit for OpTex
	src   [3]uint8
	swz   [3]Swizzle
}

// Code is a decoded program, the only form Run executes.
type Code []instr

// Decode translates p into Code, reusing dst's storage. p must have passed
// Validate, which is the only check: Decode trusts every index.
func (p *Program) Decode(dst Code) Code {
	dst = dst[:0]
	for i := range p.Instrs {
		in := &p.Instrs[i]
		d := instr{
			op:   in.Op,
			nsrc: uint8(nsrc[in.Op]),
			dst:  regIndex(in.Dst.File, in.Dst.Idx),
			full: in.Dst.Mask == 0 || in.Dst.Mask == MaskXYZW,
			mask: in.Dst.Mask,
			unit: in.TexUnit,
		}
		for s := 0; s < nsrc[in.Op]; s++ {
			src := &in.Src[s]
			d.src[s] = regIndex(src.File, src.Idx)
			d.swz[s] = src.Swz
			if src.Swz == SwzXYZW {
				d.ident |= 1 << s
			}
			if src.Neg {
				d.neg |= 1 << s
			}
		}
		dst = append(dst, d)
	}
	return dst
}

// Exec is a reusable execution context. Call SetConsts once per draw, fill
// In, call Run, read Out. Exec is not safe for concurrent use; allocate one
// per goroutine.
type Exec struct {
	Sampler Sampler // nil samples the zero vector
	Counts  Counts

	regs [numRegs]geom.Vec4
}

// In returns the input registers v0..v7.
func (e *Exec) In() *[MaxInputs]geom.Vec4 {
	return (*[MaxInputs]geom.Vec4)(e.regs[inputBase : inputBase+MaxInputs])
}

// Out returns the output registers o0..o3. Run does not clear them, so a
// lane no instruction writes keeps its previous value.
func (e *Exec) Out() *[MaxOutputs]geom.Vec4 {
	return (*[MaxOutputs]geom.Vec4)(e.regs[outputBase : outputBase+MaxOutputs])
}

// SetConsts copies consts into c0.. and zeroes the constant registers past
// len(consts), so unbound uniforms read as zero.
//
//re:hotpath
func (e *Exec) SetConsts(consts []geom.Vec4) {
	bank := e.regs[constBase : constBase+MaxConsts]
	clear(bank[copy(bank, consts):])
}

// operand fetches source s of in from the register file, swizzling and
// negating only where the program asks for it.
func (in *instr) operand(regs *[numRegs]geom.Vec4, s uint) geom.Vec4 {
	v := regs[in.src[s]]
	if in.ident>>s&1 == 0 {
		lanes := [4]float32{v.X, v.Y, v.Z, v.W}
		sw := &in.swz[s]
		v = geom.Vec4{X: lanes[sw[0]&3], Y: lanes[sw[1]&3], Z: lanes[sw[2]&3], W: lanes[sw[3]&3]}
	}
	if in.neg>>s&1 != 0 {
		v = v.Scale(-1)
	}
	return v
}

func splat(v float32) geom.Vec4 { return geom.Vec4{X: v, Y: v, Z: v, W: v} }

// Run executes code against the current inputs and constants. The
// temporaries are zeroed first so invocations are independent and
// deterministic.
//
//re:hotpath
func (e *Exec) Run(code Code) {
	regs := &e.regs
	clear(regs[tempBase : tempBase+MaxTemps])
	for i := range code {
		in := &code[i]
		a := in.operand(regs, 0)
		var b, c geom.Vec4
		if in.nsrc > 1 {
			b = in.operand(regs, 1)
		}
		if in.nsrc > 2 {
			c = in.operand(regs, 2)
		}
		var r geom.Vec4
		switch in.op {
		case OpMov:
			r = a
		case OpAdd:
			r = a.Add(b)
		case OpSub:
			r = a.Sub(b)
		case OpMul:
			r = a.Mul(b)
		case OpMad:
			r = a.Mul(b).Add(c)
		case OpDP3:
			r = splat(a.Dot3(b))
		case OpDP4:
			r = splat(a.Dot(b))
		case OpMin:
			r = geom.Vec4{X: minf(a.X, b.X), Y: minf(a.Y, b.Y), Z: minf(a.Z, b.Z), W: minf(a.W, b.W)}
		case OpMax:
			r = geom.Vec4{X: maxf(a.X, b.X), Y: maxf(a.Y, b.Y), Z: maxf(a.Z, b.Z), W: maxf(a.W, b.W)}
		case OpRcp:
			r = splat(rcp(a.X))
		case OpRsq:
			r = splat(rsq(a.X))
		case OpFrc:
			r = geom.Vec4{X: frc(a.X), Y: frc(a.Y), Z: frc(a.Z), W: frc(a.W)}
		case OpFlr:
			r = geom.Vec4{X: flr(a.X), Y: flr(a.Y), Z: flr(a.Z), W: flr(a.W)}
		case OpSat:
			r = a.Clamp01()
		case OpCmp:
			r = geom.Vec4{X: cmp(a.X, b.X, c.X), Y: cmp(a.Y, b.Y, c.Y), Z: cmp(a.Z, b.Z, c.Z), W: cmp(a.W, b.W, c.W)}
		case OpTex:
			if e.Sampler != nil {
				r = e.Sampler.Sample(int(in.unit), a.X, a.Y)
			}
			e.Counts.TexSamples++
		}
		d := &regs[in.dst]
		if in.full {
			*d = r
			continue
		}
		if in.mask&MaskX != 0 {
			d.X = r.X
		}
		if in.mask&MaskY != 0 {
			d.Y = r.Y
		}
		if in.mask&MaskZ != 0 {
			d.Z = r.Z
		}
		if in.mask&MaskW != 0 {
			d.W = r.W
		}
	}
	e.Counts.Instructions += uint64(len(code))
	e.Counts.Invocations++
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func rcp(v float32) float32 {
	if v == 0 {
		return float32(math.Inf(1))
	}
	return 1 / v
}

func rsq(v float32) float32 {
	av := float64(v)
	if av < 0 {
		av = -av
	}
	if av == 0 {
		return float32(math.Inf(1))
	}
	return float32(1 / math.Sqrt(av))
}

func frc(v float32) float32 { return v - flr(v) }

func flr(v float32) float32 { return float32(math.Floor(float64(v))) }

func cmp(a, b, c float32) float32 {
	if a >= 0 {
		return b
	}
	return c
}
