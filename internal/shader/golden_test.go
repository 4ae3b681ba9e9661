package shader

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rendelim/internal/geom"
)

// goldenVMCRC is the fold of every output register and the final Counts of
// TestVMGolden's random program sweep, recorded on the interpreter the
// decoded VM replaced. It pins the exact float32 results — operation order,
// signed zeros, temps zeroed per run, outputs kept across runs, unset
// constants reading as zero — so the VM cannot drift by a single bit. Only
// NaN payloads are left out: they depend on compiler lowering, not on the VM.
const goldenVMCRC = 0xa0997afd

// randProgram draws a valid program of 1..8 instructions covering every
// opcode, every readable bank, random swizzles, negation and write masks,
// and constant indices past the bound constants.
func randProgram(rng *rand.Rand) *Program {
	p := &Program{Name: "rand", Instrs: make([]Instr, 1+rng.Intn(8))}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		in.Op = Op(rng.Intn(int(opCount)))
		if rng.Intn(2) == 0 {
			in.Dst = RD(uint8(rng.Intn(MaxTemps)))
		} else {
			in.Dst = OD(uint8(rng.Intn(MaxOutputs)))
		}
		in.Dst.Mask = uint8(rng.Intn(MaskXYZW + 1))
		for s := range in.Src {
			var src Src
			switch rng.Intn(3) {
			case 0:
				src = R(uint8(rng.Intn(MaxTemps)))
			case 1:
				src = V(uint8(rng.Intn(MaxInputs)))
			default:
				src = C(uint8(rng.Intn(MaxConsts)))
			}
			if rng.Intn(2) == 0 {
				src.Swz = Swz(uint8(rng.Intn(4)), uint8(rng.Intn(4)), uint8(rng.Intn(4)), uint8(rng.Intn(4)))
			}
			src.Neg = rng.Intn(4) == 0
			in.Src[s] = src
		}
		in.TexUnit = uint8(rng.Intn(MaxTexUnit))
	}
	return p
}

// randVec4 draws lanes in [-4, 4), with signed zeros, infinities and NaN
// mixed in so rcp, rsq, cmp, the min/max ties and NaN propagation see their
// edge cases.
func randVec4(rng *rand.Rand) geom.Vec4 {
	special := [...]float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	lane := func() float32 {
		if rng.Intn(8) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Float32()*8 - 4
	}
	return geom.V4(lane(), lane(), lane(), lane())
}

func TestVMGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse a*b+c into one rounding step, which
		// legally changes the low bits the constant pins.
		t.Skip("golden constant recorded on amd64")
	}
	rng := rand.New(rand.NewSource(13))
	e := &Exec{Sampler: fixedSampler{geom.V4(0.5, 0.5, 0.5, 1)}}
	var buf []byte
	fold := func(v geom.Vec4) {
		for _, f := range [4]float32{v.X, v.Y, v.Z, v.W} {
			bits := math.Float32bits(f)
			if f != f {
				// Which NaN an operation returns depends on how the
				// compiler lowered it (x*-1 may become a sign flip), so
				// every NaN folds as one.
				bits = 0x7fc00000
			}
			buf = binary.LittleEndian.AppendUint32(buf, bits)
		}
	}
	for n := 0; n < 5000; n++ {
		p := randProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("program %d: %v", n, err)
		}
		consts := make([]geom.Vec4, rng.Intn(MaxConsts+1))
		for i := range consts {
			consts[i] = randVec4(rng)
		}
		e.SetConsts(consts)
		code := p.Decode(nil)
		for inv := 0; inv < 2; inv++ {
			for i := 0; i < MaxInputs; i++ {
				e.In()[i] = randVec4(rng)
			}
			e.Run(code)
			for i := 0; i < MaxOutputs; i++ {
				fold(e.Out()[i])
			}
		}
	}
	for _, c := range [3]uint64{e.Counts.Instructions, e.Counts.TexSamples, e.Counts.Invocations} {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	if got := crc32.ChecksumIEEE(buf); got != goldenVMCRC {
		t.Fatalf("VM golden CRC = %#08x, want %#08x", got, goldenVMCRC)
	}
}
