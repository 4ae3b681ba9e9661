// Package texture provides the RGBA8 texture store of the simulated GPU:
// storage, nearest/bilinear sampling, and the texel address stream the
// texture-cache model consumes. Textures are procedural and seeded, standing
// in for the game art of the paper's benchmarks (see DESIGN.md §1).
package texture

import (
	"fmt"
	"math"

	"rendelim/internal/geom"
)

// Filter selects the sampling filter.
type Filter uint8

// Supported filters.
const (
	Nearest Filter = iota
	Bilinear
)

// Texture is a W x H RGBA8 image. Pix is row-major packed 0xAABBGGRR
// (little-endian RGBA bytes), 4 bytes per texel.
type Texture struct {
	ID     int
	W, H   int
	Pix    []uint32
	Filter Filter
	// Base is the texture's simulated main-memory base address, assigned
	// by the GPU's memory layout so texel fetches produce cacheable
	// addresses.
	Base uint64
}

// New allocates a black texture of the given size.
func New(id, w, h int) *Texture {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("texture: invalid size %dx%d", w, h))
	}
	return &Texture{ID: id, W: w, H: h, Pix: make([]uint32, w*h), Filter: Bilinear}
}

// Bytes returns the texture's storage footprint in bytes.
func (t *Texture) Bytes() int { return len(t.Pix) * 4 }

// At returns the texel at (x,y) clamped to the texture bounds.
func (t *Texture) At(x, y int) uint32 {
	if x < 0 {
		x = 0
	} else if x >= t.W {
		x = t.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= t.H {
		y = t.H - 1
	}
	return t.Pix[y*t.W+x]
}

// Set writes the texel at (x,y); out-of-bounds writes are ignored.
func (t *Texture) Set(x, y int, c uint32) {
	if x < 0 || y < 0 || x >= t.W || y >= t.H {
		return
	}
	t.Pix[y*t.W+x] = c
}

// Addr returns the simulated memory address of texel (x,y), clamped.
func (t *Texture) Addr(x, y int) uint64 {
	if x < 0 {
		x = 0
	} else if x >= t.W {
		x = t.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= t.H {
		y = t.H - 1
	}
	return t.Base + uint64(y*t.W+x)*4
}

// PackColor converts a float color in [0,1] to packed RGBA8.
func PackColor(c geom.Vec4) uint32 {
	c = c.Clamp01()
	r := uint32(c.X*255 + 0.5)
	g := uint32(c.Y*255 + 0.5)
	b := uint32(c.Z*255 + 0.5)
	a := uint32(c.W*255 + 0.5)
	return r | g<<8 | b<<16 | a<<24
}

// unorm8[i] is float32(i)/255, the float value of an 8-bit channel.
var unorm8 = func() (t [256]float32) {
	for i := range t {
		t[i] = float32(i) / 255
	}
	return t
}()

// UnpackColor converts packed RGBA8 to a float color.
func UnpackColor(p uint32) geom.Vec4 {
	return geom.V4(unorm8[p&0xFF], unorm8[p>>8&0xFF], unorm8[p>>16&0xFF], unorm8[p>>24])
}

// TexelVisitor receives the address of every texel a sample touches, so the
// GPU can drive its texture caches. It may be nil.
type TexelVisitor func(addr uint64)

// Sample samples the texture at normalized coordinates (u,v) with its
// configured filter, wrapping with GL_REPEAT semantics, and reports the
// touched texel addresses to visit.
func (t *Texture) Sample(u, v float32, visit TexelVisitor) geom.Vec4 {
	switch t.Filter {
	case Nearest:
		x := wrapCoord(u, t.W)
		y := wrapCoord(v, t.H)
		if visit != nil {
			visit(t.Addr(x, y))
		}
		return UnpackColor(t.At(x, y))
	default: // Bilinear
		fx := wrapf(u)*float32(t.W) - 0.5
		fy := wrapf(v)*float32(t.H) - 0.5
		x0 := int(floorf(fx))
		y0 := int(floorf(fy))
		tx := fx - float32(x0)
		ty := fy - float32(y0)
		x0 = wrapIdx(x0, t.W)
		y0 = wrapIdx(y0, t.H)
		x1 := wrapIdx(x0+1, t.W)
		y1 := wrapIdx(y0+1, t.H)
		if visit != nil {
			visit(t.Addr(x0, y0))
			visit(t.Addr(x1, y0))
			visit(t.Addr(x0, y1))
			visit(t.Addr(x1, y1))
		}
		c00 := UnpackColor(t.At(x0, y0))
		c10 := UnpackColor(t.At(x1, y0))
		c01 := UnpackColor(t.At(x0, y1))
		c11 := UnpackColor(t.At(x1, y1))
		top := c00.Lerp(c10, tx)
		bot := c01.Lerp(c11, tx)
		return top.Lerp(bot, ty)
	}
}

func wrapf(u float32) float32 {
	w := u - floorf(u)
	if w < 0 { // defensive; floorf guarantees w in [0,1)
		w = 0
	}
	return w
}

func wrapCoord(u float32, n int) int {
	return wrapIdx(int(floorf(wrapf(u)*float32(n))), n)
}

func wrapIdx(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func floorf(v float32) float32 { return float32(math.Floor(float64(v))) }
