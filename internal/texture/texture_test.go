package texture

import (
	"math"
	"testing"
	"testing/quick"

	"rendelim/internal/geom"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(r, g, b, a uint8) bool {
		p := uint32(r) | uint32(g)<<8 | uint32(b)<<16 | uint32(a)<<24
		return PackColor(UnpackColor(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The lookup table must be bit-identical to the division it replaced, in
// every channel.
func TestUnpackColorTableMatchesDivision(t *testing.T) {
	for i := uint32(0); i < 256; i++ {
		want := float32(i) / 255
		if got := unorm8[i]; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("unorm8[%d] = %v, want %v", i, got, want)
		}
		c := UnpackColor(i | (255-i)<<8 | i<<16 | (255-i)<<24)
		if c.X != want || c.Y != float32(255-i)/255 || c.Z != want || c.W != float32(255-i)/255 {
			t.Fatalf("UnpackColor lanes for %d = %v", i, c)
		}
	}
}

func TestPackColorClamps(t *testing.T) {
	if PackColor(geom.V4(2, -1, 0.5, 1)) != PackColor(geom.V4(1, 0, 0.5, 1)) {
		t.Fatal("PackColor should clamp")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0, 4)
}

func TestAtSetClamping(t *testing.T) {
	tx := New(1, 4, 4)
	tx.Set(2, 3, 0xDEADBEEF)
	if tx.At(2, 3) != 0xDEADBEEF {
		t.Fatal("Set/At round trip failed")
	}
	if tx.At(-5, 100) != tx.At(0, 3) {
		t.Fatal("At should clamp out-of-range coords")
	}
	tx.Set(-1, 0, 1) // must not panic
	tx.Set(0, 99, 1)
}

func TestNearestSampleCenters(t *testing.T) {
	tx := New(1, 2, 2)
	tx.Filter = Nearest
	tx.Set(0, 0, PackColor(geom.V4(1, 0, 0, 1)))
	tx.Set(1, 0, PackColor(geom.V4(0, 1, 0, 1)))
	tx.Set(0, 1, PackColor(geom.V4(0, 0, 1, 1)))
	tx.Set(1, 1, PackColor(geom.V4(1, 1, 1, 1)))

	got := tx.Sample(0.25, 0.25, nil)
	if got != geom.V4(1, 0, 0, 1) {
		t.Fatalf("sample(0.25,0.25) = %v", got)
	}
	got = tx.Sample(0.75, 0.75, nil)
	if got != geom.V4(1, 1, 1, 1) {
		t.Fatalf("sample(0.75,0.75) = %v", got)
	}
	// GL_REPEAT wrap: u=1.25 is the same as u=0.25.
	if tx.Sample(1.25, 0.25, nil) != tx.Sample(0.25, 0.25, nil) {
		t.Fatal("repeat wrap failed")
	}
	if tx.Sample(-0.75, 0.25, nil) != tx.Sample(0.25, 0.25, nil) {
		t.Fatal("negative wrap failed")
	}
}

func TestBilinearInterpolatesMidpoint(t *testing.T) {
	tx := New(1, 2, 1)
	tx.Set(0, 0, PackColor(geom.V4(0, 0, 0, 1)))
	tx.Set(1, 0, PackColor(geom.V4(1, 1, 1, 1)))
	// u=0.5 lies exactly between the two texel centers.
	got := tx.Sample(0.5, 0.5, nil)
	if got.X < 0.45 || got.X > 0.55 {
		t.Fatalf("bilinear midpoint = %v", got)
	}
}

func TestBilinearConstantTextureIsConstant(t *testing.T) {
	tx := New(1, 8, 8)
	c := PackColor(geom.V4(0.25, 0.5, 0.75, 1))
	for i := range tx.Pix {
		tx.Pix[i] = c
	}
	f := func(u, v float32) bool {
		if u != u || v != v || u > 1e6 || u < -1e6 || v > 1e6 || v < -1e6 {
			return true
		}
		return PackColor(tx.Sample(u, v, nil)) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleVisitsTexelAddresses(t *testing.T) {
	tx := New(1, 4, 4)
	tx.Base = 0x1000

	var addrs []uint64
	visit := func(a uint64) { addrs = append(addrs, a) }

	tx.Filter = Nearest
	tx.Sample(0.1, 0.1, visit)
	if len(addrs) != 1 || addrs[0] != 0x1000 {
		t.Fatalf("nearest visit = %v", addrs)
	}

	addrs = nil
	tx.Filter = Bilinear
	tx.Sample(0.5, 0.5, visit)
	if len(addrs) != 4 {
		t.Fatalf("bilinear should visit 4 texels, got %v", addrs)
	}
	for _, a := range addrs {
		if a < 0x1000 || a >= 0x1000+uint64(tx.Bytes()) {
			t.Fatalf("texel address %#x outside texture", a)
		}
	}
}

func TestFillCheckerPattern(t *testing.T) {
	tx := New(1, 8, 8)
	a, b := geom.V4(1, 0, 0, 1), geom.V4(0, 0, 1, 1)
	FillChecker(tx, 2, a, b)
	if tx.At(0, 0) != PackColor(a) {
		t.Fatal("checker corner wrong")
	}
	if tx.At(4, 0) != PackColor(b) {
		t.Fatal("checker alternate cell wrong")
	}
	if tx.At(4, 4) != PackColor(a) {
		t.Fatal("checker diagonal cell wrong")
	}
}

func TestFillGradientMonotonic(t *testing.T) {
	tx := New(1, 2, 16)
	FillGradient(tx, geom.V4(0, 0, 0, 1), geom.V4(1, 1, 1, 1))
	prev := float32(-1)
	for y := 0; y < tx.H; y++ {
		v := UnpackColor(tx.At(0, y)).X
		if v < prev {
			t.Fatalf("gradient not monotonic at y=%d: %v < %v", y, v, prev)
		}
		prev = v
	}
}

func TestFillNoiseDeterministicAndSeedSensitive(t *testing.T) {
	mk := func(seed uint64) *Texture {
		tx := New(1, 16, 16)
		FillNoise(tx, seed, 4, geom.V4(0.5, 0.5, 0.5, 1), 0.3)
		return tx
	}
	a, b, c := mk(7), mk(7), mk(8)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("noise not deterministic")
		}
	}
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("noise ignores seed")
	}
}

func TestFillDiscCenterAndCorner(t *testing.T) {
	tx := New(1, 16, 16)
	fg, bg := geom.V4(1, 1, 0, 1), geom.V4(0, 0, 0, 0)
	FillDisc(tx, fg, bg)
	if tx.At(8, 8) != PackColor(fg) {
		t.Fatal("disc center not foreground")
	}
	if tx.At(0, 0) != PackColor(bg) {
		t.Fatal("disc corner not background")
	}
}
