package tiling

import (
	"math/rand"
	"testing"

	"rendelim/internal/fb"
	"rendelim/internal/geom"
	"rendelim/internal/rast"
)

// Exact binning must (a) be a subset of bbox binning, (b) still contain
// every tile where the rasterizer actually produces fragments.
func TestExactBinningSoundAndTighter(t *testing.T) {
	const W, H = 96, 96
	rng := rand.New(rand.NewSource(5))
	bboxB := NewBinner(W, H, 0)
	exactB := NewBinner(W, H, 0)
	exactB.SetExact(true)

	tighterSomewhere := false
	for trial := 0; trial < 200; trial++ {
		var tr rast.Triangle
		for i := 0; i < 3; i++ {
			x := rng.Float32()*140 - 20
			y := rng.Float32()*140 - 20
			tr.V[i].Pos = geom.V4(2*x/W-1, 1-2*y/H, 0, 1)
		}
		st, ok := rast.Setup(tr, W, H, false)
		if !ok {
			continue
		}
		bbox := append([]int(nil), bboxB.OverlappedTiles(&st)...)
		exact := append([]int(nil), exactB.OverlappedTiles(&st)...)

		bboxSet := map[int]bool{}
		for _, tile := range bbox {
			bboxSet[tile] = true
		}
		exactSet := map[int]bool{}
		for _, tile := range exact {
			if !bboxSet[tile] {
				t.Fatalf("trial %d: exact tile %d not in bbox set", trial, tile)
			}
			exactSet[tile] = true
		}
		if len(exact) < len(bbox) {
			tighterSomewhere = true
		}

		// Soundness: every tile with a covered fragment must be binned.
		covered := map[int]bool{}
		var frag rast.Fragment
		st.RasterizeInto(geom.Rect{X0: 0, Y0: 0, X1: W, Y1: H}, &frag, nil, func(f *rast.Fragment) {
			covered[(f.Y/fb.TileSize)*(W/fb.TileSize)+f.X/fb.TileSize] = true
		})
		for tile := range covered {
			if !exactSet[tile] {
				t.Fatalf("trial %d: covered tile %d missing from exact bins", trial, tile)
			}
		}
	}
	if !tighterSomewhere {
		t.Fatal("exact binning never beat bbox binning over 200 random triangles")
	}
}

// A thin diagonal sliver across the screen: bbox binning touches every tile
// in its bounding box, exact binning only the diagonal band.
func TestExactBinningSliver(t *testing.T) {
	const W, H = 96, 96
	var tr rast.Triangle
	pts := [3][2]float32{{0, 0}, {95, 95}, {94, 95}}
	for i, p := range pts {
		tr.V[i].Pos = geom.V4(2*p[0]/W-1, 1-2*p[1]/H, 0, 1)
	}
	st, ok := rast.Setup(tr, W, H, false)
	if !ok {
		t.Fatal("setup failed")
	}
	bboxB := NewBinner(W, H, 0)
	exactB := NewBinner(W, H, 0)
	exactB.SetExact(true)
	nb := len(bboxB.OverlappedTiles(&st))
	ne := len(exactB.OverlappedTiles(&st))
	if nb != 36 {
		t.Fatalf("bbox bins = %d, want all 36", nb)
	}
	if ne >= nb {
		t.Fatalf("exact bins = %d, want fewer than %d", ne, nb)
	}
	if ne < 6 {
		t.Fatalf("exact bins = %d, diagonal band should touch >= 6 tiles", ne)
	}
}
