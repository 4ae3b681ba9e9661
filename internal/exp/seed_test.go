package exp

import (
	"testing"

	"rendelim/internal/gpusim"
	"rendelim/internal/workload"
)

// The coherence classes must be a property of each benchmark's *design*,
// not of the seed: different seeds change textures and layout details but
// must keep every benchmark in its Figure 2 class.
func TestSeedRobustness(t *testing.T) {
	for _, seed := range []int64{2, 7} {
		r := NewRunner(workload.Params{Width: 192, Height: 128, Frames: 10, Seed: seed}, 0, 0)
		high := r.Result("cde", gpusim.Baseline).Total.EqualColorFraction()
		if high < 0.8 {
			t.Errorf("seed %d: cde equal fraction %.2f, want > 0.8", seed, high)
		}
		low := r.Result("mst", gpusim.Baseline).Total.EqualColorFraction()
		if low > 0.05 {
			t.Errorf("seed %d: mst equal fraction %.2f, want ~0", seed, low)
		}
		mid := r.Result("csn", gpusim.Baseline).Total.EqualColorFraction()
		if mid < 0.1 || mid > 0.9 {
			t.Errorf("seed %d: csn equal fraction %.2f, want intermediate", seed, mid)
		}
		// And the RE safety invariant holds for every seed.
		if n := r.Result("cde", gpusim.Baseline).Total.TileClasses[gpusim.TileEqInputDiffColor]; n != 0 {
			t.Errorf("seed %d: %d collision-class tiles", seed, n)
		}
	}
}
