// Package gpusim integrates every substrate into the full TBR GPU simulator
// of Figure 4: it replays an api.Trace through the Geometry and Raster
// pipelines, rendering real pixels while accounting cycles (internal/timing),
// cache and DRAM traffic (internal/cache, internal/dram) and energy
// (internal/energy), under one of four techniques — the Baseline GPU,
// Rendering Elimination (the paper's contribution), Transaction Elimination,
// and PFR-aided Fragment Memoization.
package gpusim

import (
	"fmt"

	"rendelim/internal/cache"
	"rendelim/internal/dram"
	"rendelim/internal/fault"
	"rendelim/internal/obs"
	"rendelim/internal/rerr"
	"rendelim/internal/sig"
	"rendelim/internal/timing"
)

// Technique selects the redundancy-elimination scheme under evaluation.
type Technique uint8

// Techniques.
const (
	Baseline Technique = iota // conventional TBR GPU
	RE                        // Rendering Elimination (this paper)
	TE                        // Transaction Elimination (ARM) [16]
	Memo                      // PFR-aided Fragment Memoization [17]
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case Baseline:
		return "base"
	case RE:
		return "re"
	case TE:
		return "te"
	case Memo:
		return "memo"
	}
	return fmt.Sprintf("technique(%d)", uint8(t))
}

// ParseTechnique is the inverse of String, for flags and request payloads.
func ParseTechnique(s string) (Technique, error) {
	switch s {
	case "base", "baseline":
		return Baseline, nil
	case "re":
		return RE, nil
	case "te":
		return TE, nil
	case "memo":
		return Memo, nil
	}
	return Baseline, fmt.Errorf("unknown technique %q (want base, re, te or memo)", s)
}

// SkippedStages returns the Raster Pipeline stages the technique bypasses on
// a redundant tile/fragment, encoding Figure 3.
func (t Technique) SkippedStages() []string {
	switch t {
	case RE:
		return []string{"tile-scheduler", "rasterizer", "early-depth", "fragment-processing", "blend", "tile-flush"}
	case TE:
		return []string{"tile-flush"}
	case Memo:
		return []string{"fragment-processing"}
	}
	return nil
}

// Config parameterizes one simulation.
type Config struct {
	// Technique under test.
	Technique Technique

	// Timing and DRAM models.
	Timing timing.Params
	DRAM   dram.Config

	// Cache geometries (Table I).
	VertexCache  cache.Config
	TextureCache cache.Config // one of the four identical texture caches
	TileCache    cache.Config
	L2Cache      cache.Config

	// Signature Unit configuration (used by RE and, for color signing, TE).
	Sig sig.Config

	// RefreshInterval forces a full render every n-th frame when > 0, the
	// Frame Buffer refresh guarantee of Section III-E.
	RefreshInterval int

	// ExactBinning switches the Polygon List Builder from bounding-box to
	// exact triangle-tile overlap tests; tighter bins mean fewer polluted
	// signatures (fewer RE false negatives) at extra binning cost.
	ExactBinning bool

	// Fragment Memoization parameters (Section V-A: 2048-entry 4-way LUT,
	// 32-bit hash discarding screen coordinates, 2 frames in parallel).
	MemoLUTEntries int
	MemoLUTWays    int

	// Tracer, when non-nil, records a Chrome trace-event timeline of the
	// run: one span per frame with nested per-stage spans and instant
	// events for tile eliminations. Nil (the default) costs nothing on the
	// simulation hot path. Excluded from the job signature: tracing never
	// changes results.
	Tracer *obs.Tracer

	// Fault, when non-nil, threads a fault-injection plan into the
	// simulator (currently the DRAM model's dram.read / dram.write sites).
	// Injection is host-level chaos: a run that completes despite faults
	// is byte-identical to a fault-free run, so — like Tracer and
	// TileWorkers — the plan is excluded from the job signature.
	Fault *fault.Plan

	// TileWorkers sets how many host goroutines render tiles concurrently
	// during the raster phase: 0 or 1 runs serially, n > 1 uses exactly n
	// workers, and a negative value uses one worker per host CPU
	// (runtime.GOMAXPROCS). This is host parallelism only — simulated
	// cycles, traffic, classifications and pixels are byte-identical at any
	// worker count (see parallel.go) — so it is excluded from the job
	// signature, like Tracer.
	TileWorkers int
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		Technique: Baseline,
		Timing:    timing.Default(),
		DRAM:      dram.Default(),
		VertexCache: cache.Config{
			Name: "vertex", LineBytes: 64, Ways: 2, SizeBytes: 4 << 10, Banks: 1, Latency: 1,
		},
		TextureCache: cache.Config{
			Name: "texture", LineBytes: 64, Ways: 2, SizeBytes: 8 << 10, Banks: 1, Latency: 1,
		},
		TileCache: cache.Config{
			Name: "tile", LineBytes: 64, Ways: 8, SizeBytes: 128 << 10, Banks: 8, Latency: 1,
		},
		L2Cache: cache.Config{
			Name: "l2", LineBytes: 64, Ways: 8, SizeBytes: 256 << 10, Banks: 8, Latency: 2,
		},
		Sig:             sig.DefaultConfig(),
		RefreshInterval: 0,
		MemoLUTEntries:  2048,
		MemoLUTWays:     4,
	}
}

// Validate checks the configuration. Failures wrap rerr.ErrBadConfig
// (exported as rendelim.ErrBadConfig) for errors.Is matching.
func (c Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("gpusim: %w: %v", rerr.ErrBadConfig, err)
	}
	for _, cc := range []cache.Config{c.VertexCache, c.TextureCache, c.TileCache, c.L2Cache} {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("gpusim: %w: %v", rerr.ErrBadConfig, err)
		}
	}
	if c.MemoLUTEntries <= 0 || c.MemoLUTWays <= 0 || c.MemoLUTEntries%c.MemoLUTWays != 0 {
		return fmt.Errorf("gpusim: %w: bad memo LUT geometry %d/%d", rerr.ErrBadConfig, c.MemoLUTEntries, c.MemoLUTWays)
	}
	if c.RefreshInterval < 0 {
		return fmt.Errorf("gpusim: %w: negative refresh interval", rerr.ErrBadConfig)
	}
	return nil
}

// Simulated address map: disjoint regions so traffic classes never alias.
const (
	addrVertexBase   = 0x0000_0000
	addrVertexStride = 1 << 20 // per-drawcall vertex buffer region
	addrParamBase    = 0x4000_0000
	addrTexBase      = 0x8000_0000
	addrFBBase       = 0xC000_0000
)
