// Command perfbench is the repository benchmark. One invocation runs one
// workload for a set time and prints, as the last line of standard output,
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer split, taken from a traced run and
// from the counters the layers export. A human-readable report goes to
// standard error. See README.md for why each workload exists and which
// layer metric should move which end-to-end metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run writes: temporary service data
// directories and the span summaries of traced runs. It is relative to the
// working directory, the root of the checkout.
const outDir = ".bench_build/out"

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     string // directory for this run's files
	log     io.Writer
}

// outcome is what a workload returns: operation counts and metric values
// by name.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check counts one checked operation, failed when ok is false.
func (o *outcome) check(ok bool, log io.Writer, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(log, "CHECK FAILED: "+format+"\n", args...)
	}
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"suite":        runSuite,
	"re-coherent":  runRECoherent,
	"service-cold": runServiceCold,
	"service-hit":  runServiceHit,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		out:     filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)),
		log:     stderr,
	}
	if err := os.RemoveAll(cfg.out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := wf(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	os.Remove(cfg.out) // only succeeds, as intended, when the run wrote nothing
	catalog := endToEnd
	if cfg.traced {
		catalog = perLayer
	}
	line, err := report(res, catalog, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef is one named metric with its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Each workload defines an
// operation: a RunFrame call for the simulator workloads, a job submitted
// over HTTP for the service workloads.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},  // frames per RunFrame second, or jobs per loop second
	{"op_ms.p50", "ms"},   // one RunFrame call, or one job's submit to result
	{"op_ms.p95", "ms"},   //
	{"setup_s", "s"},      // trace build + gpusim.New, or both nodes started and ready
	{"max_heap_mb", "MB"}, // largest live heap read at the workload's fixed points
}

// perLayer is the split by layer. A workload that does not exercise a
// layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"gpusim.new_ms", "ms"},
	{"gpusim.fps.base", "frames/s"},
	{"gpusim.fps.re", "frames/s"},
	{"gpusim.fps.te", "frames/s"},
	{"gpusim.fps.memo", "frames/s"},
	{"gpusim.steady_allocs_per_frame", "count"},
	{"gpusim.steady_bytes_per_frame", "B"},
	{"geom.vertex_ms", "ms"},
	{"tiling.bin_ms", "ms"},
	{"sig.re_check_ms", "ms"},
	{"rast.render_ms", "ms"},
	{"rast.ns_per_frag", "ns"},
	{"gpusim.commit_ms", "ms"},
	{"gpusim.commit_ns_per_access", "ns"},
	{"dram.flush_ms", "ms"},
	{"gpusim.frame_other_ms", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.span_coverage_ratio", "ratio"},
	{"sim.cycles", "count"},
	{"sim.tiles_skipped_ratio", "ratio"},
	{"sim.frags_shaded", "count"},
	{"sim.dram_bytes", "B"},
	{"sim.energy_mj", "mJ"},
	{"jobs.queue_ms.p50", "ms"},
	{"jobs.queue_ms.p95", "ms"},
	{"jobs.build_ms.p50", "ms"},
	{"jobs.simulate_ms.p50", "ms"},
	{"jobs.dedup_ratio", "ratio"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.retries", "count"},
	{"jobs.failed", "count"},
	{"server.request_ms.p50", "ms"},
	{"cluster.forwarded", "count"},
	{"cluster.forward_ms.p50", "ms"},
	{"cluster.forward_ms.p95", "ms"},
	{"cluster.readthrough_hit_ratio", "ratio"},
	{"gpusim.replay_frame_ms", "ms"},
	{"gpusim.checkpoint_ms", "ms"},
	{"store.checkpoint_bytes", "B"},
	{"store.save_checkpoint_ms", "ms"},
	{"store.records_appended", "count"},
	{"store.snapshots_written", "count"},
	{"store.recover_ms", "ms"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable table to log and returns the result
// line. Every value the workload set must be in the catalog; catalog
// entries it did not set are layers it does not exercise, reported as 0.
func report(res *outcome, catalog []metricDef, log io.Writer) ([]byte, error) {
	known := map[string]bool{}
	for _, m := range catalog {
		known[m.name] = true
	}
	for name := range res.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not in the catalog", name)
		}
	}
	if res.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	out := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(catalog)),
	}
	for _, m := range catalog {
		v := res.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", m.name, v)
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(log, "  %-32s %16.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(log, "  %-32s %16.6g ratio (%d of %d operations)\n", "failed_ratio",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	return json.Marshal(out)
}
