package store

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
)

func quietOpts() Options {
	return Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

func testResult(n int) gpusim.Result {
	res := gpusim.Result{Technique: gpusim.RE, Name: fmt.Sprintf("res-%d", n), FBCRC: uint32(n) * 0x9e37}
	for i := 0; i < 3; i++ {
		res.Frames = append(res.Frames, gpusim.Stats{Frames: 1, TilesTotal: uint64(n*10 + i)})
		res.Total.Add(res.Frames[i])
	}
	return res
}

// The headline contract: a store reopened on the same directory hands back
// completed results verbatim, interrupted jobs with their checkpoints, and
// nothing for failed jobs.
func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}

	specA := JobSpec{Alias: "ccs", Width: 64, Height: 48, Frames: 4, Seed: 1, Tech: "re"}
	resA := testResult(1)
	if err := s.RecordSubmitted("aaaa0001-bbbb0001", specA); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordStarted("aaaa0001-bbbb0001"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveResult("aaaa0001-bbbb0001", resA); err != nil {
		t.Fatal(err)
	}

	specB := JobSpec{Alias: "mot", Width: 32, Height: 32, Frames: 8, Seed: 2, Tech: "memo"}
	ckptB := []byte("pretend-encoded-checkpoint")
	framesB := []gpusim.Stats{{Frames: 1, TilesTotal: 7}, {Frames: 1, TilesTotal: 9}}
	if err := s.RecordSubmitted("aaaa0002-bbbb0002", specB); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("aaaa0002-bbbb0002", 2, framesB, ckptB); err != nil {
		t.Fatal(err)
	}

	if err := s.RecordSubmitted("aaaa0003-bbbb0003", JobSpec{Alias: "ccs", Tech: "re"}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordFailed("aaaa0003-bbbb0003", "boom"); err != nil {
		t.Fatal(err)
	}

	specD := JobSpec{Alias: "fly", Width: 16, Height: 16, Frames: 2, Seed: 4, Tech: "te"}
	if err := s.RecordSubmitted("aaaa0004-bbbb0004", specD); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovered()

	if got, ok := rec.Results["aaaa0001-bbbb0001"]; !ok {
		t.Fatal("completed result not recovered")
	} else if !reflect.DeepEqual(got, resA) {
		t.Fatalf("recovered result differs:\n got %+v\nwant %+v", got, resA)
	}
	if len(rec.ResultOrder) != 1 || rec.ResultOrder[0] != "aaaa0001-bbbb0001" {
		t.Fatalf("ResultOrder = %v", rec.ResultOrder)
	}
	if len(rec.Pending) != 2 {
		t.Fatalf("recovered %d pending jobs, want 2 (checkpointed B + submitted-only D): %+v", len(rec.Pending), rec.Pending)
	}
	// WAL submission order: B before D.
	b, d := rec.Pending[0], rec.Pending[1]
	if b.Key != "aaaa0002-bbbb0002" || b.Spec != specB || b.Frame != 2 ||
		!reflect.DeepEqual(b.Frames, framesB) || string(b.Checkpoint) != string(ckptB) {
		t.Fatalf("pending B = %+v", b)
	}
	if d.Key != "aaaa0004-bbbb0004" || d.Spec != specD || d.Frame != 0 || d.Checkpoint != nil {
		t.Fatalf("pending D = %+v", d)
	}

	m := r.Metrics()
	if m.ResultsRecovered.Load() != 1 || m.CheckpointsRecovered.Load() != 1 || m.JobsRecovered.Load() != 2 {
		t.Fatalf("recovery metrics: results=%d ckpts=%d jobs=%d",
			m.ResultsRecovered.Load(), m.CheckpointsRecovered.Load(), m.JobsRecovered.Load())
	}
	if m.TornTailTruncations.Load() != 0 || m.SnapshotsQuarantined.Load() != 0 {
		t.Fatal("clean recovery reported damage")
	}

	// The recovery set is handed over once; the store keeps no reference.
	if again := r.Recovered(); !reflect.DeepEqual(again, Recovery{}) {
		t.Fatalf("second Recovered() = %d results, %d pending; want an empty Recovery", len(again.Results), len(again.Pending))
	}
}

// SaveResult removes the superseded checkpoint, and a completed job beats
// its stale checkpoint record on replay.
func TestStoreCompletionSupersedesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "cafe0001-cafe0002"
	s.RecordSubmitted(key, JobSpec{Alias: "ccs", Tech: "re"})
	s.SaveCheckpoint(key, 3, []gpusim.Stats{{Frames: 1}}, []byte("ckpt"))
	if err := s.SaveResult(key, testResult(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.checkpointPath(key)); !os.IsNotExist(err) {
		t.Fatal("checkpoint snapshot not removed after completion")
	}
	s.Close()

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovered()
	if len(rec.Pending) != 0 {
		t.Fatalf("completed job recovered as pending: %+v", rec.Pending)
	}
	if _, ok := rec.Results[key]; !ok {
		t.Fatal("completed result missing")
	}
}

// A corrupt result snapshot is quarantined and — because the WAL still
// holds the spec — the job is downgraded to pending rather than forgotten.
func TestStoreQuarantineDowngradesToPending(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "dead0001-beef0001"
	spec := JobSpec{Alias: "ccs", Width: 48, Height: 32, Frames: 3, Seed: 5, Tech: "re"}
	s.RecordSubmitted(key, spec)
	s.SaveResult(key, testResult(2))
	path := s.resultPath(key)
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovered()
	if len(rec.Results) != 0 {
		t.Fatalf("corrupt result served anyway: %+v", rec.Results)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Key != key || rec.Pending[0].Spec != spec || rec.Pending[0].Frame != 0 {
		t.Fatalf("job not downgraded to pending: %+v", rec.Pending)
	}
	if n := r.Metrics().SnapshotsQuarantined.Load(); n != 1 {
		t.Fatalf("SnapshotsQuarantined = %d, want 1", n)
	}
	q := r.QuarantinedFiles()
	if len(q) != 1 || !strings.HasSuffix(q[0], QuarantineSuffix) {
		t.Fatalf("QuarantinedFiles = %v", q)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot left in place")
	}
}

// A corrupt checkpoint costs only the checkpoint: the job resumes from
// frame 0 instead of being dropped.
func TestStoreCorruptCheckpointFallsBackToFrameZero(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "feed0001-f00d0001"
	spec := JobSpec{Alias: "mot", Width: 32, Height: 32, Frames: 6, Seed: 3, Tech: "memo"}
	s.RecordSubmitted(key, spec)
	s.SaveCheckpoint(key, 4, []gpusim.Stats{{Frames: 1}}, []byte("encoded"))
	path := s.checkpointPath(key)
	s.Close()

	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovered()
	if len(rec.Pending) != 1 {
		t.Fatalf("pending = %+v", rec.Pending)
	}
	p := rec.Pending[0]
	if p.Key != key || p.Spec != spec || p.Frame != 0 || p.Checkpoint != nil {
		t.Fatalf("corrupt checkpoint not degraded to frame 0: %+v", p)
	}
	if r.Metrics().CheckpointsRecovered.Load() != 0 || r.Metrics().SnapshotsQuarantined.Load() != 1 {
		t.Fatal("checkpoint damage not quantified")
	}
}

// Trace blobs are content-addressed; damage is detected both by the
// snapshot CRC and the address itself.
func TestStoreTraceBlobs(t *testing.T) {
	s, err := Open(t.TempDir(), quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bin := []byte("not really a trace but content is content")
	sum, err := s.SaveTrace(bin)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-save.
	if sum2, err := s.SaveTrace(bin); err != nil || sum2 != sum {
		t.Fatalf("re-save: sum=%08x err=%v", sum2, err)
	}
	got, err := s.LoadTrace(sum)
	if err != nil || string(got) != string(bin) {
		t.Fatalf("LoadTrace = %q, %v", got, err)
	}
	if _, err := s.LoadTrace(sum ^ 1); err == nil {
		t.Fatal("LoadTrace of absent blob succeeded")
	}
}

// Seeded store.* faults make writes fail, but failed writes must never
// corrupt what a later open recovers: every successfully-saved result comes
// back verbatim, every failed save is absent, nothing in between.
func TestStoreFaultInjectionNeverCorruptsState(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			plan := fault.New(seed).
				With(fault.SiteStoreWrite, fault.Site{Prob: 0.25}).
				With(fault.SiteStoreSync, fault.Site{Prob: 0.25}).
				With(fault.SiteStoreRename, fault.Site{Prob: 0.25})
			opts := quietOpts()
			opts.Fault = plan
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}

			want := make(map[string]gpusim.Result)
			const n = 40
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("%08x-%08x", i, i*3)
				res := testResult(i)
				// Lifecycle appends may fail under injection; only a
				// successful SaveResult (snapshot + completed record)
				// promises recovery.
				s.RecordSubmitted(key, JobSpec{Alias: "ccs", Tech: "re", Seed: int64(i)})
				if i%3 == 0 {
					s.SaveCheckpoint(key, 1, []gpusim.Stats{{Frames: 1}}, []byte("ck"))
				}
				if err := s.SaveResult(key, res); err == nil {
					want[key] = res
				}
			}
			injected := plan.Fired(fault.SiteStoreWrite) + plan.Fired(fault.SiteStoreSync) + plan.Fired(fault.SiteStoreRename)
			if injected == 0 {
				t.Fatalf("seed %d injected no faults; test is vacuous", seed)
			}
			s.Close()

			r, err := Open(dir, quietOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rec := r.Recovered()
			for key, res := range want {
				got, ok := rec.Results[key]
				if !ok {
					t.Fatalf("successfully saved result %s lost", key)
				}
				if !reflect.DeepEqual(got, res) {
					t.Fatalf("recovered result %s differs", key)
				}
			}
			for key := range rec.Results {
				if _, ok := want[key]; !ok {
					t.Fatalf("recovered result %s was never successfully saved", key)
				}
			}
			// Failed writes never leave damage for recovery to quarantine —
			// the atomic-publish discipline means a fault loses the write,
			// not the store.
			if n := r.Metrics().SnapshotsQuarantined.Load(); n != 0 {
				t.Fatalf("recovery quarantined %d snapshots after clean-failure faults", n)
			}
		})
	}
}

// Keys that are not filesystem-safe are flattened, collision-proofed, and
// still round-trip.
func TestStoreSanitizesHostileKeys(t *testing.T) {
	s, err := Open(t.TempDir(), quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, key := range []string{"../../etc/passwd", "a/b", "", "nul\x00byte"} {
		p := s.resultPath(key)
		if rel, err := filepath.Rel(filepath.Join(s.Dir(), "results"), p); err != nil || strings.Contains(rel, "..") || strings.ContainsRune(rel, os.PathSeparator) {
			t.Fatalf("hostile key %q escaped: %s", key, p)
		}
	}
	if s.resultPath("../../x") == s.resultPath("____x") {
		t.Fatal("sanitized keys collide")
	}
}
