package trace

import (
	"bytes"
	"testing"

	"rendelim/internal/workload"
)

// seedTraces encodes a few real workloads as fuzz corpus seeds.
func seedTraces(f *testing.F) {
	f.Helper()
	p := workload.Params{Width: 32, Height: 24, Frames: 1, Seed: 1}
	for _, alias := range []string{"ccs", "mst"} {
		b, err := workload.ByAlias(alias)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, b.Build(p)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(badUploadTrace(f))
	f.Add([]byte(Magic))
	f.Add([]byte("RDLM\x01\x00\x00\x00"))
	f.Add([]byte{})
}

// The service accepts untrusted trace uploads, so Decode must reject any
// malformed input with an error — never panic, never hang, never allocate
// unboundedly from hostile length fields.
func FuzzDecode(f *testing.F) {
	seedTraces(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Errorf("Decode returned non-nil trace alongside error %v", err)
			}
			return
		}
		// A trace that decodes must satisfy its own invariants and survive a
		// round trip: re-encoding and re-decoding yields a valid trace again.
		if err := tr.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-decode of re-encoded trace failed: %v", err)
		}
	})
}
