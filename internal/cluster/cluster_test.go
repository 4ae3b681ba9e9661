package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
)

func TestNormalizeAddr(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{in: "127.0.0.1:8080", want: "127.0.0.1:8080"},
		{in: "http://127.0.0.1:8080", want: "127.0.0.1:8080"},
		{in: "https://Node-A.local:9000/", want: "node-a.local:9000"},
		{in: " 10.0.0.1:80 ", want: "10.0.0.1:80"},
		{in: "nohost", wantErr: true},
		{in: ":8080", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, c := range cases {
		got, err := NormalizeAddr(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("NormalizeAddr(%q) = %q, want error", c.in, got)
			} else if !errors.Is(err, ErrBadPeer) {
				t.Errorf("NormalizeAddr(%q) error %v does not wrap ErrBadPeer", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("NormalizeAddr(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Self-peering and duplicate peers are startup errors, not silent ring
// skew: a duplicate would double the member's vnode count, self-peering
// would forward requests back to the sender.
func TestValidatePeersRejectsSelfAndDuplicates(t *testing.T) {
	if _, _, err := ValidatePeers("127.0.0.1:1", []string{"127.0.0.1:2", "127.0.0.1:1"}); !errors.Is(err, ErrBadPeer) || !strings.Contains(err.Error(), "self") {
		t.Errorf("self-peering: got %v, want ErrBadPeer mentioning self", err)
	}
	// Duplicates are caught even across different spellings of one address.
	if _, _, err := ValidatePeers("127.0.0.1:1", []string{"127.0.0.1:2", "http://127.0.0.1:2"}); !errors.Is(err, ErrBadPeer) || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate peer: got %v, want ErrBadPeer mentioning duplicate", err)
	}
	self, peers, err := ValidatePeers("http://127.0.0.1:1", []string{"127.0.0.1:2", "127.0.0.1:3"})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if self != "127.0.0.1:1" || len(peers) != 2 {
		t.Errorf("normalized to %q / %v", self, peers)
	}
}

// The health loop must mark a peer down when /v1/healthz reports 503 (the
// draining state) or the connection fails, and back up when it recovers.
func TestHealthCheckHonorsDraining(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusOK)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != apihttp.PathHealthz {
			t.Errorf("probe hit %s, want %s", r.URL.Path, apihttp.PathHealthz)
		}
		w.WriteHeader(int(status.Load()))
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	c, err := New(Options{
		Self:           "127.0.0.1:1",
		Peers:          []string{addr},
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.PeerUp(addr) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("peer never became %s", what)
	}
	waitFor(true, "up")
	status.Store(http.StatusServiceUnavailable) // draining
	waitFor(false, "down (draining)")
	status.Store(http.StatusOK)
	waitFor(true, "up again")
}

// With the only peer down, the ring must route everything to self.
func TestOwnerFallsBackToSelfWhenPeersDown(t *testing.T) {
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	c.MarkPeer("127.0.0.1:2", false)
	for i := 0; i < 200; i++ {
		if o := c.Owner(testKey(i)); o != "127.0.0.1:1" {
			t.Fatalf("key %d routed to down peer %q", i, o)
		}
	}
}

// ForwardSubmit against a dead address must return ErrPeerUnavailable (the
// degraded-mode trigger), never a raw transport error.
func TestForwardSubmitPeerUnavailable(t *testing.T) {
	c, err := New(Options{
		Self:           "127.0.0.1:1",
		Peers:          []string{"127.0.0.1:9"},
		ForwardTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Port 9 (discard) is almost certainly closed; a refused connection is
	// the expected transport failure either way.
	key := testKey(7)
	_, ferr := c.ForwardSubmit(context.Background(), "127.0.0.1:9", key, []byte(`{}`), "application/json", nil)
	if !errors.Is(ferr, ErrPeerUnavailable) {
		t.Fatalf("got %v, want ErrPeerUnavailable", ferr)
	}
	// Forwarded-failure messages must identify the peer and the attempted
	// key, so the log line alone is actionable.
	for _, want := range []string{"127.0.0.1:9", key.String()} {
		if !strings.Contains(ferr.Error(), want) {
			t.Errorf("error %q does not mention %q", ferr, want)
		}
	}
	if c.Metrics().ForwardErrors.Load() != 1 {
		t.Errorf("ForwardErrors = %d, want 1", c.Metrics().ForwardErrors.Load())
	}
	if c.Metrics().ForwardSeconds.Count() != 1 {
		t.Errorf("ForwardSeconds count = %d, want 1 (failed hops are observed too)", c.Metrics().ForwardSeconds.Count())
	}
}

// A reachable peer answering non-JSON is a bad gateway, not a 500.
func TestForwardSubmitBadResponse(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(ForwardHeader); got != "127.0.0.1:1" {
			t.Errorf("forward header = %q, want self address", got)
		}
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte("<html>not a job</html>"))
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	_, ferr := c.ForwardSubmit(context.Background(), addr, testKey(1), []byte(`{}`), "application/json", nil)
	if !errors.Is(ferr, ErrPeerBadResponse) {
		t.Fatalf("got %v, want ErrPeerBadResponse", ferr)
	}
	if !strings.Contains(ferr.Error(), addr) {
		t.Errorf("error %q does not mention peer %q", ferr, addr)
	}
}

// A forwarded hop must carry the request's trace context across the wire as
// a W3C traceparent header — same trace id, fresh span id.
func TestForwardPropagatesTraceContext(t *testing.T) {
	tc := obs.NewTraceContext()
	var gotHeader atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(obs.TraceparentHeader))
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"j-000001","state":"done"}`))
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.ContextWithTrace(context.Background(), tc)
	if _, err := c.ForwardSubmit(ctx, addr, testKey(3), []byte(`{}`), "application/json", nil); err != nil {
		t.Fatal(err)
	}
	hdr, _ := gotHeader.Load().(string)
	if hdr == "" {
		t.Fatal("forwarded request carried no traceparent header")
	}
	hopTC, err := obs.ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("peer received malformed traceparent %q: %v", hdr, err)
	}
	if hopTC.TraceID != tc.TraceID {
		t.Errorf("trace id changed across the hop: %s != %s", hopTC.TraceIDString(), tc.TraceIDString())
	}
	if hopTC.SpanID == tc.SpanID {
		t.Error("hop reused the parent span id; want a child span")
	}

	// Without a trace in the context, no header is sent.
	gotHeader.Store("")
	if _, err := c.ForwardSubmit(context.Background(), addr, testKey(3), []byte(`{}`), "application/json", nil); err != nil {
		t.Fatal(err)
	}
	if hdr, _ := gotHeader.Load().(string); hdr != "" {
		t.Errorf("untraced forward sent traceparent %q", hdr)
	}
}

// Read-through entries must expire after the TTL and stay bounded by the
// capacity.
func TestReadThroughTTLAndBounds(t *testing.T) {
	rt := newReadThrough(2, 30*time.Millisecond)
	k1, k2, k3 := testKey(1), testKey(2), testKey(3)
	rt.put(k1, &Reply{StatusCode: 200})
	rt.put(k2, &Reply{StatusCode: 200})
	rt.put(k3, &Reply{StatusCode: 200}) // evicts k1 (FIFO)
	if rt.get(k1) != nil {
		t.Error("k1 survived past capacity")
	}
	if rt.get(k3) == nil {
		t.Error("k3 missing right after put")
	}
	if rt.len() > 2 {
		t.Errorf("len = %d, want <= 2", rt.len())
	}
	time.Sleep(40 * time.Millisecond)
	if rt.get(k3) != nil {
		t.Error("k3 survived past TTL")
	}
}

// An expired entry must leave the FIFO order along with the index: order
// holds each cached key once, and a put evicts the entry put longest ago.
func TestReadThroughExpiryKeepsOrderExact(t *testing.T) {
	expire := func(rt *readThrough, k jobs.Key) {
		if e := rt.index[k]; e != nil {
			e.expires = time.Now().Add(-time.Second)
		}
	}
	check := func(rt *readThrough) {
		t.Helper()
		if len(rt.order) != len(rt.index) || len(rt.index) > rt.cap {
			t.Fatalf("len(order) = %d, len(index) = %d, cap %d", len(rt.order), len(rt.index), rt.cap)
		}
		for _, k := range rt.order {
			if rt.index[k] == nil {
				t.Fatalf("order holds %v, which is not cached", k)
			}
		}
	}

	// Hot keys that outlive the TTL must not grow order.
	rt := newReadThrough(4, time.Minute)
	for i := 0; i < 1000; i++ {
		k := testKey(i % 3)
		rt.put(k, &Reply{StatusCode: 200})
		expire(rt, k)
		if rt.get(k) != nil {
			t.Fatal("expired entry served")
		}
		check(rt)
	}

	// A re-put after expiry is the newest entry, so C evicts B, not A.
	rt = newReadThrough(2, time.Minute)
	a, b, c := testKey(1), testKey(2), testKey(3)
	rt.put(a, &Reply{StatusCode: 200})
	expire(rt, a)
	rt.get(a)
	rt.put(b, &Reply{StatusCode: 200})
	rt.put(a, &Reply{StatusCode: 200})
	rt.put(c, &Reply{StatusCode: 200})
	check(rt)
	if rt.get(a) == nil {
		t.Error("fresh A evicted")
	}
	if rt.get(b) != nil {
		t.Error("older B kept")
	}
	if rt.get(c) == nil {
		t.Error("C missing right after put")
	}
}

// CachedResult must count both the remote-hit and read-through counters.
func TestCachedResultCounters(t *testing.T) {
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}, ResultTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	if c.CachedResult(k) != nil {
		t.Fatal("hit on empty cache")
	}
	c.StoreResult(k, &Reply{StatusCode: 200, Body: []byte(`{}`)})
	if c.CachedResult(k) == nil {
		t.Fatal("miss right after store")
	}
	if got := c.Metrics().RemoteHits.Load(); got != 1 {
		t.Errorf("RemoteHits = %d, want 1", got)
	}
	if got := c.Metrics().ReadThroughHits.Load(); got != 1 {
		t.Errorf("ReadThroughHits = %d, want 1", got)
	}
}

// Ownership exposes every member, sorted by address, with self marked.
func TestOwnershipView(t *testing.T) {
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:3", "127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	v := c.Ownership()
	if len(v.Members) != 3 {
		t.Fatalf("members = %#v, want 3 entries", v.Members)
	}
	if !sort.SliceIsSorted(v.Members, func(i, j int) bool { return v.Members[i].Member < v.Members[j].Member }) {
		t.Errorf("members not sorted by address: %#v", v.Members)
	}
	if v.Self != "127.0.0.1:1" || v.Replicas != 128 {
		t.Errorf("self=%q replicas=%d, want 127.0.0.1:1 / 128", v.Self, v.Replicas)
	}
	var total float64
	for _, m := range v.Members {
		if m.Self != (m.Member == "127.0.0.1:1") {
			t.Errorf("member %s: self=%v", m.Member, m.Self)
		}
		total += m.Fraction
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %v, want 1", total)
	}
}

// TestOwnershipViewByteStable guards the /debug/vars dump against map-order
// nondeterminism regressing: the serialized view must be byte-identical
// across repeated renders (the old map[string]any view was not).
func TestOwnershipViewByteStable(t *testing.T) {
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(c.Ownership())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got, err := json.Marshal(c.Ownership())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}
