package jobs

import (
	"context"
	"log/slog"
	"runtime"
	"testing"
	"time"
)

// TestNewPoolDefaults: the zero-argument NewPool resolves every option to
// its documented default.
func TestNewPoolDefaults(t *testing.T) {
	p := NewPool()
	defer p.Close(context.Background())

	o := p.opts
	if o.Workers != runtime.GOMAXPROCS(0) || o.QueueDepth != 1024 || o.CacheSize != 512 ||
		o.Backoff != 50*time.Millisecond || o.BreakerThreshold != 5 ||
		o.BreakerCooldown != 30*time.Second || o.Logger != slog.Default() {
		t.Errorf("defaults: %+v", o)
	}
	if p.brk == nil {
		t.Error("breaker disabled by default")
	}
}
