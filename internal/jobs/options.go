package jobs

import (
	"log/slog"
	"time"

	"rendelim/internal/fault"
	"rendelim/internal/obs"
	"rendelim/internal/store"
)

// Option configures a Pool built with NewPool. The zero configuration is
// usable: NewPool() sizes itself from GOMAXPROCS and applies the defaults
// documented on each option. Options compose left to right; later options
// win.
type Option func(*options)

// options is a Pool's configuration; zero values select the defaults
// NewPool applies.
type options struct {
	Workers            int
	QueueDepth         int
	CacheSize          int
	Timeout            time.Duration
	Retries            int
	Backoff            time.Duration
	Run                RunFunc
	Logger             *slog.Logger
	CheckpointInterval int
	Fault              *fault.Plan
	BreakerThreshold   int
	BreakerCooldown    time.Duration
	Journal            *obs.Journal
	Store              *store.Store
	TileWorkers        int
}

// WithWorkers sets the number of concurrent simulations. Zero or negative
// selects the default: GOMAXPROCS divided by the effective tile-worker
// count, so job-level and tile-level parallelism compose without
// oversubscribing the host.
func WithWorkers(n int) Option { return func(o *options) { o.Workers = n } }

// WithTileWorkers sets each simulation's raster-phase parallelism (see
// gpusim.Config.TileWorkers): 0 or 1 renders serially, n > 1 uses n
// goroutines per running job, negative uses one per host CPU. Results never
// depend on this knob, so it is excluded from job signatures.
func WithTileWorkers(n int) Option { return func(o *options) { o.TileWorkers = n } }

// WithQueueDepth bounds the number of waiting jobs before Submit blocks.
// Default 1024.
func WithQueueDepth(n int) Option { return func(o *options) { o.QueueDepth = n } }

// WithCacheSize sets the LRU result-cache capacity in entries. Default 512.
func WithCacheSize(n int) Option { return func(o *options) { o.CacheSize = n } }

// WithTimeout sets the per-attempt deadline. Zero means no deadline.
func WithTimeout(d time.Duration) Option { return func(o *options) { o.Timeout = d } }

// WithRetries sets how many times a transient failure or per-attempt
// timeout is retried. Default 0.
func WithRetries(n int) Option { return func(o *options) { o.Retries = n } }

// WithBackoff sets the initial retry backoff, which doubles per attempt.
// Default 50ms.
func WithBackoff(d time.Duration) Option { return func(o *options) { o.Backoff = d } }

// WithRun replaces the built-in resumable runner with a custom job
// executor.
func WithRun(fn RunFunc) Option { return func(o *options) { o.Run = fn } }

// WithLogger sets the structured job-lifecycle logger. Default
// slog.Default().
func WithLogger(l *slog.Logger) Option { return func(o *options) { o.Logger = l } }

// WithCheckpointInterval makes the built-in runner snapshot the simulator
// every n completed frames, so a retried attempt (transient failure, panic,
// or per-attempt timeout) resumes from the last checkpoint instead of
// frame 0. Zero disables checkpointing. Ignored when a custom Run is set.
func WithCheckpointInterval(n int) Option { return func(o *options) { o.CheckpointInterval = n } }

// WithFault injects deterministic faults at the pool's sites
// (fault.SiteWorker before each attempt, fault.SiteTraceDecode before
// decoding uploads) and threads the plan into each simulation's config
// (dram.read / dram.write). Nil costs nothing.
func WithFault(p *fault.Plan) Option { return func(o *options) { o.Fault = p } }

// WithBreaker configures the per-benchmark circuit breaker: it opens after
// threshold consecutive non-transient terminal failures, rejecting that
// benchmark's submissions with ErrBreakerOpen, and admits a half-open trial
// after cooldown. threshold 0 selects the default (5), negative disables the
// breaker; cooldown <= 0 selects the default (30s).
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(o *options) {
		o.BreakerThreshold = threshold
		o.BreakerCooldown = cooldown
	}
}

// WithStore makes job state durable: leader submissions, starts,
// frame-boundary checkpoints, completions and terminal failures are logged
// to the store's WAL, and the new pool replays the store's recovery set —
// completed results re-enter the result cache and interrupted jobs are
// resubmitted from their last persisted checkpoint. Nil keeps the pool
// memory-only. The caller owns the store's lifecycle and must close it
// after the pool.
func WithStore(st *store.Store) Option { return func(o *options) { o.Store = st } }

// WithJournal routes notable job-lifecycle events (accepted, eliminated,
// shed, panicked, breaker transitions) to the /debug/events flight
// recorder. Nil costs nothing.
func WithJournal(j *obs.Journal) Option { return func(o *options) { o.Journal = j } }
