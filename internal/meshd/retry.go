// retry.go is the warm-retry policy: the failure-classification
// taxonomy the batch pipeline already trusts (wire.IsCorrupt for data
// corruption, everything-else-is-presumed-transient from
// internal/shard), pointed at the serving layer. A transiently-failed
// warm re-runs on a fresh file handle with capped exponential backoff
// plus deterministic jitter; corrupt datasets fail fast with the
// evidence intact; a warm superseded by a newer registration generation
// (or removed by DELETE) never publishes and never retries. Status
// surfaces the attempt number and next-retry time, and /healthz
// degrades to a warning while any dataset is retrying.

package meshd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"time"

	"meshlab"
	"meshlab/internal/dataset"
	"meshlab/internal/wire"
)

// permanentWarmError reports whether a warm failure can never be fixed
// by retrying: corrupt bytes, a dataset that fails cache validation
// against its scenario, a malformed JSON-lines or missing file, a bad
// registration, or a canceled context. Everything else — EIO from flaky
// storage, a mid-read disconnect — is presumed transient, exactly the
// shard runner's policy.
func permanentWarmError(err error) bool {
	return wire.IsCorrupt(err) ||
		errors.Is(err, meshlab.ErrCacheMismatch) ||
		errors.Is(err, dataset.ErrMalformed) ||
		errors.Is(err, fs.ErrNotExist) ||
		errors.Is(err, ErrBadRequest) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// warmRetries resolves Config.WarmRetries: < 0 never retries, 0 takes
// the default of 3.
func (s *Server) warmRetries() int {
	if s.cfg.WarmRetries < 0 {
		return 0
	}
	if s.cfg.WarmRetries == 0 {
		return 3
	}
	return s.cfg.WarmRetries
}

func (s *Server) retryBase() time.Duration {
	if s.cfg.RetryBase > 0 {
		return s.cfg.RetryBase
	}
	return 250 * time.Millisecond
}

// warmBackoff returns retry k's sleep: capped exponential with jitter
// from the warm's own rng — the shard workers' schedule, reused so
// concurrent retrying warms desynchronize deterministically.
func warmBackoff(base time.Duration, k int, rng *rand.Rand) time.Duration {
	d := base << uint(k)
	if max := base << 6; d > max || d <= 0 {
		d = max
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// warm drives one registration generation to ready or failed: build the
// snapshot, publish on success, retry transient failures with backoff,
// fail fast on permanent ones. Every state transition is generation-
// checked, so a warm superseded by a re-registration (or detached by
// DELETE) publishes nothing.
func (s *Server) warm(ctx context.Context, cancel context.CancelFunc, d *dsEntry, source string, gen int) {
	defer s.warms.Done()
	defer cancel()
	rng := rand.New(rand.NewSource(int64(gen)*0x9E3779B9 + int64(len(d.name))))
	retries := s.warmRetries()
	for attempt := 1; ; attempt++ {
		if !d.beginAttempt(gen, attempt) {
			return // superseded
		}
		start := time.Now()
		snap, err := s.buildSnapshot(ctx, source, gen)
		if err == nil {
			took := time.Since(start)
			s.lastWarmMillis.Store(max64(took.Milliseconds(), 1))
			d.publish(gen, snap, took)
			return
		}
		if ctx.Err() != nil {
			// DELETE or the shutdown drain budget canceled this warm; the
			// context error, not the read error it surfaced as, is the cause.
			d.fail(gen, fmt.Errorf("warm canceled: %w", err))
			return
		}
		if permanentWarmError(err) || attempt > retries {
			d.fail(gen, err)
			return
		}
		wait := warmBackoff(s.retryBase(), attempt-1, rng)
		if !d.scheduleRetry(gen, attempt, err, time.Now().Add(wait)) {
			return // superseded
		}
		if aborted := s.retrySleep(ctx, wait); aborted != nil {
			// Shutdown began (or the warm was canceled) during the backoff:
			// stop retrying cleanly instead of holding the drain hostage.
			d.fail(gen, fmt.Errorf("warm retry abandoned (%v): %w", aborted, err))
			return
		}
	}
}

// retrySleep waits out a backoff, aborting early when the warm's
// context cancels or the server starts shutting down.
func (s *Server) retrySleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.closing:
		return ErrClosed
	case <-t.C:
		return nil
	}
}

// beginAttempt records that attempt n is running (clearing any pending
// next-retry time); false means the generation was superseded and the
// warm goroutine must exit.
func (d *dsEntry) beginAttempt(gen, n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gen != gen {
		return false
	}
	d.attempt = n
	d.nextRetry = time.Time{}
	return true
}

// scheduleRetry records attempt n's transient failure and the time the
// next attempt starts, keeping the evidence visible in Status while the
// warm sleeps.
func (d *dsEntry) scheduleRetry(gen, n int, err error, at time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gen != gen {
		return false
	}
	d.warmErr = err
	d.nextRetry = at
	return true
}

// publish installs the finished snapshot with one pointer swap.
func (d *dsEntry) publish(gen int, snap *Snapshot, took time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gen != gen {
		return
	}
	d.warming = false
	d.warmErr = nil
	d.nextRetry = time.Time{}
	d.cancel = nil
	d.lastWarmMillis = max64(took.Milliseconds(), 1)
	d.snap.Store(snap)
	d.state = StateReady
}

// fail ends the warm: the dataset keeps serving its old snapshot if it
// has one (a failed refresh), otherwise it becomes failed with the full
// error chain intact for Status and Snapshot callers.
func (d *dsEntry) fail(gen int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gen != gen {
		return
	}
	d.warming = false
	d.warmErr = err
	d.nextRetry = time.Time{}
	d.cancel = nil
	if d.snap.Load() == nil {
		d.state = StateFailed
	}
}

// retrying counts datasets whose in-flight warm has failed at least
// once — the /healthz degraded-warning condition.
func (s *Server) retrying() int {
	s.mu.RLock()
	entries := make([]*dsEntry, 0, len(s.datasets))
	for _, d := range s.datasets {
		entries = append(entries, d)
	}
	s.mu.RUnlock()
	n := 0
	for _, d := range entries {
		d.mu.Lock()
		if d.warming && d.warmErr != nil {
			n++
		}
		d.mu.Unlock()
	}
	return n
}

// warmOpen wraps the configured open hook (os.Open by default) so every
// handle a warm reads is canceled by the warm's context between reads —
// what lets DELETE and an expired shutdown drain abort a stream that
// would otherwise run for minutes. Each retry attempt calls it afresh,
// so retries always run on fresh handles.
func (s *Server) warmOpen(ctx context.Context) func(string) (io.ReadSeekCloser, error) {
	open := s.cfg.Open
	if open == nil {
		open = func(p string) (io.ReadSeekCloser, error) { return os.Open(p) }
	}
	return func(p string) (io.ReadSeekCloser, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, err := open(p)
		if err != nil {
			return nil, err
		}
		return &cancelReader{ctx: ctx, inner: f}, nil
	}
}

// cancelReader fails every Read/Seek once its context cancels, so a
// streaming walk observes cancellation at I/O granularity without the
// wire layer knowing about contexts.
type cancelReader struct {
	ctx   context.Context
	inner io.ReadSeekCloser
}

func (r *cancelReader) Read(p []byte) (int, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, err
	}
	return r.inner.Read(p)
}

func (r *cancelReader) Seek(offset int64, whence int) (int64, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, err
	}
	return r.inner.Seek(offset, whence)
}

func (r *cancelReader) Close() error { return r.inner.Close() }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
