package sweepsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"surfbless/internal/sim"
	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc/backoff"
)

// RetryHook observes per-point retry attempts (nil = disabled): the
// binaries wire it to stderr logging and the retry counter on
// /metrics.  It is called with the failing attempt's 1-based number
// and error before the backoff sleep.
//
//hook:nil-disabled
type RetryHook func(rate float64, attempt int, err error)

// Runner executes sweep points against the shared result store with
// the service's retry policy.  The zero value runs uncached with the
// default backoff; it is safe for concurrent use by worker slots (the
// cache and hooks are internally synchronized or immutable).
type Runner struct {
	// Cache is the shared simcache-backed result store (nil = always
	// simulate).
	Cache *simcache.Cache
	// Policy paces retries of failing points.  Seed it per process so a
	// fleet's retries de-synchronize.
	Policy backoff.Policy
	// OnRetry, when non-nil, observes each failed attempt that will be
	// retried.
	OnRetry RetryHook
	// Simulate, when non-nil, runs each attempt in place of
	// sim.RunCached(o, Cache).  It receives the point's rate and its
	// options with the attempt's context already set; cmd/sweep uses
	// it to add execution knobs (Shards) and per-point observers
	// (trace, spans, probe, flight recorder) without leaving the
	// runner's retry, timeout and degraded-row handling.
	Simulate func(rate float64, o sim.Options) (sim.Result, error)
}

// Execution is one point's finished outcome.
type Execution struct {
	// Row is the point's CSV row ("" when Canceled).
	Row string
	// Status is the row's typed status cell: "ok", "degraded: <reason>"
	// or "error: <cause>", with "; attempts=N" appended when retries
	// were consumed.
	Status string
	// Attempts is the number of executions consumed (≥ 1).
	Attempts int
	// Failed marks a point that exhausted its attempt budget; its Row
	// is an ErrorRow and the job counts it as a failure.
	Failed bool
	// Permanent marks an outcome that is guaranteed to repeat —
	// a fault-wedge or recovered invariant (sim.DegradedKind.Permanent)
	// or an invalid spec — so the service must not schedule the point
	// again.
	Permanent bool
	// Canceled marks an execution stopped by the caller's context
	// (worker hard-kill): the point produced no row and should simply
	// be re-leased later.
	Canceled bool
	// Key is the point's cache fingerprint (valid iff KeyOK).
	Key   simcache.Key
	KeyOK bool
}

// RunPoint executes one point: up to spec.Attempts() tries under the
// runner's backoff policy, each bounded by the spec's per-point
// timeout, with context cancellation plumbed through sim.Run.
// Degraded runs are data — their partial statistics make the row and
// never consume retries.  A panic escaping the simulator's own recover
// boundary is contained here so worker slots never die.
func (r *Runner) RunPoint(ctx context.Context, spec Spec, rate float64) Execution {
	o, err := spec.Options(rate)
	if err != nil {
		status := "error: " + CSVSafe(err.Error())
		return Execution{Row: ErrorRow(rate, status), Status: status, Attempts: 1, Failed: true, Permanent: true}
	}
	out := Execution{}
	if key, err := sim.Fingerprint(o); err == nil {
		out.Key, out.KeyOK = key, true
	}

	attempts := spec.Attempts()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		out.Attempts = attempt
		res, rerr := r.attempt(ctx, spec, rate, o)

		if rerr == nil {
			out.Status = StatusWithAttempts("ok", attempt)
			out.Row = RenderRow(rate, spec.Domains, res, out.Status)
			return out
		}

		var de *sim.DegradedError
		if errors.As(rerr, &de) {
			// Degraded points carry partial statistics: record them as
			// data.  Fault wedges are permanent by classification, so
			// the service will never reschedule the point.
			out.Status = StatusWithAttempts("degraded: "+CSVSafe(de.Reason), attempt)
			out.Row = RenderRow(rate, spec.Domains, de.Partial, out.Status)
			out.Permanent = de.Kind.Permanent()
			return out
		}

		var ce *sim.CanceledError
		if errors.As(rerr, &ce) && ctx.Err() != nil {
			// The caller's context died (hard kill / shutdown), not the
			// per-point timeout: no row, the lease lapses and the point
			// is re-leased elsewhere.
			out.Canceled = true
			return out
		}
		if errors.Is(rerr, context.DeadlineExceeded) {
			rerr = fmt.Errorf("timeout after %dms", spec.PointTimeoutMS)
		}
		lastErr = rerr
		if attempt == attempts {
			break
		}
		if r.OnRetry != nil {
			r.OnRetry(rate, attempt, rerr)
		}
		if r.Policy.Sleep(ctx, attempt-1) != nil {
			out.Canceled = true
			return out
		}
	}
	out.Status = StatusWithAttempts("error: "+CSVSafe(lastErr.Error()), out.Attempts)
	out.Row = ErrorRow(rate, out.Status)
	out.Failed = true
	return out
}

// attempt runs one execution with the per-point timeout applied and
// panics contained.
func (r *Runner) attempt(ctx context.Context, spec Spec, rate float64, o sim.Options) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	pctx := ctx
	if spec.PointTimeoutMS > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, time.Duration(spec.PointTimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// context.Background().Done() is nil, so an unbounded, uncancelled
	// point costs the run loop nothing.
	o.Ctx = pctx
	if r.Simulate != nil {
		return r.Simulate(rate, o)
	}
	return sim.RunCached(o, r.Cache)
}

// SerialCSV runs every point of the spec serially in rate order and
// writes the header plus one row per point to w — the reference output
// the chaos harness and the cmd/sweep tests compare the service's CSV
// against.  It returns the number of failed points.
func (r *Runner) SerialCSV(ctx context.Context, spec Spec, w io.Writer) (failures int, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return 0, err
	}
	for _, rate := range spec.Rates() {
		exec := r.RunPoint(ctx, spec, rate)
		if exec.Canceled {
			return failures, ctx.Err()
		}
		if exec.Failed {
			failures++
		}
		if _, err := fmt.Fprintln(w, exec.Row); err != nil {
			return failures, err
		}
	}
	return failures, nil
}

// StoreLookup fetches and decodes the cached result for one point
// fingerprint, mirroring sim.RunCached's corruption handling: an entry
// that no longer decodes is counted corrupt and treated as a miss.
func StoreLookup(cache *simcache.Cache, key simcache.Key) (sim.Result, bool) {
	if cache == nil {
		return sim.Result{}, false
	}
	raw, ok := cache.Get(key)
	if !ok {
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		cache.NoteCorrupt()
		return sim.Result{}, false
	}
	return res, true
}
