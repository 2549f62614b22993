// Command sweep runs an injection-rate sweep for one network model and
// emits the latency/throughput curve as CSV on stdout — the raw data
// behind load-latency plots like Fig. 7.
//
// Usage:
//
//	sweep [-model SB] [-domains 2] [-from 0.01] [-to 0.3] [-step 0.02]
//	      [-cycles 10000] [-seed 1] [-workers 1] [-shards 1]
//	      [-cache] [-cache-dir DIR] [-no-cache]
//	      [-faults FILE] [-checkpoint FILE] [-resume]
//	      [-attempts N] [-point-timeout DUR]
//	      [-remote ADDR]
//	      [-http ADDR] [-progress] [-trace FILE] [-spans FILE]
//	      [-probe-dir DIR] [-probe-every N] [-flight-dir DIR]
//
// Engine: a sweep is a sweepsvc job either way.  Locally, the command
// runs the service in process — a coordinator over a WAL, served on
// loopback, and one worker — so every point goes through the same
// Runner.RunPoint, lease scheduling and journal as a sweepd fleet.
// -workers N gives that worker N slots.  Every point is an isolated
// deterministic simulation and rows are printed in rate order as the
// coordinator accepts them, so the CSV is byte-identical to a serial
// (-workers 1) sweep.
//
// -shards N steps each point's mesh as N parallel tiles (see DESIGN.md
// §17) — useful for giant meshes where one point dominates wall-clock.
// Sharded stepping is bit-identical to serial, so the CSV, cache keys
// and journal are all unchanged.
//
// -remote ADDR submits the sweep to a sweepd coordinator (see
// cmd/sweepd) instead of running one in process, streams rows as the
// worker fleet finishes them, and prints a CSV byte-identical to what
// the same flags produce locally.  The fleet picks its own execution,
// store and observability, so the local-only flags (-workers, -shards,
// -cache-dir, -checkpoint, -resume, -http, -trace, -spans, -probe-dir,
// -probe-every, -flight-dir) are rejected next to -remote.
//
// Points are cached content-addressed under -cache-dir (default
// results/.simcache), shared with cmd/experiments; -no-cache forces
// fresh simulations.
//
// Robustness: -faults FILE arms a deterministic fault plan (JSON; see
// internal/fault and DESIGN.md §11) for every point, and the CSV gains
// dropped/retransmits/status columns.  Each point is isolated — a
// failing simulation is retried under seeded exponential backoff with
// jitter up to -attempts executions (default 2, preserving the old
// retry-once budget), then emitted as an error row while the sweep
// continues (exit code 1 at the end); points that needed retries carry
// "; attempts=N" in their status cell.  -point-timeout bounds one
// point's wall-clock simulation time (cancellation is plumbed through
// the simulator); an expired timeout is retryable like any failure.  A
// point that livelocks or trips a router invariant is emitted as a
// "degraded" row with its partial statistics.  -point-timeout takes
// millisecond resolution; a non-zero value under 1ms is rejected.
// -checkpoint FILE keeps the coordinator's WAL there (otherwise it
// lives in a temporary file); after an interrupt, rerunning with
// -resume reopens it, continues the journaled job whose points match
// the flags, and simulates only the points it never finished.  Failed
// points are journaled as done, so -resume replays their error rows.
//
// Observability: -http ADDR serves /progress (JSON point counts and
// ETA), /debug/vars and /debug/pprof/* while the sweep runs; -progress
// prints one structured stderr line per completed point.  -trace FILE
// writes a packet lifecycle trace per point (FILE gains a _r<rate>
// suffix so points do not interleave); -spans FILE writes a Chrome
// trace (Perfetto) JSON per point the same way — load it at
// https://ui.perfetto.dev to see every packet's hop-by-hop timeline.
// -probe-dir DIR attaches a probe to every point and writes
// per-interval time-series JSONL and heatmap CSV files there.
// -flight-dir DIR arms a flight recorder on every point: a point that
// degrades (watchdog, recovered invariant) dumps its last cycles of
// events there for `replay -flight`.  Traced, probed, span-exported or
// recorded points always simulate — the result cache is bypassed for
// them, and -checkpoint is rejected alongside them, since a replayed
// row would skip its outputs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/sweepsvc/backoff"
	"surfbless/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, CSV out,
// exit code back.  The parity test drives it directly with -workers 1
// and -workers N and compares stdout byte for byte.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "SB", "network model: WH, BLESS, Surf or SB")
	domains := fs.Int("domains", 2, "number of interference domains")
	from := fs.Float64("from", 0.01, "first total injection rate")
	to := fs.Float64("to", 0.30, "last total injection rate")
	step := fs.Float64("step", 0.02, "rate increment")
	cycles := fs.Int64("cycles", 10000, "measured cycles per point")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 1, "points simulated concurrently: the local worker's slots (rows stay in rate order)")
	shards := fs.Int("shards", 1, "mesh tiles stepped in parallel inside each point (local runs only; bit-identical to serial)")
	useCache := fs.Bool("cache", true, "reuse cached simulation results")
	cacheDir := fs.String("cache-dir", filepath.Join("results", ".simcache"), "result-cache directory")
	noCache := fs.Bool("no-cache", false, "run every simulation fresh (overrides -cache)")
	attempts := fs.Int("attempts", sweepsvc.DefaultMaxAttempts, "per-point execution budget (1 = no retry)")
	pointTimeout := fs.Duration("point-timeout", 0, "wall-clock bound per point, e.g. 30s (0 = none)")
	remote := fs.String("remote", "", "submit to a sweepd coordinator at this host:port instead of simulating locally")
	httpAddr := fs.String("http", "", "serve /progress, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	progress := fs.Bool("progress", false, "print a structured progress line to stderr after every point")
	traceFile := fs.String("trace", "", "write a packet lifecycle trace per point (suffixed _r<rate>)")
	spansFile := fs.String("spans", "", "write a Chrome trace (Perfetto) JSON per point (suffixed _r<rate>)")
	probeDir := fs.String("probe-dir", "", "write per-point time series (JSONL) and heatmaps (CSV) into this directory")
	probeEvery := fs.Int64("probe-every", probe.DefaultEvery, "probe bucket width in cycles for -probe-dir")
	flightDir := fs.String("flight-dir", "", "write flight-recorder dumps of degraded points into this directory")
	faultsFile := fs.String("faults", "", "fault plan JSON applied to every point (see internal/fault)")
	ckptPath := fs.String("checkpoint", "", "keep the sweep's journal (the coordinator WAL) in this file")
	resume := fs.Bool("resume", false, "continue the sweep journaled in -checkpoint instead of starting fresh")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	// Refuse flag combinations that would otherwise be silently ignored.
	if *remote != "" {
		var local []string
		fs.Visit(func(f *flag.Flag) {
			if localOnlyFlags[f.Name] {
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			return fatal(fmt.Errorf("%s cannot be combined with -remote: the fleet picks its own execution, store and observability", strings.Join(local, ", ")))
		}
	}
	if *resume && *ckptPath == "" {
		return fatal(fmt.Errorf("-resume needs -checkpoint FILE"))
	}
	if *ckptPath != "" {
		for _, f := range []struct{ name, v string }{
			{"-trace", *traceFile}, {"-spans", *spansFile}, {"-probe-dir", *probeDir}, {"-flight-dir", *flightDir},
		} {
			if f.v != "" {
				return fatal(fmt.Errorf("-checkpoint cannot be combined with %s: a resumed sweep would replay rows without writing their outputs", f.name))
			}
		}
	}
	if *pointTimeout != 0 && *pointTimeout < time.Millisecond {
		return fatal(fmt.Errorf("-point-timeout %v is below the 1ms resolution (0 = none)", *pointTimeout))
	}

	m, err := sweepsvc.ParseModel(*model)
	if err != nil {
		return fatal(err)
	}
	if *workers < 1 {
		return fatal(fmt.Errorf("-workers %d, need ≥ 1", *workers))
	}
	if *shards < 1 {
		return fatal(fmt.Errorf("-shards %d, need ≥ 1", *shards))
	}

	var plan *fault.Plan
	if *faultsFile != "" {
		base := config.Default(m)
		if plan, err = fault.LoadPlan(*faultsFile, base.Width, base.Height); err != nil {
			return fatal(err)
		}
	}

	// The spec is the same structure a sweepd job is made of: local and
	// remote sweeps share one canonical flag→options expansion, which
	// is what keeps their CSVs byte-identical.
	spec := sweepsvc.Spec{
		Model: *model, Domains: *domains,
		From: *from, To: *to, Step: *step,
		Cycles: *cycles, Seed: *seed,
		Faults:         plan,
		PointTimeoutMS: pointTimeout.Milliseconds(),
		MaxAttempts:    *attempts,
	}
	if err := spec.Validate(); err != nil {
		return fatal(err)
	}

	if *remote != "" {
		return runRemote(spec, *remote, backoff.Policy{Seed: *seed}, *progress, stdout, stderr)
	}

	var cache *simcache.Cache
	if *useCache && !*noCache {
		if cache, err = simcache.New(simcache.Options{Dir: *cacheDir}); err != nil {
			return fatal(err)
		}
	}
	if *probeDir != "" {
		if err := os.MkdirAll(*probeDir, 0o755); err != nil {
			return fatal(err)
		}
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return fatal(err)
		}
	}

	g := probe.NewProgress()
	g.SetStage("sweep")
	g.SetTotal(int64(len(spec.Rates())))
	if cache != nil {
		g.SetCacheStats(func() (int64, int64) {
			s := cache.Stats()
			return s.Hits, s.Misses
		})
	}
	if *httpAddr != "" {
		metrics := probe.NewMetrics()
		if cache != nil {
			cache.ExposeMetrics(metrics)
		}
		srv, err := probe.Serve(*httpAddr, g, metrics)
		if err != nil {
			return fatal(err)
		}
		defer srv.Close() //nolint:errcheck // releases the listener on the way out
		fmt.Fprintf(stderr, "introspection: http://%s/progress (metrics at /metrics)\n", srv.Addr())
	}

	// Worker slots report retries, failures and flight dumps while this
	// goroutine prints progress, so stderr takes one writer at a time.
	stderr = &syncWriter{w: stderr}
	// Failing points retry under the same seeded-backoff policy the
	// sweepd workers use, so a local and a remote sweep degrade the
	// same way.
	policy := backoff.Policy{Seed: *seed}
	pr := &pointRun{
		model: m, shards: *shards, cache: cache,
		trace: *traceFile, spans: *spansFile,
		probeDir: *probeDir, probeEvery: *probeEvery,
		flightDir: *flightDir, stderr: stderr,
	}
	runner := &sweepsvc.Runner{
		Policy: policy,
		OnRetry: func(rate float64, attempt int, err error) {
			fmt.Fprintf(stderr, "sweep: rate %.3f attempt %d failed (%v), backing off %v\n",
				rate, attempt, err, policy.Delay(attempt-1).Round(time.Millisecond))
		},
		Simulate: pr.simulate,
	}
	failures, err := runLocal(localSweep{
		spec: spec, runner: runner, slots: *workers,
		wal: *ckptPath, resume: *resume,
		stdout: stdout, stderr: stderr,
		printed: func() {
			g.Add(1)
			if *progress {
				fmt.Fprintln(stderr, g.Line())
			}
		},
	})
	if err != nil {
		return fatal(err)
	}
	if cache != nil {
		fmt.Fprintf(stderr, "cache (%s): %v\n", *cacheDir, cache.Stats())
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "sweep: %d point(s) failed\n", failures)
		return 1
	}
	return 0
}

// Local sweeps run a sweepd worker's lease pipeline in process.  The
// prefetch keeps a lease queued behind the busy slots so none idles
// between points; the poll is the worker's idle wait once every
// remaining point is leased.
const (
	localPrefetch = 2
	localPoll     = 10 * time.Millisecond
)

// localSweep is one local sweep's engine configuration.
type localSweep struct {
	spec   sweepsvc.Spec
	runner *sweepsvc.Runner
	slots  int
	// wal is the journal path; "" journals to a temporary file that is
	// removed on return.
	wal    string
	resume bool
	stdout io.Writer
	stderr io.Writer
	// printed runs once per row streamed to stdout.
	printed func()
}

// runLocal executes a sweep exactly as the service fleet does, in
// process: a coordinator over the WAL, served on loopback, and one
// worker with l.slots slots pulling leases and running every point
// through l.runner.  Rows stream to stdout in rate order as the
// coordinator accepts completions.  It returns the number of failed
// points.
func runLocal(l localSweep) (failures int, err error) {
	if l.wal == "" {
		dir, err := os.MkdirTemp("", "sweep-wal-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		l.wal = filepath.Join(dir, "wal")
	} else if !l.resume {
		// Without -resume the journal starts fresh; stale jobs from an
		// unrelated sweep must not be replayed.
		if err := os.Remove(l.wal); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	completed := make(chan struct{}, 1)
	coord, err := sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{
		WALPath: l.wal,
		Hooks: &sweepsvc.Hooks{PointCompleted: func(string, int, bool) {
			select { // called under the coordinator's lock: never block
			case completed <- struct{}{}:
			default:
			}
		}},
	})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := coord.Close(); err == nil {
			err = cerr
		}
	}()

	job := ""
	if l.resume {
		var done int
		job, done = journaledJob(coord, l.spec)
		fmt.Fprintf(l.stderr, "resume: %d point(s) already journaled in %s", done, l.wal)
		if n := coord.Skipped(); n > 0 {
			fmt.Fprintf(l.stderr, " (%d torn line(s) dropped)", n)
		}
		fmt.Fprintln(l.stderr)
	}
	if job == "" {
		if job, _, err = coord.SubmitJob(l.spec); err != nil {
			return 0, err
		}
	}

	srv, err := sweepsvc.NewServer("127.0.0.1:0", coord, nil)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	w, err := sweepsvc.NewWorker(sweepsvc.WorkerOptions{
		Name: "local", Client: sweepsvc.NewClient(srv.Addr()), Runner: l.runner,
		Slots: l.slots, Prefetch: localPrefetch, Poll: localPoll, Backoff: l.runner.Policy,
		Hooks: &sweepsvc.WorkerHooks{PointFinished: func(ls sweepsvc.Lease, exec sweepsvc.Execution) {
			if exec.Failed {
				fmt.Fprintf(l.stderr, "sweep: rate %.3f failed: %s — continuing\n", ls.Rate, exec.Status)
			}
		}},
	})
	if err != nil {
		return 0, err
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(context.Background()) //nolint:errcheck // a background context only ends by Drain, which returns nil
	}()
	defer func() { w.Drain(); <-stopped }()

	out := rowStream{w: l.stdout}
	fmt.Fprintln(l.stdout, sweepsvc.CSVHeader)
	for {
		rows, err := coord.Rows(job)
		if err != nil {
			return 0, err
		}
		for n := out.advance(rows); n > 0; n-- {
			l.printed()
		}
		if out.next == len(rows) {
			for _, r := range rows {
				if r.Failed {
					failures++
				}
			}
			return failures, nil
		}
		<-completed
	}
}

// journaledJob finds the journaled job whose points are exactly the
// spec's — same count, same fingerprints in the same order — and
// reports how many of them are already done.  The last such job wins;
// "" means none matches and the sweep starts a fresh one.
func journaledJob(coord *sweepsvc.Coordinator, spec sweepsvc.Spec) (job string, done int) {
	rates := spec.Rates()
jobs:
	for _, id := range coord.Jobs() {
		rows, err := coord.Rows(id)
		if err != nil || len(rows) != len(rates) {
			continue
		}
		n := 0
		for i, r := range rows {
			key, err := spec.Fingerprint(rates[i])
			if err != nil || r.Fingerprint != key.String() {
				continue jobs
			}
			if r.Done {
				n++
			}
		}
		job, done = id, n
	}
	return job, done
}

// rowStream prints a job's finished rows in rate order.  Each advance
// streams the contiguous done prefix past the cursor, so a row prints
// only once every earlier rate has.  Printed rows are deduplicated by
// point fingerprint, not row index: a coordinator bounce with a torn
// WAL tail can revert a completed point to pending and re-complete it
// later, so indexes may go backwards between two snapshots while
// fingerprints stay stable.
type rowStream struct {
	w       io.Writer
	printed map[string]bool
	next    int // rows[:next] have been streamed; rate order never regresses
}

// advance prints the newly finished rows of one snapshot and returns
// how many it printed.
func (s *rowStream) advance(rows []sweepsvc.PointRow) (printed int) {
	if s.printed == nil {
		s.printed = make(map[string]bool, len(rows))
	}
	for s.next < len(rows) && rows[s.next].Done {
		r := rows[s.next]
		s.next++
		key := r.Fingerprint
		if key == "" {
			key = fmt.Sprintf("point-%d", r.Point)
		}
		if s.printed[key] {
			continue
		}
		s.printed[key] = true
		fmt.Fprintln(s.w, r.Row)
		printed++
	}
	return printed
}

// syncWriter serializes writes to w.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// localOnlyFlags shape only an in-process sweep; a -remote fleet never
// sees them.  The -cache/-no-cache switches are absent on purpose: a
// remote sweep has no local cache, so switching it off is already
// true of it.
var localOnlyFlags = map[string]bool{
	"workers": true, "shards": true, "cache-dir": true,
	"checkpoint": true, "resume": true,
	"http": true, "trace": true, "spans": true,
	"probe-dir": true, "probe-every": true, "flight-dir": true,
}

// remoteRPCAttempts bounds each remote poll's retries through a
// coordinator outage — the same budget the workers run with, so the
// client survives any bounce the fleet survives.
const remoteRPCAttempts = 8

// remotePollHook, when non-nil, runs after every poll (status and rows
// fetched) and before freshly completed rows are printed — the seam
// the regression test uses to bounce the coordinator mid-stream.
var remotePollHook func(done, total int)

// runRemote submits the spec to a sweepd coordinator and streams the
// CSV as points complete through the same rowStream the local engine
// uses, so stdout is byte-identical to a local sweep.  Polls ride
// through transient coordinator outages: a crash-restart mid-sweep
// loses no journaled work, so giving up would abandon a live job.
func runRemote(spec sweepsvc.Spec, addr string, policy backoff.Policy, progress bool, stdout, stderr io.Writer) int {
	client := sweepsvc.NewClient(addr)
	ctx := context.Background()
	job, points, err := client.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	fmt.Fprintf(stderr, "remote: job %s (%d points) on %s\n", job, points, addr)
	fmt.Fprintln(stdout, sweepsvc.CSVHeader)
	out := rowStream{w: stdout}
	lastDone := -1
	for {
		st, err := client.StatusWithRetry(ctx, policy, remoteRPCAttempts, job)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		if progress && st.Done != lastDone {
			fmt.Fprintf(stderr, "remote: %d/%d done (%d leased, %d failed)\n", st.Done, st.Total, st.Leased, st.Failed)
			lastDone = st.Done
		}
		rows, err := client.RowsWithRetry(ctx, policy, remoteRPCAttempts, job)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		if remotePollHook != nil {
			remotePollHook(st.Done, st.Total)
		}
		out.advance(rows)
		if st.Complete && out.next >= len(rows) {
			if st.Failed > 0 {
				fmt.Fprintf(stderr, "sweep: %d point(s) failed\n", st.Failed)
				return 1
			}
			return 0
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// pointRun is the Runner.Simulate hook of a local sweep: the execution
// knob and per-point observability outputs the flags request —
// lifecycle trace, Chrome-trace spans, probe series/heatmaps and
// flight-recorder dumps of degraded points.
type pointRun struct {
	model      config.Model
	shards     int
	cache      *simcache.Cache
	trace      string
	spans      string
	probeDir   string
	probeEvery int64
	flightDir  string
	stderr     io.Writer
}

// simulate runs one attempt of one rate with the requested observers
// attached and writes their outputs.  The runner turns its error into
// the row: a degraded run's partial statistics, or a retry.
func (p *pointRun) simulate(rate float64, o sim.Options) (sim.Result, error) {
	// Execution knob, not part of the point's identity: Shards is
	// fingerprint-exempt, so cache keys and the journal are unchanged.
	o.Shards = p.shards
	var tw *trace.Writer
	if p.trace != "" {
		f, err := os.Create(suffixed(p.trace, rate))
		if err != nil {
			return sim.Result{}, err
		}
		fmt.Fprintln(f, trace.Header())
		tw = trace.New(f)
		o.Tracer = tw.Tracer()
	}
	var pf *trace.Perfetto
	if p.spans != "" {
		f, err := os.Create(suffixed(p.spans, rate))
		if err != nil {
			return sim.Result{}, err
		}
		pf = trace.NewPerfetto(f, o.Cfg.Mesh())
		o.Taps = append(o.Taps, pf)
	}
	var pb *probe.Probe
	if p.probeDir != "" {
		pb = &probe.Probe{}
		o.Probe = pb
		o.ProbeEvery = p.probeEvery
	}
	if p.flightDir != "" {
		o.Recorder = probe.NewFlightRecorder(0)
	}
	res, err := sim.RunCached(o, p.cache)
	if err != nil {
		var de *sim.DegradedError
		if !errors.As(err, &de) {
			return res, err
		}
		if de.Flight != nil && p.flightDir != "" {
			path := filepath.Join(p.flightDir, fmt.Sprintf("sweep_%v_r%.3f.flight.json", p.model, rate))
			if werr := exportFile(path, de.Flight.WriteJSON); werr != nil {
				return res, werr
			}
			fmt.Fprintf(p.stderr, "sweep: rate %.3f degraded — flight dump: %s\n", rate, path)
		}
	}
	if tw != nil {
		if cerr := tw.Close(); cerr != nil {
			return res, fmt.Errorf("trace: %w", cerr)
		}
	}
	if pf != nil {
		if cerr := pf.Close(); cerr != nil {
			return res, fmt.Errorf("spans: %w", cerr)
		}
	}
	if pb != nil {
		base := fmt.Sprintf("%v_r%.3f", p.model, rate)
		if eerr := exportFile(filepath.Join(p.probeDir, "sweep_ts_"+base+".jsonl"), pb.WriteTimeSeriesJSONL); eerr != nil {
			return res, eerr
		}
		if eerr := exportFile(filepath.Join(p.probeDir, "sweep_heat_"+base+".csv"), pb.WriteHeatmapCSV); eerr != nil {
			return res, eerr
		}
	}
	return res, err
}

// suffixed inserts _r<rate> before path's extension, so per-point
// trace files do not clobber each other.
func suffixed(path string, rate float64) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + fmt.Sprintf("_r%.3f", rate) + ext
}

// exportFile streams one probe exporter into path.
func exportFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("%s: %w", path, cerr)
	}
	return nil
}
