package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"surfbless/internal/parmap"
	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/sweepsvc/backoff"
)

// fleetStep is the rate step of both sweep jobs.  It is a power of two,
// so the overlapping rates of the two jobs are bit-identical and share
// result-store fingerprints.
const fleetStep = 1.0 / 128

// fleet is the sweep service in one process: a coordinator behind
// NewServer on loopback, with an fsync'd WAL and a disk-backed simcache
// store in a fresh directory, and one Worker with a slot per CPU that
// talks to it through NewClient.  An iteration submits a job of fresh
// points (the write path: simulate, journal, store), then a job whose
// first half repeats the second half of the first (the read path:
// stored results complete points at lease grant).  Like fig7,
// successive iterations step through the input classes: their points
// take measurably different times to simulate.
type fleet struct {
	cfg       settings
	classes   []fleetJobs              // per input class
	next      int                      // input class of the next iteration
	cycles    map[simcache.Key]float64 // nodes × cycles of each point's simulation
	transport *http.Transport          // every client connection of the run

	mu        sync.Mutex
	simulated float64 // node-cycles of the points the worker executed this iteration

	dir    string
	store  *simcache.Cache
	coord  *sweepsvc.Coordinator
	srv    *sweepsvc.Server
	client *sweepsvc.Client
	stop   context.CancelFunc
	worker *sweepsvc.Worker
	done   chan struct{}
	ft     *fleetTrace
}

// fleetJobs is the pair of sweep jobs of one input class and their
// serial output.
type fleetJobs struct {
	specs [2]sweepsvc.Spec
	want  [2][]string // SerialCSV rows of each job, header first
	stale []bool      // SerialCSV rows that differ from the reference
}

func fleetSpecs(sz size, class int) [2]sweepsvc.Spec {
	n := float64(sz.fleetPoints)
	spec := func(from float64) sweepsvc.Spec {
		return sweepsvc.Spec{
			Model: "SB", Domains: 2, From: from * fleetStep, To: (from + n - 1) * fleetStep, Step: fleetStep,
			Cycles: sz.fleetCycles, Seed: simSeed(class),
		}
	}
	return [2]sweepsvc.Spec{spec(1), spec(1 + float64(sz.fleetPoints/2))}
}

// serialRun runs both jobs through Runner.SerialCSV and returns their
// lines and the nodes × cycles of each distinct point.  The runner
// keeps results in a memory store, so the second job's repeated points
// are not simulated twice and every point's result can be read back.
func serialRun(specs [2]sweepsvc.Spec) ([2][]string, map[simcache.Key]float64, error) {
	var rows [2][]string
	store, err := simcache.New(simcache.Options{})
	if err != nil {
		return rows, nil, err
	}
	runner := &sweepsvc.Runner{Cache: store}
	for i, spec := range specs {
		var buf strings.Builder
		failures, err := runner.SerialCSV(context.Background(), spec, &buf)
		if err != nil {
			return rows, nil, err
		}
		if failures > 0 {
			return rows, nil, fmt.Errorf("sweep-fleet: %d serial points failed", failures)
		}
		rows[i] = strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	}
	cycles := map[simcache.Key]float64{}
	for _, spec := range specs {
		for _, rate := range spec.Rates() {
			key, err := spec.Fingerprint(rate)
			if err != nil {
				return rows, nil, err
			}
			res, ok := sweepsvc.StoreLookup(store, key)
			if !ok {
				return rows, nil, fmt.Errorf("sweep-fleet: serial point %v not stored", rate)
			}
			cycles[key] = float64(res.Nodes) * float64(res.Cycles)
		}
	}
	return rows, cycles, nil
}

// rowDigests digests the data rows of both jobs in order.
func rowDigests(rows [2][]string) []string {
	var out []string
	for _, job := range rows {
		for _, r := range job[1:] {
			out = append(out, digest(r))
		}
	}
	return out
}

func newFleet(cfg settings) *fleet {
	return &fleet{cfg: cfg, next: cfg.class, transport: resettingTransport()}
}

// resettingTransport is http.DefaultTransport with connections that
// close with a reset instead of lingering in TIME_WAIT.  A run starts
// and stops thousands of servers on loopback; the TIME_WAIT sockets a
// normal close leaves for a minute slow every later bind and connect on
// the host, the set-ups of the next run included.
func resettingTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck // a failure only leaves the socket in TIME_WAIT
		}
		return c, err
	}
	return t
}

// prepare runs the jobs of every input class through serialRun, one
// class per CPU, and marks the rows that differ from the reference.
func (w *fleet) prepare() error {
	type serial struct {
		rows   [2][]string
		cycles map[simcache.Key]float64
	}
	classes := make([]int, w.cfg.classes)
	for c := range classes {
		classes[c] = c
	}
	out, err := parmap.Map(classes, w.cfg.nproc, func(c int) (serial, error) {
		rows, cycles, err := serialRun(fleetSpecs(w.cfg.size, c))
		return serial{rows, cycles}, err
	})
	if err != nil {
		return err
	}
	w.cycles = map[simcache.Key]float64{}
	for c, s := range out {
		jobs := fleetJobs{specs: fleetSpecs(w.cfg.size, c), want: s.rows}
		ref := w.cfg.refs.class(c)
		for i, d := range rowDigests(s.rows) {
			jobs.stale = append(jobs.stale, i >= len(ref.Points) || d != ref.Points[i])
		}
		w.classes = append(w.classes, jobs)
		for k, v := range s.cycles {
			w.cycles[k] = v
		}
	}
	return nil
}

// reference digests the serial rows and counts the node-cycles of the
// distinct points: those the fleet simulates when the second job's
// repeated points come from the store.
func (w *fleet) reference() (classRef, error) {
	rows, cycles, err := serialRun(fleetSpecs(w.cfg.size, w.cfg.class))
	if err != nil {
		return classRef{}, err
	}
	cr := classRef{Points: rowDigests(rows)}
	for _, c := range cycles {
		cr.NodeCycles += c
	}
	return cr, nil
}

// pointFinished adds the node-cycles of a point the worker executed.
// Points the coordinator completes from the store at lease grant never
// reach the worker, so they add nothing.
func (w *fleet) pointFinished(_ sweepsvc.Lease, e sweepsvc.Execution) {
	if e.Canceled || e.Failed || !e.KeyOK {
		return
	}
	w.mu.Lock()
	w.simulated += w.cycles[e.Key]
	w.mu.Unlock()
}

func (w *fleet) policy() backoff.Policy {
	return backoff.Policy{Base: time.Millisecond, Max: 50 * time.Millisecond, Factor: 2, Seed: w.cfg.seed}
}

// stage makes a fresh directory holding an empty store directory and
// an empty WAL.  Creating them is file-system metadata work whose time
// varied tenfold between runs on a shared disk, so it is kept out of
// the timed set-up, which opens them as the service opens its files.
func (w *fleet) stage() (err error) {
	if w.dir, err = os.MkdirTemp(w.cfg.workDir, "fleet-"); err != nil {
		return err
	}
	if err := os.Mkdir(filepath.Join(w.dir, "store"), 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(w.dir, "wal"))
	if err != nil {
		return err
	}
	return f.Close()
}

// setUp opens the WAL and the store in the staged directory and starts
// the coordinator, its HTTP server and the worker.
func (w *fleet) setUp(tr *tracer) (err error) {
	defer func() {
		if err != nil {
			w.tearDown()
		}
	}()
	if w.store, err = simcache.New(simcache.Options{Dir: filepath.Join(w.dir, "store")}); err != nil {
		return err
	}
	w.coord, err = sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{WALPath: filepath.Join(w.dir, "wal"), Store: w.store})
	if err != nil {
		return err
	}
	if w.srv, err = sweepsvc.NewServer("127.0.0.1:0", w.coord, nil); err != nil {
		return err
	}
	w.client = sweepsvc.NewClient(w.srv.Addr())
	w.client.HTTP = &http.Client{Timeout: 10 * time.Second, Transport: w.transport}
	hooks := &sweepsvc.WorkerHooks{PointFinished: w.pointFinished}
	if tr != nil {
		w.ft = &fleetTrace{tr: tr, open: map[string]*span{}, traces: map[string]int64{}}
		w.client.HTTP = &http.Client{Timeout: 10 * time.Second, Transport: &rpcTimer{ft: w.ft, base: w.transport}}
		hooks.LeaseAcquired = w.ft.leaseAcquired
		hooks.PointFinished = func(l sweepsvc.Lease, e sweepsvc.Execution) {
			w.pointFinished(l, e)
			w.ft.pointFinished(l)
		}
	}
	w.worker, err = sweepsvc.NewWorker(sweepsvc.WorkerOptions{
		Name: "perfbench", Client: w.client,
		Runner: &sweepsvc.Runner{Cache: w.store, Policy: w.policy()},
		Slots:  w.cfg.nproc, Poll: 2 * time.Millisecond, Backoff: w.policy(), Hooks: hooks,
	})
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	w.stop, w.done = stop, make(chan struct{})
	go func() {
		defer close(w.done)
		w.worker.Run(ctx) //nolint:errcheck // a drained worker returns nil; a cancelled one is being torn down
	}()
	return w.ready()
}

// ready waits until the server answers its health check.
func (w *fleet) ready() error {
	resp, err := (&http.Client{Timeout: 10 * time.Second, Transport: w.transport}).Get("http://" + w.srv.Addr() + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sweep-fleet: healthz: %s", resp.Status)
	}
	return nil
}

// tearDown drains the worker, closes the client connections (first, so
// they end with a reset), stops the server and the coordinator and
// removes the directory.
func (w *fleet) tearDown() {
	if w.worker != nil && w.done != nil {
		w.worker.Drain()
		select {
		case <-w.done:
		case <-time.After(30 * time.Second):
			w.stop()
			<-w.done
		}
		w.stop()
	}
	w.transport.CloseIdleConnections()
	if w.srv != nil {
		w.srv.Close()
	}
	if w.coord != nil {
		w.coord.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.dir, w.store, w.coord, w.srv, w.client, w.stop, w.worker, w.done, w.ft = "", nil, nil, nil, nil, nil, nil, nil, nil
}

func (w *fleet) iterate(tr *tracer) tally {
	root := tr.start("bench", "sweep-fleet", nil, 0)
	defer tr.finish(root)
	if w.ft != nil {
		w.ft.setRoot(root)
	}
	jobs := &w.classes[w.next]
	w.next = (w.next + 1) % len(w.classes)
	ctx := context.Background()
	w.mu.Lock()
	w.simulated = 0
	w.mu.Unlock()
	var t tally
	k := 0 // index of the job's first row in stale
	for i, spec := range jobs.specs {
		want := jobs.want[i]
		t.ops += len(want) - 1
		got, err := w.runJob(ctx, spec)
		if err != nil {
			fmt.Fprintln(w.cfg.stderr, "perfbench: sweep-fleet:", err)
		}
		whole := err == nil && len(got) == len(want) && got[0] == want[0]
		for r := 1; r < len(want); r++ {
			if !whole || got[r] != want[r] || jobs.stale[k+r-1] || !strings.HasSuffix(got[r], ",ok") {
				t.failed++
			}
		}
		k += len(want) - 1
	}
	w.mu.Lock()
	t.nodeCycles = w.simulated
	w.mu.Unlock()
	if tr != nil {
		st := w.store.Stats()
		tr.add("simcache.hits", st.Hits)
		tr.add("simcache.lookups", st.Hits+st.Misses)
		w.timeStoreGets(tr, jobs.specs)
	}
	return t
}

// runJob submits one job, polls its status until it completes and
// returns its CSV lines.
func (w *fleet) runJob(ctx context.Context, spec sweepsvc.Spec) ([]string, error) {
	job, _, err := w.client.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := w.client.Status(ctx, job)
		if err != nil {
			return nil, err
		}
		if st.Complete {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s incomplete after 60 s: %+v", job, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	csv, err := w.client.CSV(ctx, job)
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(csv, "\n"), "\n"), nil
}

// timeStoreGets times Cache.Get of every stored point, from the memory
// tier the lease grants read and from the disk tier a restarted
// coordinator reads.
func (w *fleet) timeStoreGets(tr *tracer, specs [2]sweepsvc.Spec) {
	disk, err := simcache.New(simcache.Options{Dir: filepath.Join(w.dir, "store")})
	if err != nil {
		return
	}
	for _, tier := range []struct {
		name  string
		cache *simcache.Cache
	}{{"simcache.Get.memory", w.store}, {"simcache.Get.disk", disk}} {
		for _, spec := range specs {
			for _, rate := range spec.Rates() {
				key, err := spec.Fingerprint(rate)
				if err != nil {
					continue
				}
				s := tr.start("simcache", tier.name, nil, 0)
				_, ok := tier.cache.Get(key)
				tr.finish(s)
				if !ok {
					tr.add("simcache.get_misses", 1)
				}
			}
		}
	}
}

// fleetTrace records the worker-side spans of a traced fleet
// iteration: one span per leased point, from LeaseAcquired to
// PointFinished, and one per RPC.  Spans of one point share a trace.
type fleetTrace struct {
	tr     *tracer
	mu     sync.Mutex
	root   *span
	open   map[string]*span // lease ID → its point span
	traces map[string]int64 // "job/point" → trace ID
}

func (f *fleetTrace) setRoot(s *span) {
	f.mu.Lock()
	f.root = s
	f.mu.Unlock()
}

// trace returns the trace ID of one point; call with mu held.
func (f *fleetTrace) trace(job string, point int) int64 {
	k := fmt.Sprintf("%s/%d", job, point)
	id, ok := f.traces[k]
	if !ok {
		id = f.tr.newTrace()
		f.traces[k] = id
	}
	return id
}

// leaseAcquired opens the span of a leased point.
func (f *fleetTrace) leaseAcquired(l sweepsvc.Lease) {
	f.mu.Lock()
	f.open[l.ID] = f.tr.start("sim", "sweepsvc.point", f.root, f.trace(l.Job, l.Point))
	f.mu.Unlock()
}

// pointFinished closes the span of a leased point.
func (f *fleetTrace) pointFinished(l sweepsvc.Lease) {
	f.mu.Lock()
	s := f.open[l.ID]
	delete(f.open, l.ID)
	f.mu.Unlock()
	f.tr.finish(s)
}

// rpcTimer is the client transport of a traced fleet: it records one
// span per request, from sending it until the caller closes the body.
type rpcTimer struct {
	ft   *fleetTrace
	base http.RoundTripper
}

func (r *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "sweepsvc." + endpoint(req)
	f := r.ft
	f.mu.Lock()
	parent, trace := f.root, int64(0)
	if name == "sweepsvc.complete" && req.Body != nil {
		raw, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			f.mu.Unlock()
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(raw))
		var c sweepsvc.Completion
		if json.Unmarshal(raw, &c) == nil {
			trace = f.trace(c.Job, c.Point)
		}
	}
	f.mu.Unlock()
	s := f.tr.start("sweepsvc", name, parent, trace)
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		f.tr.finish(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { f.tr.finish(s) }}
	return resp, nil
}

// endpoint names the coordinator API call a request makes.
func endpoint(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/api/jobs":
		return "submit"
	case strings.HasPrefix(p, "/api/jobs/"):
		if _, sub, ok := strings.Cut(strings.TrimPrefix(p, "/api/jobs/"), "/"); ok {
			return sub // csv or rows
		}
		return "status"
	}
	return strings.TrimPrefix(p, "/api/")
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
