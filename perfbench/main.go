// Command perfbench is the repository's end-to-end benchmark.  One
// invocation runs one workload for a host-time budget, checks every
// simulated output against a reference, and prints one JSON result
// line.  README.md explains the workloads, the metrics and how to run
// it:
//
//	go run . --workload fig7-load --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

//go:embed reference.json
var embeddedReference []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// settings is everything one run needs besides its workload name.
type settings struct {
	size    size
	seed    int64
	class   int         // input class the seed selects
	classes int         // number of input classes
	refs    workloadRef // the workload's reference, per class
	workDir string      // scratch space for WALs, stores and traces
	nproc   int
	seconds float64
	stderr  io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for WALs, stores and trace files")
	writeRef := fs.String("write-reference", "", "regenerate the reference digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef, standard, *workDir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *name) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	ref, err := parseReference(embeddedReference)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := settings{
		size: standard, seed: *seed, workDir: *workDir,
		nproc: runtime.NumCPU(), seconds: *seconds, stderr: stderr,
	}
	res, err := runWorkload(*name, *trace == 1, ref, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload prints the run record, then runs the workload untraced
// or traced and returns the result line.
func runWorkload(name string, traced bool, ref reference, cfg settings, stdout io.Writer) (result, error) {
	if runtime.GOMAXPROCS(0) > cfg.nproc {
		runtime.GOMAXPROCS(cfg.nproc)
	}
	cfg.classes = ref.Classes
	cfg.class = classOf(cfg.seed, ref.Classes)
	cfg.refs = ref.Workloads[name]
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	rec := newRecord(name, cfg, traced)
	if line, err := json.Marshal(map[string]any{"record": rec}); err == nil {
		fmt.Fprintln(stdout, string(line))
	}
	if traced {
		return tracedRun(name, cfg, ref, rec)
	}
	return endToEnd(name, cfg)
}

// sample is one measured iteration.
type sample struct {
	wall  time.Duration
	alloc uint64
	rssMB float64 // peak resident set during the timed part
	tally
}

// endToEnd runs set-up, the timed operation and tear-down in a loop
// until the budget is spent, and reports medians over the iterations.
func endToEnd(name string, cfg settings) (result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return result{}, err
	}
	if err := w.prepare(); err != nil {
		return result{}, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var samples []sample
	var setups []float64
	for len(samples) == 0 || time.Since(start) < budget {
		s, err := iteration(w, nil)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s)
		more, err := setUpTimes(w, s.wall/setUpShare)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, more...)
	}
	var walls, allocs, rss, nodeRates, opRates []float64
	res := result{Metrics: map[string]metric{}}
	for _, s := range samples {
		walls = append(walls, s.wall.Seconds())
		allocs = append(allocs, float64(s.alloc)/1e6)
		rss = append(rss, s.rssMB)
		nodeRates = append(nodeRates, s.nodeCycles/s.wall.Seconds())
		opRates = append(opRates, float64(s.ops)/s.wall.Seconds())
		res.Attempted += s.ops
		res.Failed += s.failed
	}
	res.Correct = res.Failed == 0
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["node_cycles_per_s"] = metric{median(nodeRates), "1/s"}
	res.Metrics["points_per_s"] = metric{median(opRates), "1/s"}
	res.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	fmt.Fprintf(cfg.stderr, "perfbench: %s: %d iterations, %d ops, %d failed\n", name, len(samples), res.Attempted, res.Failed)
	return res, checkFinite(res)
}

// setUpShare sets how much set-up sampling follows each iteration: at
// least one set-up, and more for 1/setUpShare of the iteration's wall
// time.  Spreading the samples over the run, like the iterations, lets
// their median see the same host conditions; quick set-ups (page
// faults, file-system calls) need many samples for a steady median.
const setUpShare = 16

// setUpTimes times back-to-back set-ups, each staged first and torn
// down at once, for about d and at least once.
func setUpTimes(w workload, d time.Duration) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		if err := w.stage(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setUp(nil); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		w.tearDown()
	}
	return out, nil
}

// iteration runs one stage, set-up, timed operation and tear-down.
func iteration(w workload, tr *tracer) (sample, error) {
	var s sample
	if err := w.stage(); err != nil {
		return s, err
	}
	if err := w.setUp(tr); err != nil {
		return s, err
	}
	// Collect the set-up's garbage now, so no timed part pays for it
	// and each starts from the same heap.
	runtime.GC()
	stopRSS := watchRSS()
	a0 := heapAllocs()
	t1 := time.Now()
	s.tally = w.iterate(tr)
	s.wall = time.Since(t1)
	s.alloc = heapAllocs() - a0
	s.rssMB = stopRSS()
	w.tearDown()
	return s, nil
}

func checkFinite(r result) error {
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return nil
}

// record is the run's provenance: the fields a measurement needs to be
// comparable with another.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Class      int     `json:"input_class"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Revision   string  `json:"git_revision"`
}

func newRecord(name string, cfg settings, traced bool) record {
	return record{
		Workload: name, Seed: cfg.seed, Class: cfg.class, Traced: traced, Seconds: cfg.seconds,
		NProc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Revision: revision(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the go command stamped into the binary;
// a build outside a git checkout has none.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// watchRSS samples the resident set every 5 ms until the returned
// function is called, which returns the largest sample in MB.
func watchRSS() func() float64 {
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		top := residentMB()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				peak <- max(top, residentMB())
				return
			case <-t.C:
				top = max(top, residentMB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// residentMB is the process's resident set in MB, from /proc/self/statm.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
