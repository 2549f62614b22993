package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"surfbless/internal/experiments"
)

// minimal is the smallest size that still runs every layer: the tests
// below check the benchmark's contract, not its timings.
var minimal = size{
	scale:       experiments.Scale{Warmup: 50, Measure: 200, Drain: 3000, EnergyCycles: 1, Instr: 20},
	fig7Domains: []int{1, 2},
	meshSide:    16, meshWarmup: 20, meshMeasure: 100, meshDrain: 2000,
	fleetPoints: 4, fleetCycles: 200,
	stepWarmup: 20, stepCycles: 50,
	step32Warmup: 10, step32Cycles: 100,
	reps: 1,
}

// minimalReference builds a one-class reference at the minimal size,
// once per test binary.
var minimalReference = func() func(t *testing.T) reference {
	var ref reference
	var err error
	done := false
	return func(t *testing.T) reference {
		t.Helper()
		if !done {
			ref, err = buildReference(minimal, 1, t.TempDir(), io.Discard)
			done = true
		}
		if err != nil {
			t.Fatalf("buildReference: %v", err)
		}
		return ref
	}
}()

func runMinimal(t *testing.T, name string, traced bool, ref reference) result {
	t.Helper()
	cfg := settings{size: minimal, seed: 1, workDir: t.TempDir(), nproc: 2, seconds: 0.001, stderr: io.Discard}
	res, err := runWorkload(name, traced, ref, cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// checkMetrics fails unless got holds exactly the named metrics, each
// with its declared unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

// Every workload emits every end-to-end metric of BENCHMARK.json with
// its unit, a traced run emits every per-layer metric, and all of them
// pass their output checks.
func TestEmitsBenchmarkMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json workload %s is not one of %v", w.Name, workloadNames)
		}
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	ref := minimalReference(t)
	for _, name := range workloadNames {
		res := runMinimal(t, name, false, ref)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, name, res.Metrics, endToEnd)
		for k, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
			}
		}
	}
	res := runMinimal(t, "mesh32-sharded", true, ref)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, "traced", res.Metrics, perLayer)
}

// A reference with one wrong digest per workload must make the run
// report failures: the output check can fail.
func TestWrongReferenceFails(t *testing.T) {
	good := minimalReference(t)
	for _, name := range workloadNames {
		bad := reference{Classes: good.Classes, Workloads: map[string]workloadRef{}}
		for k, v := range good.Workloads {
			bad.Workloads[k] = v
		}
		cr := good.Workloads[name][0]
		cr.Points = slices.Clone(cr.Points)
		cr.Points[0] = "0000000000000000"
		bad.Workloads[name] = workloadRef{cr}
		res := runMinimal(t, name, false, bad)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong reference gave correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// sweep-fleet counts the node-cycles of the points its worker executes:
// each distinct point once, since the repeated ones come from the store.
func TestFleetCountsExecutedPoints(t *testing.T) {
	ref := minimalReference(t)
	cfg := settings{
		size: minimal, classes: ref.Classes, refs: ref.Workloads["sweep-fleet"],
		workDir: t.TempDir(), nproc: 2, stderr: io.Discard,
	}
	w, err := newWorkload("sweep-fleet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	s, err := iteration(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.refs.class(0).NodeCycles; s.failed != 0 || s.nodeCycles != want {
		t.Errorf("failed=%d node-cycles=%v, want 0 and %v", s.failed, s.nodeCycles, want)
	}
}

func TestClassOfNegativeSeed(t *testing.T) {
	for seed, want := range map[int64]int{0: 0, 9: 1, -1: 7, -8: 0} {
		if got := classOf(seed, classes); got != want {
			t.Errorf("classOf(%d) = %d, want %d", seed, got, want)
		}
	}
}

// Self time subtracts the union of overlapping children, not their sum.
func TestSelfTimeUnionOfChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Layer: "parmap", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "sim", Start: 1 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Layer: "sim", Start: 4 * ms, End: 8 * ms},
	}
	self := selfTime(spans)
	if self["parmap"] != 3*time.Millisecond || self["sim"] != 9*time.Millisecond {
		t.Errorf("selfTime = %v, want parmap 3ms, sim 9ms", self)
	}
}
