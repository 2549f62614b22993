package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// selfLayers are the layers whose self time a traced run reports for
// its workload.
var selfLayers = []string{"bench", "parmap", "sim", "system", "sweepsvc"}

// tracedRun produces the per-layer metrics.  It runs in two parts:
//
//  1. the selected workload, alternating untraced and traced
//     iterations for the time budget, which gives the tracing overhead
//     and the workload's per-layer self time;
//  2. one traced iteration of every workload, and the layer probes,
//     which give every other per-layer metric, so each traced run
//     reports the full set and checks every workload's outputs.
//
// The spans and counts are written to the work directory at the end.
func tracedRun(name string, cfg settings, ref reference, rec record) (result, error) {
	tr := newTracer()
	res := result{Metrics: map[string]metric{}}
	put := func(n string, v float64, unit string) { res.Metrics[n] = metric{v, unit} }
	count := func(t tally) {
		res.Attempted += t.ops
		res.Failed += t.failed
	}
	built := map[string]workload{}
	get := func(n string) (workload, error) {
		if w, ok := built[n]; ok {
			return w, nil
		}
		c := cfg
		c.refs = ref.Workloads[n]
		w, err := newWorkload(n, c)
		if err != nil {
			return nil, err
		}
		if err := w.prepare(); err != nil {
			return nil, err
		}
		built[n] = w
		return w, nil
	}

	w, err := get(name)
	if err != nil {
		return res, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	mk := tr.mark()
	var plain, traced []float64
	for pair := 0; pair == 0 || time.Since(start) < budget; pair++ {
		for k := 0; k < 2; k++ {
			on := (pair+k)%2 == 1 // alternate which side of a pair goes first
			t := tr
			if !on {
				t = nil
			}
			s, err := iteration(w, t)
			if err != nil {
				return res, err
			}
			count(s.tally)
			if on {
				traced = append(traced, s.wall.Seconds())
			} else {
				plain = append(plain, s.wall.Seconds())
			}
		}
	}
	spans, _ := tr.since(mk)
	put("trace.overhead_ratio", median(traced)/median(plain), "ratio")
	self := selfTime(spans)
	for _, l := range selfLayers {
		put("self_ms."+l, ms(self[l])/float64(len(traced)), "ms")
	}

	// fig7-load: per-point simulation time, drain share and how busy
	// parmap keeps the workers.
	mk = tr.mark()
	if w, err = get("fig7-load"); err != nil {
		return res, err
	}
	s, err := iteration(w, tr)
	if err != nil {
		return res, err
	}
	count(s.tally)
	spans, counts := tr.since(mk)
	put("sim.run_ms.p50", median(durationsMS(named(spans, "sim.Run"))), "ms")
	put("sim.drain_share", float64(counts["sim.drain_cycles"])/float64(counts["sim.cycles"]), "ratio")
	put("parmap.busy_share.fig7-load", busyShare(spans, "sim.Run"), "ratio")

	// apps-fullsystem: per-network run time, simulated speed and GC.
	mk = tr.mark()
	if w, err = get("apps-fullsystem"); err != nil {
		return res, err
	}
	gc0 := gcSample()
	s, err = iteration(w, tr)
	if err != nil {
		return res, err
	}
	gc := gcSample().minus(gc0)
	count(s.tally)
	spans, counts = tr.since(mk)
	var runSec float64
	for _, m := range []string{"WH", "Surf", "SB"} {
		ds := durationsMS(named(spans, "system.Run."+m))
		var sum float64
		for _, d := range ds {
			sum += d
		}
		runSec += sum / 1e3
		put("system.run_ms."+m, sum, "ms")
	}
	put("system.cycles_per_s", float64(counts["system.exec_cycles"])/runSec, "1/s")
	a := w.(*apps)
	put("system.instr_per_s", float64(len(a.jobs)*64)*float64(a.sc.Instr)/s.wall.Seconds(), "1/s")
	put("parmap.busy_share.apps-fullsystem", busyShare(spans, "system.Run.WH", "system.Run.Surf", "system.Run.SB"), "ratio")
	put("runtime.gc_cpu_share", gc.gcCPU/gc.totalCPU, "ratio")
	put("runtime.gc_cycles", gc.cycles, "count")

	// mesh32-sharded: its outputs are checked (sharded == serial ==
	// reference); the shard metrics come from the layer probes.
	if w, err = get("mesh32-sharded"); err != nil {
		return res, err
	}
	if s, err = iteration(w, tr); err != nil {
		return res, err
	}
	count(s.tally)

	// sweep-fleet: RPC latencies, point execution and store reads.
	mk = tr.mark()
	if w, err = get("sweep-fleet"); err != nil {
		return res, err
	}
	if s, err = iteration(w, tr); err != nil {
		return res, err
	}
	count(s.tally)
	spans, counts = tr.since(mk)
	for _, rpc := range []string{"submit", "lease", "complete"} {
		ds := durationsMS(named(spans, "sweepsvc."+rpc))
		put("sweepsvc."+rpc+"_rpc_ms.p50", quantile(ds, 0.5), "ms")
		put("sweepsvc."+rpc+"_rpc_ms.p90", quantile(ds, 0.9), "ms")
		put("sweepsvc."+rpc+"_rpc.n", float64(len(ds)), "count")
	}
	put("sweepsvc.point_exec_ms.p50", median(durationsMS(named(spans, "sweepsvc.point"))), "ms")
	put("simcache.hits", float64(counts["simcache.hits"]), "count")
	put("simcache.lookups", float64(counts["simcache.lookups"]), "count")
	put("simcache.hit_ratio", float64(counts["simcache.hits"])/float64(counts["simcache.lookups"]), "ratio")
	put("simcache.get_us", 1e3*median(durationsMS(named(spans, "simcache.Get.memory"))), "us")
	put("simcache.disk_get_us", 1e3*median(durationsMS(named(spans, "simcache.Get.disk"))), "us")
	if counts["simcache.get_misses"] > 0 {
		return res, fmt.Errorf("sweep-fleet: %d stored points missing from the store", counts["simcache.get_misses"])
	}

	if err := layerProbes(cfg, tr, put); err != nil {
		return res, err
	}
	put("trace.spans", float64(len(tr.spans)), "count")
	res.Correct = res.Failed == 0
	path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
	if err := tr.write(path, rec); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.stderr, "perfbench: %s traced: %d ops, %d failed, %d spans in %s\n", name, res.Attempted, res.Failed, len(tr.spans), path)
	return res, checkFinite(res)
}

// busyShare is the time the named point spans cover over the wall time
// of the parmap.Map span times its workers: 1 means no worker idled.
func busyShare(spans []span, names ...string) float64 {
	pm := named(spans, "parmap.Map")
	if len(pm) != 1 {
		return 0
	}
	var busy time.Duration
	for _, s := range named(spans, names...) {
		busy += s.dur()
	}
	return busy.Seconds() / (pm[0].dur().Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// gcStats are the runtime's cumulative GC counters.
type gcStats struct{ gcCPU, totalCPU, cycles float64 }

func gcSample() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcStats{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

func (a gcStats) minus(b gcStats) gcStats {
	return gcStats{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.cycles - b.cycles}
}
