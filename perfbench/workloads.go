package main

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/cpu"
	"surfbless/internal/experiments"
	"surfbless/internal/packet"
	"surfbless/internal/parmap"
	"surfbless/internal/power"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/system"
	"surfbless/internal/traffic"
)

// workloadNames lists every workload --workload accepts.  BENCHMARK.json
// gates apps-fullsystem and sweep-fleet only: on a shared 2-vCPU host
// the compute-bound fig7-load and the barrier-synchronised
// mesh32-sharded moved by 26–41 % between two sets of ten runs of the
// same code.  Every traced run still runs both and checks their outputs
// (see README.md).
var workloadNames = []string{"fig7-load", "apps-fullsystem", "mesh32-sharded", "sweep-fleet"}

// size holds every knob that sets how much work a run does.  standard
// is what BENCHMARK.json runs and reference.json was written for;
// tests use a minimal size with a reference they build themselves.
type size struct {
	scale       experiments.Scale // fig7-load and apps-fullsystem (Seed comes from the class)
	fig7Domains []int

	meshSide                           int
	meshWarmup, meshMeasure, meshDrain int64

	fleetPoints int   // points per sweep job
	fleetCycles int64 // measured cycles per sweep point

	stepWarmup, stepCycles     int64 // router.step_us probes at 8×8
	step32Warmup, step32Cycles int64 // serial and sharded probes at 32×32
	reps                       int   // repetitions of the build and RPC probes
}

var standard = size{
	scale:       experiments.Scale{Warmup: 300, Measure: 1000, Drain: 20000, EnergyCycles: 1, Instr: 100},
	fig7Domains: []int{1, 2, 4, 9},
	meshSide:    32, meshWarmup: 100, meshMeasure: 700, meshDrain: 5000,
	fleetPoints: 24, fleetCycles: 1000,
	stepWarmup: 1000, stepCycles: 4000,
	step32Warmup: 200, step32Cycles: 600,
	reps: 5,
}

// workload is one benchmark workload.  A run calls prepare, then
// repeats set-up, one timed iterate and tear-down, each followed by
// timed set-ups; every set-up is preceded by an untimed stage.  A nil
// tracer runs the untraced path.
type workload interface {
	// prepare computes the in-process references the output checks
	// compare against.
	prepare() error
	// stage makes what the next setUp takes as given, such as fresh
	// directories; it is not part of the timed set-up.
	stage() error
	// setUp builds what the next iteration needs before it can time
	// its first operation.
	setUp(tr *tracer) error
	// iterate runs the timed operations once and checks each output.
	iterate(tr *tracer) tally
	// tearDown releases what setUp built.
	tearDown()
	// reference computes the entry of reference.json for the
	// workload's input class.
	reference() (classRef, error)
}

// tally counts one iteration's operations: simulation points,
// full-system runs or sweep points.
type tally struct {
	ops, failed int
	nodeCycles  float64 // nodes × simulated cycles the iteration delivered
}

func newWorkload(name string, cfg settings) (workload, error) {
	switch name {
	case "fig7-load":
		return newFig7(cfg), nil
	case "apps-fullsystem":
		return newApps(cfg), nil
	case "mesh32-sharded":
		return newMesh32(cfg), nil
	case "sweep-fleet":
		return newFleet(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fig7 is experiments.Fig7Domains on the 8×8 mesh: D_1 is BLESS (A
// series) and WH (B series), larger D are SB and Surf.  Successive
// iterations step through the input classes from the seed's, so every
// run measures the same mix of inputs.
type fig7 struct {
	cfg  settings
	sc   experiments.Scale
	jobs []fig7Job
	next int // input class of the next iteration
}

type fig7Job struct {
	model   config.Model
	domains int
	rate    float64
}

func newFig7(cfg settings) *fig7 {
	w := &fig7{cfg: cfg, sc: cfg.size.scale, next: cfg.class}
	w.sc.Seed = simSeed(cfg.class)
	for _, d := range cfg.size.fig7Domains {
		for _, rate := range experiments.Fig7Rates {
			w.jobs = append(w.jobs, fig7Job{bufferless(d), d, rate}, fig7Job{wormhole(d), d, rate})
		}
	}
	return w
}

func bufferless(domains int) config.Model {
	if domains == 1 {
		return config.BLESS
	}
	return config.SB
}

func wormhole(domains int) config.Model {
	if domains == 1 {
		return config.WH
	}
	return config.Surf
}

// options is the sim.Options experiments.Fig7Domains runs for one point
// (the Fig 6/7 configuration); the traced path calls sim.Run with it so
// each point can be timed, and the digests prove both paths agree.
func (w *fig7) options(j fig7Job) sim.Options {
	cfg := config.Default(j.model)
	cfg.Domains = j.domains
	if j.model == config.Surf || j.model == config.SB {
		cfg.CtrlVCsPerPort, cfg.CtrlVCDepth = 0, 0
		cfg.DataVCsPerPort, cfg.DataVCDepth = 1, 4
		cfg.InjectionVCDepth = 4
	}
	sources := make([]traffic.Source, j.domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: j.rate / float64(j.domains), Class: packet.Ctrl, VNet: -1}
	}
	return sim.Options{
		Cfg: cfg, Pattern: traffic.UniformRandom, Sources: sources,
		Warmup: w.sc.Warmup, Measure: w.sc.Measure, Drain: w.sc.Drain, Seed: w.sc.Seed,
	}
}

func fig7Digest(j fig7Job, latency, throughput float64) string {
	return digest(fmt.Sprintf("%v D_%d %v %v %v", j.model, j.domains, j.rate, latency, throughput))
}

// setUp builds each fabric configuration the sweep uses once.
func (w *fig7) setUp(*tracer) error {
	for i := 0; i < len(w.jobs); i += 2 * len(experiments.Fig7Rates) {
		for _, j := range w.jobs[i : i+2] {
			o := w.options(j)
			col := stats.NewCollector(j.domains, 0, 0)
			if _, err := sim.BuildFabric(o.Cfg, nil, nil, col, power.NewMeter(o.Cfg, power.Default45nm())); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *fig7) prepare() error { return nil }

func (w *fig7) stage() error { return nil }

func (w *fig7) tearDown() {}

func (w *fig7) iterate(tr *tracer) tally {
	ref := w.cfg.refs.class(w.next)
	w.sc.Seed = simSeed(w.next)
	w.next = (w.next + 1) % w.cfg.classes
	if tr != nil {
		return w.traced(tr, ref)
	}
	t := tally{ops: len(w.jobs), nodeCycles: ref.NodeCycles}
	res, err := experiments.Fig7Domains(w.sc, w.cfg.size.fig7Domains)
	if err != nil {
		fmt.Fprintln(w.cfg.stderr, "perfbench: fig7-load:", err)
		t.failed = t.ops
		return t
	}
	t.failed = compare(w.tableDigests(res), ref.Points)
	return t
}

// tableDigests flattens a Fig7Result into per-point digests in job
// order.
func (w *fig7) tableDigests(res experiments.Fig7Result) []string {
	var out []string
	k := 0
	for di := range res.A {
		for ri := range res.Rates {
			out = append(out,
				fig7Digest(w.jobs[k], res.A[di].Latency[ri], res.A[di].Throughput[ri]),
				fig7Digest(w.jobs[k+1], res.B[di].Latency[ri], res.B[di].Throughput[ri]))
			k += 2
		}
	}
	return out
}

// replica runs the Fig7Domains points through parmap.Map and sim.Run
// directly, recording a span per point when tr is non-nil.
func (w *fig7) replica(tr *tracer, parent *span) ([]sim.Result, []string, error) {
	pm := tr.start("parmap", "parmap.Map", parent, 0)
	outs, err := parmap.Map(w.jobs, 0, func(j fig7Job) (sim.Result, error) {
		s := tr.start("sim", "sim.Run", pm, tr.newTrace())
		res, err := sim.Run(w.options(j))
		tr.finish(s)
		return res, err
	})
	tr.finish(pm)
	if err != nil {
		return nil, nil, err
	}
	digests := make([]string, len(outs))
	for i, res := range outs {
		thr := 0.0
		for d := 0; d < w.jobs[i].domains; d++ {
			thr += res.Throughput(d)
		}
		digests[i] = fig7Digest(w.jobs[i], res.Total.AvgTotalLatency(), thr)
	}
	return outs, digests, nil
}

func (w *fig7) traced(tr *tracer, ref classRef) tally {
	root := tr.start("bench", "fig7-load", nil, 0)
	defer tr.finish(root)
	t := tally{ops: len(w.jobs), nodeCycles: ref.NodeCycles}
	outs, digests, err := w.replica(tr, root)
	if err != nil {
		fmt.Fprintln(w.cfg.stderr, "perfbench: fig7-load:", err)
		t.failed = t.ops
		return t
	}
	for _, res := range outs {
		tr.add("sim.cycles", res.Cycles)
		tr.add("sim.drain_cycles", res.Cycles-w.sc.Warmup-w.sc.Measure)
	}
	t.failed = compare(digests, ref.Points)
	return t
}

// reference checks that the replica reproduces Fig7Domains exactly and
// returns the digests with the node-cycles the sweep simulates.
func (w *fig7) reference() (classRef, error) {
	res, err := experiments.Fig7Domains(w.sc, w.cfg.size.fig7Domains)
	if err != nil {
		return classRef{}, err
	}
	want := w.tableDigests(res)
	outs, got, err := w.replica(nil, nil)
	if err != nil {
		return classRef{}, err
	}
	if bad := compare(got, want); bad != 0 {
		return classRef{}, fmt.Errorf("the sim.Run replica differs from Fig7Domains on %d points", bad)
	}
	cr := classRef{Points: want}
	for _, r := range outs {
		cr.NodeCycles += float64(r.Nodes) * float64(r.Cycles)
	}
	return cr, nil
}

// apps is experiments.Apps: nine application profiles on WH, Surf and
// SB, one 64-core system.Run each.  Like fig7, successive iterations
// step through the input classes.
type apps struct {
	cfg    settings
	sc     experiments.Scale
	models []config.Model
	jobs   []appJob
	next   int // input class of the next iteration
}

type appJob struct {
	prof  cpu.Profile
	model config.Model
}

func newApps(cfg settings) *apps {
	w := &apps{cfg: cfg, sc: cfg.size.scale, models: []config.Model{config.WH, config.Surf, config.SB}, next: cfg.class}
	w.sc.Seed = simSeed(cfg.class)
	for _, p := range cpu.Profiles() {
		for _, m := range w.models {
			w.jobs = append(w.jobs, appJob{p, m})
		}
	}
	return w
}

func (w *apps) options(j appJob) system.Options {
	return system.Options{Model: j.model, App: j.prof, InstrPerCore: w.sc.Instr, Seed: w.sc.Seed}
}

// setUp builds one full system per network with a one-instruction
// quota, so a broken build fails before timing starts.
func (w *apps) setUp(*tracer) error {
	for _, m := range w.models {
		o := w.options(appJob{w.jobs[0].prof, m})
		o.InstrPerCore = 1
		res, err := system.Run(o)
		if err != nil {
			return err
		}
		if !res.Finished {
			return fmt.Errorf("apps-fullsystem: %v build check did not finish", m)
		}
	}
	return nil
}

func (w *apps) prepare() error { return nil }

func (w *apps) stage() error { return nil }

func (w *apps) tearDown() {}

func (w *apps) iterate(tr *tracer) tally {
	ref := w.cfg.refs.class(w.next)
	w.sc.Seed = simSeed(w.next)
	w.next = (w.next + 1) % w.cfg.classes
	t := tally{ops: len(w.jobs)}
	var results []system.Result
	if tr == nil {
		res, err := experiments.Apps(w.sc)
		if err != nil {
			fmt.Fprintln(w.cfg.stderr, "perfbench: apps-fullsystem:", err)
			t.failed = t.ops
			return t
		}
		for _, j := range w.jobs {
			results = append(results, res.Runs[j.prof.Name][j.model])
		}
	} else {
		var err error
		if results, err = w.replica(tr); err != nil {
			fmt.Fprintln(w.cfg.stderr, "perfbench: apps-fullsystem:", err)
			t.failed = t.ops
			return t
		}
	}
	digests, cycles := w.digests(results)
	t.nodeCycles = cycles
	t.failed = compare(digests, ref.Points)
	for _, r := range results {
		if !r.Finished {
			t.failed++
		}
	}
	return t
}

// replica runs the Apps matrix through parmap.Map and system.Run
// directly, with a span per run.
func (w *apps) replica(tr *tracer) ([]system.Result, error) {
	root := tr.start("bench", "apps-fullsystem", nil, 0)
	defer tr.finish(root)
	pm := tr.start("parmap", "parmap.Map", root, 0)
	defer tr.finish(pm)
	return parmap.Map(w.jobs, 0, func(j appJob) (system.Result, error) {
		s := tr.start("system", "system.Run."+j.model.String(), pm, tr.newTrace())
		res, err := system.Run(w.options(j))
		tr.finish(s)
		tr.add("system.exec_cycles", res.ExecCycles)
		return res, err
	})
}

// digests returns one digest per run and the node-cycles simulated
// (64 tiles × execution cycles, summed over runs).
func (w *apps) digests(results []system.Result) ([]string, float64) {
	nodes := float64(config.Default(config.WH).Nodes())
	out := make([]string, len(results))
	var cycles float64
	for i, r := range results {
		out[i] = digest(r)
		cycles += nodes * float64(r.ExecCycles)
	}
	return out, cycles
}

func (w *apps) reference() (classRef, error) {
	res, err := experiments.Apps(w.sc)
	if err != nil {
		return classRef{}, err
	}
	var results []system.Result
	for _, j := range w.jobs {
		results = append(results, res.Runs[j.prof.Name][j.model])
	}
	digests, cycles := w.digests(results)
	return classRef{Points: digests, NodeCycles: cycles}, nil
}

// mesh32 is sim.Run on a 32×32 mesh for WH, Surf and SB with one
// shard per CPU, one run at a time.  Each sharded result must equal the
// serial result of the same options, computed once per process.
type mesh32 struct {
	cfg          settings
	opts         []sim.Options
	serial       []string
	serialCycles float64
}

type shardedFabric interface {
	SetShards(int) error
	StopShards()
}

func newMesh32(cfg settings) *mesh32 {
	w := &mesh32{cfg: cfg}
	for _, m := range []config.Model{config.WH, config.Surf, config.SB} {
		w.opts = append(w.opts, sim.Options{
			Cfg: meshConfig(m, cfg.size.meshSide), Pattern: traffic.UniformRandom,
			Sources: []traffic.Source{
				{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
				{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
			},
			Warmup: cfg.size.meshWarmup, Measure: cfg.size.meshMeasure, Drain: cfg.size.meshDrain,
			Seed: simSeed(cfg.class),
		})
	}
	return w
}

// prepare runs each fabric serially once.
func (w *mesh32) prepare() error {
	for _, o := range w.opts {
		res, err := sim.Run(o)
		if err != nil {
			return fmt.Errorf("mesh32-sharded: serial %v: %w", o.Cfg.Model, err)
		}
		w.serial = append(w.serial, digest(res))
		w.serialCycles += float64(res.Nodes) * float64(res.Cycles)
	}
	return nil
}

func (w *mesh32) reference() (classRef, error) {
	if err := w.prepare(); err != nil {
		return classRef{}, err
	}
	return classRef{Points: w.serial, NodeCycles: w.serialCycles}, nil
}

// setUp builds the three 32×32 fabrics and starts and stops their
// shard pools, the build each sharded sim.Run repeats.  sim.Run builds
// its own fabric, so nothing built here outlives setUp.
func (w *mesh32) setUp(*tracer) error {
	for _, o := range w.opts {
		col := stats.NewCollector(o.Cfg.Domains, 0, 0)
		fab, err := sim.BuildFabric(o.Cfg, nil, nil, col, power.NewMeter(o.Cfg, power.Default45nm()))
		if err != nil {
			return err
		}
		sf, ok := fab.(shardedFabric)
		if !ok {
			return fmt.Errorf("mesh32-sharded: %v has no sharded stepping", o.Cfg.Model)
		}
		if err := sf.SetShards(w.cfg.nproc); err != nil {
			return err
		}
		sf.StopShards()
	}
	return nil
}

func (w *mesh32) stage() error { return nil }

func (w *mesh32) tearDown() {}

func (w *mesh32) iterate(tr *tracer) tally {
	root := tr.start("bench", "mesh32-sharded", nil, 0)
	defer tr.finish(root)
	t := tally{ops: len(w.opts)}
	ref := w.cfg.refs.class(w.cfg.class)
	for i, o := range w.opts {
		o.Shards = w.cfg.nproc
		s := tr.start("sim", "sim.Run."+o.Cfg.Model.String(), root, tr.newTrace())
		res, err := sim.Run(o)
		tr.finish(s)
		switch {
		case err != nil:
			fmt.Fprintf(w.cfg.stderr, "perfbench: mesh32-sharded %v: %v\n", o.Cfg.Model, err)
			t.failed++
		case res.LeftInFlight > 0, digest(res) != w.serial[i], i >= len(ref.Points), digest(res) != ref.Points[i]:
			t.failed++
		}
		t.nodeCycles += float64(res.Nodes) * float64(res.Cycles)
	}
	return t
}
