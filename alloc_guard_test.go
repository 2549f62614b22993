package surfbless_test

import (
	"fmt"
	"runtime"
	"testing"

	"surfbless"
	"surfbless/internal/coherence"
	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/system"
	"surfbless/internal/traffic"
)

// allocHarness is one fabric plus its traffic generator, warmed to
// steady state: every router scratch buffer, link queue, NI queue and
// free-list slot has grown to its working capacity, so further
// stepping must not allocate.
type allocHarness struct {
	fab network.Fabric
	gen *traffic.Generator
	p   *probe.Probe // nil = unprobed; Probe methods are nil-safe
	now int64
}

// newAllocHarness builds a warmed 8×8 fabric at moderate load.
// recycle arms the packet free list (disabled for RUNAHEAD, whose
// retry timers hold packets past ejection).  A non-nil p is wired as
// the fabric and collector probe before warm-up, so the event ring,
// interval series and heatmaps all reach working capacity too.
func newAllocHarness(tb testing.TB, model config.Model, warmup int64, p *probe.Probe) *allocHarness {
	tb.Helper()
	return newMeshAllocHarness(tb, model, 8, 1, warmup, p)
}

// newMeshAllocHarness is newAllocHarness on a width×width mesh stepped
// as shards tiles (shards ≤ 1 = serial).  A sharded fabric's worker
// pool is stopped when the test ends.
func newMeshAllocHarness(tb testing.TB, model config.Model, width, shards int, warmup int64, p *probe.Probe) *allocHarness {
	tb.Helper()
	cfg := config.Default(model)
	cfg.Width, cfg.Height = width, width
	cfg.Domains = 2
	col := stats.NewCollector(2, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())

	fl := &packet.FreeList{}
	recycle := model != config.RUNAHEAD
	var sink func(int, *packet.Packet, int64)
	if recycle {
		sink = func(_ int, p *packet.Packet, _ int64) { fl.Put(p) }
	}
	fab, err := sim.BuildFabric(cfg, nil, sink, col, meter)
	if err != nil {
		tb.Fatal(err)
	}
	if shards > 1 {
		ss, ok := fab.(interface {
			SetShards(int) error
			StopShards()
		})
		if !ok {
			tb.Fatalf("%v fabric has no sharded stepping", model)
		}
		if err := ss.SetShards(shards); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(ss.StopShards)
	}
	if p != nil {
		col.SetProbe(p)
		if ps, ok := fab.(interface{ SetProbe(*probe.Probe) }); ok {
			ps.SetProbe(p)
		}
	}
	gen := traffic.New(cfg.Mesh(), traffic.UniformRandom, []traffic.Source{
		{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
		{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
	}, 1)
	if recycle {
		gen.SetFreeList(fl)
	}
	h := &allocHarness{fab: fab, gen: gen, p: p}
	for ; h.now < warmup; h.now++ {
		gen.Tick(fab, h.now)
		fab.Step(h.now)
		h.p.Tick(h.now, fab.InFlight())
	}
	if recycle {
		// Spare packets absorb in-flight-count fluctuation above the
		// warm-up baseline, and pre-grow the free list's own backing
		// array, so neither the generator nor Put allocates later.
		for i := 0; i < 4096; i++ {
			fl.Put(packet.New(0, geom.Coord{}, geom.Coord{}, 0, packet.Ctrl, 0))
		}
	}
	return h
}

// cycles advances the harness n cycles (traffic + stepping).
func (h *allocHarness) cycles(n int) {
	for i := 0; i < n; i++ {
		h.gen.Tick(h.fab, h.now)
		h.fab.Step(h.now)
		h.p.Tick(h.now, h.fab.InFlight())
		h.now++
	}
}

// fillNIs offers every NI queue packets until it refuses one, then
// steps until the fabric drains.  Each queue's backing array then sits
// at its bound, InjectionQueueCap, so no later burst can grow it.  The
// queues reach new occupancy maxima for hundreds of thousands of cycles
// at moderate load — an 8×8 mesh still grows one every ~2000 cycles
// after warm-up — so filling them once replaces that wait.
func (h *allocHarness) fillNIs(tb testing.TB, mesh geom.Mesh, domains int) {
	tb.Helper()
	id := uint64(1) << 62 // clear of the generator's PacketID space
	for n := 0; n < mesh.Nodes(); n++ {
		src, dst := mesh.CoordOf(n), mesh.CoordOf((n+mesh.Nodes()/2)%mesh.Nodes())
		for d := 0; d < domains; d++ {
			for id++; h.fab.Inject(n, packet.New(id, src, dst, d, packet.Ctrl, h.now), h.now); id++ {
			}
		}
	}
	for start := h.now; h.fab.InFlight() > 0; {
		if h.now-start > 100_000 {
			tb.Fatalf("filled NIs still hold %d packets after 100k cycles", h.fab.InFlight())
		}
		h.stepOnly(1)
	}
}

// stepOnly advances n cycles without generating traffic.
func (h *allocHarness) stepOnly(n int) {
	for i := 0; i < n; i++ {
		h.fab.Step(h.now)
		h.p.Tick(h.now, h.fab.InFlight())
		h.now++
	}
}

// TestStepNoAlloc asserts the tentpole claim of DESIGN.md §12: after
// warm-up, steady-state stepping performs zero heap allocations on
// every fabric.  The simulation is deterministic, so this is an exact
// assertion, not a flaky statistical one.  The final check is one long
// window, not an average: AllocsPerRun divides the count by its runs
// in integers, so a rare allocation spread over several short windows
// would round to zero.
func TestStepNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, model := range []config.Model{
		config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER, config.RUNAHEAD,
	} {
		t.Run(model.String(), func(t *testing.T) {
			h := newAllocHarness(t, model, 3000, nil)
			if model != config.RUNAHEAD {
				h.fillNIs(t, geom.NewMesh(8, 8), 2)
			}
			window := func() float64 {
				if model == config.RUNAHEAD {
					// RUNAHEAD cannot recycle (its retry heap reads
					// EjectedAt after ejection), so packet construction in
					// Tick still allocates; the guarantee covers Step
					// itself, fed by the NI backlog built during warm-up.
					return testing.AllocsPerRun(1, func() { h.stepOnly(500) })
				}
				return testing.AllocsPerRun(1, func() { h.cycles(500) })
			}
			warmUntilClean(t, model.String(), window)
			var n float64
			if model == config.RUNAHEAD {
				n = testing.AllocsPerRun(1, func() { h.stepOnly(5000) })
			} else {
				n = testing.AllocsPerRun(1, func() { h.cycles(5000) })
			}
			if n != 0 {
				t.Errorf("%v: %.0f allocs in 5000 steady-state cycles, want 0", model, n)
			}
		})
	}
}

// warmUntilClean steps window (one 500-cycle allocation count) until
// it comes back clean ten times in a row.  Scratch buffers, link
// queues and VC fifos grow toward their (bounded) working capacity for
// tens of thousands of cycles: ever-rarer traffic bursts set new
// occupancy maxima.  A true per-cycle leak never produces a clean
// window and fails the attempt budget.  The run is deterministic, so a
// pass is exact and repeatable, not statistical.
func warmUntilClean(t *testing.T, name string, window func() float64) {
	t.Helper()
	streak := 0
	for attempt := 0; streak < 10; attempt++ {
		if attempt == 600 {
			t.Fatalf("%s: stepping still allocates after 300k warm-up cycles (steady-state leak)", name)
		}
		if window() == 0 {
			streak++
		} else {
			streak = 0
		}
	}
}

// TestStepNoAllocGiant holds the zero-allocation guarantee at the
// 32×32 scale the sharding claims are made at (DESIGN.md §17), for
// every fabric with sharded stepping, serial and four tiles, whose
// worker hand-offs and deferred-effect replay must not allocate
// either.
func TestStepNoAllocGiant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if testing.Short() {
		t.Skip("32×32 warm-up takes seconds")
	}
	for _, model := range []config.Model{config.WH, config.Surf, config.SB} {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("%v/shards=%d", model, shards)
			t.Run(name, func(t *testing.T) {
				h := newMeshAllocHarness(t, model, 32, shards, 3000, nil)
				h.fillNIs(t, geom.NewMesh(32, 32), 2)
				warmUntilClean(t, name, func() float64 { return testing.AllocsPerRun(1, func() { h.cycles(500) }) })
				// One long run, as in TestStepNoAlloc.
				if n := testing.AllocsPerRun(1, func() { h.cycles(5000) }); n != 0 {
					t.Errorf("%s: %.0f allocs in 5000 steady-state 32×32 cycles, want 0", name, n)
				}
			})
		}
	}
}

// TestStepNoAllocProbed extends the zero-allocation guarantee to fully
// observed stepping (DESIGN.md §15): an armed probe with a bounded
// measurement window — so Arm preallocates every interval bucket and
// ring segment — plus a flight-recorder tap must not add a single
// allocation to steady-state cycles.  Covers the gated fabrics; the
// probe code paths are model-independent.
func TestStepNoAllocProbed(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, model := range []config.Model{config.SB, config.WH, config.Surf} {
		t.Run(model.String(), func(t *testing.T) {
			p := &probe.Probe{}
			cfg := config.Default(model)
			// MeasureEnd bounds the run so the interval series is fully
			// preallocated at Arm; it comfortably exceeds the warm-up
			// attempt budget below (600 × 500 cycles + warm-up).
			p.Arm(probe.Config{Mesh: cfg.Mesh(), Domains: 2, Every: 100, WarmupEnd: 0, MeasureEnd: 400_000})
			p.AttachTap(probe.NewFlightRecorder(0))
			h := newAllocHarness(t, model, 3000, p)
			h.fillNIs(t, cfg.Mesh(), 2)
			streak := 0
			for attempt := 0; streak < 10; attempt++ {
				if attempt == 600 {
					t.Fatalf("%v: probed stepping still allocates after 300k warm-up cycles", model)
				}
				if testing.AllocsPerRun(1, func() { h.cycles(500) }) == 0 {
					streak++
				} else {
					streak = 0
				}
			}
			// One long run, as in TestStepNoAlloc.
			if n := testing.AllocsPerRun(1, func() { h.cycles(5000) }); n != 0 {
				t.Errorf("%v: %.0f allocs in 5000 probed steady-state cycles, want 0", model, n)
			}
		})
	}
}

// allocatedBy returns the bytes f allocates on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildCostAlloc bounds what building the full system costs before
// its first useful cycle.  Cache sets are allocated on first install
// (DESIGN.md §12), so an untouched Table-1 L2 bank is just its set
// index, and a one-instruction system.Run is a few MiB instead of the
// ~49 MiB of empty lines a preallocated tag store costs.  The bounds
// sit about 1.3× and 1.8× above the measured 48 KiB and 4.5 MiB, and
// far below the preallocated layout's 688 KiB and 49 MiB.
func TestBuildCostAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	send := func(*coherence.Msg, int64) {}
	mcOf := func(uint64) int { return 0 }
	var l2 *coherence.L2
	b := allocatedBy(func() { l2 = coherence.NewL2(1, 256*1024, 16, 8, 6, mcOf, send) })
	t.Logf("NewL2: %d B", b)
	if b > 64<<10 {
		t.Errorf("NewL2(256 KiB, 16 B, 8 ways) allocated %d B, want ≤ 64 KiB", b)
	}
	runtime.KeepAlive(l2)

	app, err := surfbless.Application("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []config.Model{config.WH, config.Surf, config.SB} {
		var runErr error
		b := allocatedBy(func() {
			_, runErr = system.Run(system.Options{Model: model, App: app, InstrPerCore: 1, Seed: 1})
		})
		if runErr != nil {
			t.Fatalf("%v: %v", model, runErr)
		}
		t.Logf("%v: system.Run(1 instr/core): %.2f MiB", model, float64(b)/(1<<20))
		if b > 8<<20 {
			t.Errorf("%v: one-instruction system.Run allocated %.1f MiB, want ≤ 8 MiB", model, float64(b)/(1<<20))
		}
	}
}
