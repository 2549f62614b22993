package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"surfbless/internal/coherence"
	"surfbless/internal/config"
	"surfbless/internal/cpu"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/system"
	"surfbless/internal/traffic"
)

// Injection rates of the router.step_us probes, in packets/node/cycle
// over both domains: a light load and one near the 8×8 fabrics'
// saturation.
const (
	lowRate  = 0.05
	highRate = 0.25
)

// layerProbes times the layers no workload iteration isolates, by
// calling each module's public functions directly: Fabric.Step and
// Generator.Tick at 8×8 and 32×32, fabric builds, shard pools, the
// full-system build, cache construction and WAL appends.  Every probe
// records a span.
func layerProbes(cfg settings, tr *tracer, put func(name string, v float64, unit string)) error {
	root := tr.start("bench", "layer-probes", nil, 0)
	defer tr.finish(root)
	for _, m := range []config.Model{config.WH, config.BLESS, config.Surf, config.SB} {
		for _, load := range []struct {
			name string
			rate float64
		}{{"low", lowRate}, {"high", highRate}} {
			r, err := newRig(m, 8, load.rate, cfg.seed)
			if err != nil {
				return err
			}
			r.run(cfg.size.stepWarmup)
			s := tr.start("router", fmt.Sprintf("Fabric.Step.%v.%s", m, load.name), root, 0)
			step, tick := r.timed(cfg.size.stepCycles)
			tr.finish(s)
			put(fmt.Sprintf("router.step_us.%v.%s", m, load.name), us(step, cfg.size.stepCycles), "us")
			if m == config.SB && load.name == "low" {
				put("traffic.tick_us.8x8", us(tick, cfg.size.stepCycles), "us")
			}
		}
	}

	for _, m := range []config.Model{config.WH, config.Surf, config.SB} {
		serial, err := newRig(m, 32, lowRate, cfg.seed)
		if err != nil {
			return err
		}
		sharded, err := newRig(m, 32, lowRate, cfg.seed)
		if err != nil {
			return err
		}
		sf, ok := sharded.fab.(shardedFabric)
		if !ok {
			return fmt.Errorf("%v has no sharded stepping", m)
		}
		if err := sf.SetShards(cfg.nproc); err != nil {
			return err
		}
		serial.run(cfg.size.step32Warmup)
		sharded.run(cfg.size.step32Warmup)
		// Alternate short chunks so drift on a shared host biases
		// neither side of the ratio.
		const chunk = 100
		var ts, tp, tick time.Duration
		s := tr.start("shard", "Fabric.Step.32x32."+m.String(), root, 0)
		for done := int64(0); done < cfg.size.step32Cycles; done += chunk {
			st, tk := serial.timed(chunk)
			pt, _ := sharded.timed(chunk)
			ts, tick, tp = ts+st, tick+tk, tp+pt
		}
		tr.finish(s)
		sf.StopShards()
		n := cfg.size.step32Cycles
		put(fmt.Sprintf("router.step_us_32.%v.serial", m), us(ts, n), "us")
		put(fmt.Sprintf("router.step_us_32.%v.sharded", m), us(tp, n), "us")
		put("shard.speedup."+m.String(), ts.Seconds()/tp.Seconds(), "ratio")
		if m == config.SB {
			put("traffic.tick_us.32x32", us(tick, n), "us")
		}
	}

	for _, side := range []int{8, 32} {
		models := []config.Model{config.WH, config.BLESS, config.Surf, config.SB}
		if side == 32 {
			models = []config.Model{config.WH, config.Surf, config.SB}
		}
		var builds, starts []float64
		for i := 0; i < cfg.size.reps; i++ {
			s := tr.start("sim", fmt.Sprintf("sim.BuildFabric.%dx%d", side, side), root, 0)
			t0 := time.Now()
			var fabs []network.Fabric
			for _, m := range models {
				c := meshConfig(m, side)
				fab, err := sim.BuildFabric(c, nil, nil, stats.NewCollector(c.Domains, 0, 0), power.NewMeter(c, power.Default45nm()))
				if err != nil {
					return err
				}
				fabs = append(fabs, fab)
			}
			builds = append(builds, ms(time.Since(t0)))
			tr.finish(s)
			if side == 32 {
				sf, ok := fabs[i%len(fabs)].(shardedFabric)
				if !ok {
					return fmt.Errorf("%v has no sharded stepping", models[i%len(fabs)])
				}
				s := tr.start("shard", "SetShards", root, 0)
				t0 := time.Now()
				err := sf.SetShards(cfg.nproc)
				starts = append(starts, ms(time.Since(t0)))
				tr.finish(s)
				if err != nil {
					return err
				}
				sf.StopShards()
			}
		}
		put(fmt.Sprintf("sim.build_fabric_ms.%dx%d", side, side), median(builds), "ms")
		if side == 32 {
			put("shard.start_ms", median(starts), "ms")
		}
	}

	var buildMS, buildMB []float64
	for i := 0; i < cfg.size.reps; i++ {
		s := tr.start("system", "system.Run.build", root, 0)
		a0, t0 := heapAllocs(), time.Now()
		res, err := system.Run(system.Options{Model: config.SB, App: cpu.Profiles()[0], InstrPerCore: 1, Seed: simSeed(cfg.class)})
		buildMS, buildMB = append(buildMS, ms(time.Since(t0))), append(buildMB, float64(heapAllocs()-a0)/1e6)
		tr.finish(s)
		if err != nil {
			return err
		}
		if !res.Finished {
			return fmt.Errorf("one-instruction system.Run did not finish")
		}
	}
	put("system.build_ms", median(buildMS), "ms")
	put("system.build_alloc_mb", median(buildMB), "MB")

	// 64 L1s and 64 L2s at the Table-1 sizes, as system.Run builds them.
	homeOf := func(b uint64) int { return int(b % 64) }
	send := func(*coherence.Msg, int64) {}
	var l1MS, l2MS, cacheMB []float64
	for i := 0; i < cfg.size.reps; i++ {
		a0 := heapAllocs()
		s := tr.start("coherence", "coherence.NewL1", root, 0)
		t0 := time.Now()
		for n := 0; n < 64; n++ {
			coherence.NewL1(n, 32*1024, 16, 4, homeOf, send)
		}
		l1MS = append(l1MS, ms(time.Since(t0)))
		tr.finish(s)
		s = tr.start("coherence", "coherence.NewL2", root, 0)
		t0 = time.Now()
		for n := 0; n < 64; n++ {
			coherence.NewL2(n, 256*1024, 16, 8, 6, homeOf, send)
		}
		l2MS = append(l2MS, ms(time.Since(t0)))
		tr.finish(s)
		cacheMB = append(cacheMB, float64(heapAllocs()-a0)/1e6)
	}
	put("coherence.new_l1_ms", median(l1MS), "ms")
	put("coherence.new_l2_ms", median(l2MS), "ms")
	put("coherence.new_alloc_mb", median(cacheMB), "MB")

	walMS, err := walAppends(cfg, tr, root)
	if err != nil {
		return err
	}
	put("sweepsvc.wal_append_ms.p50", median(walMS), "ms")
	return nil
}

// walAppends opens a WAL on a fresh file and times fsync'd appends of
// completion-sized records.
func walAppends(cfg settings, tr *tracer, parent *span) ([]float64, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	wal, _, err := sweepsvc.OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	row := "0.125,23.456,1.234,22.222,0.1234,0.000,0,0,0,ok"
	var out []float64
	for i := 0; i < 4*cfg.size.reps; i++ {
		s := tr.start("sweepsvc", "WAL.Append", parent, 0)
		t0 := time.Now()
		err := wal.Append(sweepsvc.Record{T: sweepsvc.RecordPoint, Job: "j1", Point: i, Row: row, Status: "ok", Attempts: 1})
		out = append(out, ms(time.Since(t0)))
		tr.finish(s)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rig drives one fabric with open-loop uniform-random traffic, as
// sim.Run does, so Step and Tick can be timed apart.
type rig struct {
	fab network.Fabric
	gen *traffic.Generator
	now int64
}

func meshConfig(m config.Model, side int) config.Config {
	c := config.Default(m)
	c.Width, c.Height = side, side
	c.Domains = 2
	return c
}

func newRig(m config.Model, side int, rate float64, seed int64) (*rig, error) {
	c := meshConfig(m, side)
	fl := &packet.FreeList{}
	fab, err := sim.BuildFabric(c, nil, func(_ int, p *packet.Packet, _ int64) { fl.Put(p) },
		stats.NewCollector(c.Domains, 0, 0), power.NewMeter(c, power.Default45nm()))
	if err != nil {
		return nil, err
	}
	src := traffic.Source{Rate: rate / 2, Class: packet.Ctrl, VNet: -1}
	gen := traffic.New(c.Mesh(), traffic.UniformRandom, []traffic.Source{src, src}, seed)
	gen.SetFreeList(fl)
	return &rig{fab: fab, gen: gen}, nil
}

func (r *rig) run(cycles int64) {
	for end := r.now + cycles; r.now < end; r.now++ {
		r.gen.Tick(r.fab, r.now)
		r.fab.Step(r.now)
	}
}

// timed runs cycles more cycles and returns the time spent in Step and
// in Tick.
func (r *rig) timed(cycles int64) (step, tick time.Duration) {
	for end := r.now + cycles; r.now < end; r.now++ {
		t0 := time.Now()
		r.gen.Tick(r.fab, r.now)
		t1 := time.Now()
		r.fab.Step(r.now)
		t2 := time.Now()
		tick += t1.Sub(t0)
		step += t2.Sub(t1)
	}
	return step, tick
}

func us(d time.Duration, cycles int64) float64 { return d.Seconds() * 1e6 / float64(cycles) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
