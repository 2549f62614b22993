package probe_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
)

// TestEventStaysSmall pins the ring record at 48 bytes: the hot path
// copies one per event, so accidental growth is a performance bug.
func TestEventStaysSmall(t *testing.T) {
	if s := unsafe.Sizeof(probe.Event{}); s != 48 {
		t.Fatalf("Event is %d bytes, want 48", s)
	}
}

// TestRingOverflowFlushes: more router events than one ring segment
// and one pending-deflection list hold between drains must flush early
// and lose nothing — exactness never depends on either capacity.
func TestRingOverflowFlushes(t *testing.T) {
	pr := &probe.Probe{}
	// A 1×1 mesh gets the max per-router segment (1024 events);
	// overflow it several times over from a single node.
	pr.Arm(probe.Config{Mesh: geom.NewMesh(1, 1), Domains: 1, Every: 100})
	bt := &batchTap{}
	pr.AttachTap(bt)
	const hops = 5000
	p := pkt(1, 0, 0, 0, 0)
	for i := 0; i < hops; i++ {
		pr.Traverse(0, geom.East, p, 2, i%10 == 0, int64(i%50))
	}
	h := pr.Heatmap()
	if len(bt.events) != hops || bt.batches < hops/1024 {
		t.Errorf("tap saw %d events in %d batches, want %d in ≥ %d", len(bt.events), bt.batches, hops, hops/1024)
	}
	var defl int64
	for _, iv := range pr.Intervals() {
		defl += iv.Domains[0].Deflections
	}
	if defl != hops/10 {
		t.Errorf("interval deflections = %d, want %d", defl, hops/10)
	}
	if h.RouterFlits[0] != 2*hops {
		t.Errorf("router flits = %d, want %d", h.RouterFlits[0], 2*hops)
	}
	if h.LinkFlits[0][geom.East] != 2*hops {
		t.Errorf("link flits = %d, want %d", h.LinkFlits[0][geom.East], 2*hops)
	}
	if h.RouterDeflections[0] != hops/10 {
		t.Errorf("deflections = %d, want %d", h.RouterDeflections[0], hops/10)
	}
}

// batchTap records every batch it is handed (copying, per the Tap
// contract).
type batchTap struct {
	batches int
	events  []probe.Event
}

func (bt *batchTap) Consume(batch []probe.Event) {
	bt.batches++
	bt.events = append(bt.events, batch...)
}

// TestTapSeesEveryEvent: an attached tap receives the full event
// stream across interval drains and the final flush, and re-arming
// detaches it.
func TestTapSeesEveryEvent(t *testing.T) {
	pr := &probe.Probe{}
	pr.Arm(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 1, Every: 50})
	bt := &batchTap{}
	pr.AttachTap(bt)

	p := pkt(7, 0, 10, 11, 90)
	pr.Created(p)
	pr.Injected(p)
	for now := int64(0); now < 120; now++ {
		if now == 40 {
			pr.Traverse(1, geom.South, p, 1, false, now)
		}
		pr.Tick(now, 1)
	}
	pr.Ejected(p)
	pr.Flush()

	// created + injected + traverse + ejected + 120 ticks.
	if want := 4 + 120; len(bt.events) != want {
		t.Fatalf("tap saw %d events, want %d", len(bt.events), want)
	}
	if bt.batches < 2 {
		t.Errorf("tap saw %d batches; interval draining should produce several", bt.batches)
	}
	kinds := map[probe.Kind]int{}
	for _, e := range bt.events {
		kinds[e.Kind]++
	}
	for _, k := range []probe.Kind{probe.KindCreated, probe.KindInjected, probe.KindLinkBusy, probe.KindEjected} {
		if kinds[k] != 1 {
			t.Errorf("tap saw %d %v events, want 1", kinds[k], k)
		}
	}

	pr.Arm(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 1, Every: 50})
	pr.Tick(0, 0)
	pr.Flush()
	if len(bt.events) != 4+120 {
		t.Errorf("re-arm did not detach the tap (saw %d events)", len(bt.events))
	}
}

// foldEvents is a reference model of the probe's series and heatmap
// semantics: it folds a tap's event stream in delivery order, windowing
// every event by its creation cycle (refusals and retransmissions by
// their own cycle) and bucketing it by its cycle.
func foldEvents(cfg probe.Config, events []probe.Event) ([]probe.Interval, probe.Heatmap) {
	hi := cfg.MeasureEnd
	if hi == 0 {
		hi = math.MaxInt64
	}
	in := func(c int64) bool { return c >= cfg.WarmupEnd && c < hi }
	nodes := cfg.Mesh.Nodes()
	h := probe.Heatmap{
		Mesh:              cfg.Mesh,
		RouterFlits:       make([]int64, nodes),
		RouterDeflections: make([]int64, nodes),
		RouterEjections:   make([]int64, nodes),
		LinkFlits:         make([][geom.NumLinkDirs]int64, nodes),
	}
	var ivs []probe.Interval
	slot := func(c int64, d int16) *probe.DomainSlice {
		for i := int(c / cfg.Every); len(ivs) <= i; {
			start := int64(len(ivs)) * cfg.Every
			ivs = append(ivs, probe.Interval{Start: start, End: start + cfg.Every, Domains: make([]probe.DomainSlice, cfg.Domains)})
		}
		return &ivs[c/cfg.Every].Domains[d]
	}
	occ := make([]int64, cfg.Domains)
	last := int64(-1)
	for _, e := range events {
		last = max(last, e.Cycle)
		switch e.Kind {
		case probe.KindCreated:
			occ[e.Domain]++
			if in(e.Created) {
				slot(e.Cycle, e.Domain).Created++
			}
		case probe.KindRefused:
			if in(e.Cycle) {
				slot(e.Cycle, e.Domain).Refused++
			}
		case probe.KindInjected:
			if in(e.Created) {
				slot(e.Cycle, e.Domain).Injected++
			}
		case probe.KindEjected:
			occ[e.Domain]--
			if in(e.Created) {
				s := slot(e.Cycle, e.Domain)
				s.Ejected++
				s.LatencySum += e.Cycle - e.Created
				h.RouterEjections[e.Node]++
			}
		case probe.KindDropped:
			occ[e.Domain]--
			if in(e.Created) {
				slot(e.Cycle, e.Domain).Dropped++
			}
		case probe.KindRetransmit:
			if in(e.Cycle) {
				slot(e.Cycle, e.Domain).Retransmits++
			}
		case probe.KindLinkBusy, probe.KindDeflect:
			if in(e.Created) {
				h.RouterFlits[e.Node] += int64(e.Flits)
				h.LinkFlits[e.Node][e.Dir] += int64(e.Flits)
				if e.Kind == probe.KindDeflect {
					h.RouterDeflections[e.Node]++
					slot(e.Cycle, e.Domain).Deflections++
				}
			}
		case probe.KindTick:
			slot(e.Cycle, 0)
			iv := &ivs[e.Cycle/cfg.Every]
			iv.NetInFlight = int64(e.Flits)
			for d := range iv.Domains {
				iv.Domains[d].InFlight = occ[d]
			}
		}
	}
	if n := len(ivs); n > 0 && last+1 < ivs[n-1].End {
		ivs[n-1].End = last + 1
	}
	h.Cycles = cfg.MeasureEnd - cfg.WarmupEnd
	if cfg.MeasureEnd == 0 {
		h.Cycles = max(last+1-cfg.WarmupEnd, 0)
	}
	return ivs, h
}

// TestAccumulationMatchesEventFold: for seeded random hook sequences
// (every hook kind, windows with and without an end, bucket widths on
// and off the drain stride, deflection bursts past the pending-list
// capacity), a probe without taps reports exactly the series and
// heatmap that folding a tapped twin's event stream gives, and the
// tapped twin reports the same as well.
func TestAccumulationMatchesEventFold(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := probe.Config{
			Mesh:      geom.NewMesh(1+rng.Intn(4), 1+rng.Intn(4)),
			Domains:   1 + rng.Intn(3),
			Every:     []int64{5, 32, 50, 100}[rng.Intn(4)],
			WarmupEnd: int64(rng.Intn(60)),
		}
		if rng.Intn(2) == 0 {
			cfg.MeasureEnd = cfg.WarmupEnd + 50 + int64(rng.Intn(300))
		}
		plain, tapped := &probe.Probe{}, &probe.Probe{}
		plain.Arm(cfg)
		tapped.Arm(cfg)
		bt := &batchTap{}
		tapped.AttachTap(bt)
		both := func(f func(pr *probe.Probe)) { f(plain); f(tapped) }
		nodes := cfg.Mesh.Nodes()
		var id uint64
		// The run's tail is router events only, so the observed span
		// ends on a Traverse.
		end := 600 + int64(rng.Intn(50))
		for now := int64(0); now < end; now++ {
			tail := now >= end-10
			for k := rng.Intn(8); k > 0; k-- {
				id++
				c := cfg.Mesh.CoordOf(rng.Intn(nodes))
				p := packet.New(id, c, cfg.Mesh.CoordOf(rng.Intn(nodes)), rng.Intn(cfg.Domains), packet.Ctrl, now-int64(rng.Intn(80)))
				p.InjectedAt, p.EjectedAt = now, now
				kind := rng.Intn(8)
				if tail {
					kind = 7
				}
				switch kind {
				case 0:
					both(func(pr *probe.Probe) { pr.Created(p) })
				case 1:
					both(func(pr *probe.Probe) { pr.Refused(p.Domain, now) })
				case 2:
					both(func(pr *probe.Probe) { pr.Injected(p) })
				case 3:
					both(func(pr *probe.Probe) { pr.Ejected(p) })
				case 4:
					both(func(pr *probe.Probe) { pr.Dropped(p, now) })
				case 5:
					both(func(pr *probe.Probe) { pr.Retransmitted(p, now) })
				default:
					node, dir := rng.Intn(nodes), geom.LinkDirs[rng.Intn(geom.NumLinkDirs)]
					flits, defl := 1+rng.Intn(5), rng.Intn(3) == 0
					for n := 1 + rng.Intn(40)*rng.Intn(2); n > 0; n-- {
						both(func(pr *probe.Probe) { pr.Traverse(node, dir, p, flits, defl, now) })
					}
				}
			}
			if occ := rng.Intn(100); occ != 0 && !tail {
				both(func(pr *probe.Probe) { pr.Tick(now, occ) })
			}
		}
		gotIvs, gotHeat := plain.Intervals(), plain.Heatmap()
		tapIvs, tapHeat := tapped.Intervals(), tapped.Heatmap()
		wantIvs, wantHeat := foldEvents(cfg, bt.events)
		if !reflect.DeepEqual(gotIvs, wantIvs) || !reflect.DeepEqual(tapIvs, wantIvs) {
			t.Fatalf("seed %d: intervals differ from the event fold\nplain:  %+v\ntapped: %+v\nfold:   %+v", seed, gotIvs, tapIvs, wantIvs)
		}
		if !reflect.DeepEqual(gotHeat, wantHeat) || !reflect.DeepEqual(tapHeat, wantHeat) {
			t.Fatalf("seed %d: heatmap differs from the event fold\nplain:  %+v\ntapped: %+v\nfold:   %+v", seed, gotHeat, tapHeat, wantHeat)
		}
	}
}

// TestDroppedAndRetransmitCounters: the new fault-path events land in
// the series (windowed like package stats) and drops end occupancy.
func TestDroppedAndRetransmitCounters(t *testing.T) {
	pr := &probe.Probe{}
	pr.Arm(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 2, Every: 100, WarmupEnd: 50})
	in := pkt(1, 0, 60, 61, 0)  // in-window
	out := pkt(2, 1, 10, 11, 0) // created pre-warm-up
	pr.Created(in)
	pr.Created(out)
	pr.Retransmitted(in, 120)
	pr.Retransmitted(out, 130) // windowed by now, which IS in window
	pr.Dropped(in, 150)
	pr.Dropped(out, 160)
	pr.Tick(200, 0)

	tot := pr.Totals()
	if tot[0].Dropped != 1 || tot[0].Retransmits != 1 {
		t.Errorf("domain 0: dropped=%d retransmits=%d, want 1/1", tot[0].Dropped, tot[0].Retransmits)
	}
	// Domain 1's packet was created before warm-up: its drop is
	// unwindowed, but the retransmission event (keyed by cycle, like
	// stats.Collector.Retransmitted) counts.
	if tot[1].Dropped != 0 || tot[1].Retransmits != 1 {
		t.Errorf("domain 1: dropped=%d retransmits=%d, want 0/1", tot[1].Dropped, tot[1].Retransmits)
	}
	// Both drops end occupancy regardless of window.
	ivs := pr.Intervals()
	last := ivs[len(ivs)-1]
	for d, s := range last.Domains {
		if s.InFlight != 0 {
			t.Errorf("domain %d in-flight = %d after drops, want 0", d, s.InFlight)
		}
	}
}

// TestFlightRecorderWindow: the recorder retains only the trailing
// window, snapshots deterministically, and Reset empties it.
func TestFlightRecorderWindow(t *testing.T) {
	pr := &probe.Probe{}
	pr.Arm(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 1, Every: 10})
	rec := probe.NewFlightRecorder(32)
	pr.AttachTap(rec)
	for now := int64(0); now < 100; now++ {
		pr.Tick(now, int(now))
	}
	pr.Flush()

	snap := rec.Snapshot()
	if len(snap) != 32 {
		t.Fatalf("snapshot holds %d events, want the 32-cycle window", len(snap))
	}
	if snap[0].Cycle != 68 || snap[len(snap)-1].Cycle != 99 {
		t.Errorf("window covers [%d,%d], want [68,99]", snap[0].Cycle, snap[len(snap)-1].Cycle)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Cycle < snap[i-1].Cycle {
			t.Fatalf("snapshot not cycle-ordered at %d", i)
		}
	}
	snap2 := rec.Snapshot()
	for i := range snap {
		if snap[i] != snap2[i] {
			t.Fatalf("snapshot not deterministic at %d", i)
		}
	}

	rec.Reset()
	if got := rec.Snapshot(); got != nil {
		t.Errorf("post-Reset snapshot holds %d events", len(got))
	}
}

// TestMetricsExposition: registration is idempotent, func metrics
// rebind, and the text format carries HELP/TYPE lines.
func TestMetricsExposition(t *testing.T) {
	m := probe.NewMetrics()
	c := m.Counter("surfbless_x_total", "things")
	c.Add(3)
	c2 := m.Counter("surfbless_x_total", "things")
	c2.Inc()
	if c.Value() != 4 {
		t.Errorf("re-registered counter diverged: %d", c.Value())
	}
	v := int64(1)
	m.GaugeFunc("surfbless_y", "level", func() int64 { return v })
	m.GaugeFunc("surfbless_y", "level", func() int64 { return v * 10 })

	var b strings.Builder
	m.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP surfbless_x_total things",
		"# TYPE surfbless_x_total counter",
		"surfbless_x_total 4",
		"# TYPE surfbless_y gauge",
		"surfbless_y 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("invalid metric name accepted")
		}
	}()
	m.Counter("bad name", "")
}
