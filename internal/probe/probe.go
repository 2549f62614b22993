// Package probe is the simulator's low-overhead observability layer:
// it turns a run's packet-lifecycle and router hot-path events into
// (a) per-interval time series — injections, ejections, refusals,
// deflections, drops, retransmissions, in-flight occupancy and mean
// latency per domain, bucketed every Every cycles — and (b) spatial
// heatmaps — per-router flit traversals, deflections and ejections
// plus per-link flit counts accumulated over the run.
//
// Measurement discipline matches package stats exactly: only packets
// created inside [WarmupEnd, MeasureEnd) contribute, so the probe's
// totals reconcile with the collector's stats.Domain aggregates (to
// the packet, once the network has fully drained).  Events are
// bucketed by the cycle they happen at, which may fall after
// MeasureEnd for in-window packets that eject during the drain phase.
//
// Hot-path architecture (DESIGN.md §15): hooks count in place.  The
// lifecycle hooks (serial: the collector calls them) add straight into
// the interval series, whose current bucket is cached so counting
// costs a window compare and an indexed add.  Traverse, which tile
// workers of sharded fabrics call concurrently, adds into its own
// router's accumulator and parks an in-window deflection on that
// router's pending list; Flush moves the pending deflections into
// their buckets.  Events exist only for Taps (flight recorder,
// Perfetto span export): while a tap is attached every hook also
// appends one fixed-size Event into a preallocated ring segment —
// per-router segments for router events, one driver segment for the
// lifecycle stream — and drained batches fan out to the taps.  No
// hook allocates, chases a pointer or dispatches through an interface.
//
// Overhead: a disarmed (nil) *Probe is safe to call and costs one
// branch — fabrics guard their hot-path hooks with a nil check, and
// every method returns immediately on a nil receiver — so probe-off
// runs pay nothing measurable.  Probe-on runs are gated to ≤1.10×
// the unprobed Step time on SB/WH/Surf (`make probe-overhead`).
// Like the fabrics, a Probe is a single-goroutine state machine: do
// not share one across concurrent runs.
package probe

import (
	"math"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

// DefaultEvery is the interval width used when a caller arms a probe
// without choosing one.
const DefaultEvery = 100

// Tap-ring sizing: each router gets a segment of ringBudget/nodes
// events (clamped to [minSegCap, maxSegCap]); the driver lifecycle
// stream, which multiplexes every NI and the per-cycle occupancy
// samples, gets driverSegCap.  A full segment hands its batch to the
// taps early, so no event is lost.
const (
	ringBudget   = 1 << 14
	minSegCap    = 64
	maxSegCap    = 1024
	driverSegCap = 4096
)

// pendCap is each router's pending-deflection capacity.  A full list
// is bucketed early (exactness never depends on it); fabrics stepping
// tiles in parallel Flush every cycle, and a router deflects at most
// one packet per out-link per cycle, so a tile worker never fills one.
const pendCap = 32

// drainStride paces drains: Tick flushes every min(Every, drainStride)
// cycles.  Draining more often than the bucket width costs nothing in
// exactness (every deflection is bucketed by its own cycle) but keeps
// the pending lists and tap batches small enough to stay
// cache-resident between write and re-read.
const drainStride = 32

// Config arms a probe for one run.
type Config struct {
	Mesh    geom.Mesh
	Domains int
	// Every is the time-series bucket width in cycles (≤0 = DefaultEvery).
	Every int64
	// WarmupEnd / MeasureEnd bound the measurement window, exactly as in
	// stats.NewCollector.  MeasureEnd == 0 means "no upper bound".
	WarmupEnd  int64
	MeasureEnd int64
}

// DomainSlice is one domain's counters over one time-series interval.
type DomainSlice struct {
	Created     int64 // in-window packets accepted by an NI this interval
	Refused     int64 // offers rejected by a full NI queue
	Injected    int64 // in-window packets entering the network
	Ejected     int64 // in-window packets delivered
	Deflections int64 // unproductive hops suffered by in-window packets
	Dropped     int64 // in-window packets discarded by the fault machinery
	Retransmits int64 // source retransmission attempts this interval
	LatencySum  int64 // total (creation→ejection) latency of the interval's ejections
	InFlight    int64 // domain occupancy at the interval's last sampled cycle
}

// MeanLatency returns the interval's average total packet latency, or
// 0 when nothing was delivered in it.
func (s DomainSlice) MeanLatency() float64 {
	if s.Ejected == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Ejected)
}

// Interval is one closed time-series bucket.
type Interval struct {
	Start int64 // first cycle of the bucket
	End   int64 // one past the last observed cycle (Start+Every, except a trailing partial bucket)
	// NetInFlight is the fabric's total occupancy (queued + in network)
	// at the interval's last sampled cycle.
	NetInFlight int64
	Domains     []DomainSlice
}

// Heatmap is the spatial view of one run: per-router and per-out-link
// counters indexed by mesh node ID (and geom direction for links).
type Heatmap struct {
	Mesh              geom.Mesh
	RouterFlits       []int64                   // flits forwarded through each router
	RouterDeflections []int64                   // deflections suffered at each router
	RouterEjections   []int64                   // packets delivered at each router
	LinkFlits         [][geom.NumLinkDirs]int64 // flits sent on each out-link
	Cycles            int64                     // observed cycles, for utilization
}

// Utilization returns the flits-per-cycle utilization of node's
// out-link in direction d over the observed cycles.
func (h Heatmap) Utilization(node int, d geom.Dir) float64 {
	if h.Cycles == 0 {
		return 0
	}
	return float64(h.LinkFlits[node][d]) / float64(h.Cycles)
}

// segment is one preallocated tap-ring region.  buf never grows after
// the first AttachTap; n is the append cursor, reset by each flush.
type segment struct {
	buf []Event
	n   int
}

// deflection is one in-window deflection awaiting its interval bucket.
type deflection struct {
	cycle  int64
	domain int
}

// router is one router's hot-path accumulator.  Only that router's
// Traverse calls write it, so fabrics that step tiles in parallel may
// call Traverse from their tile workers.
type router struct {
	links [geom.NumLinkDirs]int64 // in-window flits sent per out-link
	defl  int64                   // in-window deflections
	last  int64                   // newest cycle a Traverse reported
	pend  []deflection            // in-window deflections not yet bucketed (fixed capacity)
	np    int                     // live prefix of pend
}

// Probe accumulates one run's time series and heatmaps.  The zero
// value is disarmed and ignores every event; call Arm (sim.Run does it
// when Options.Probe is set) before driving a fabric.
//
//hook:nil-disabled
type Probe struct {
	cfg   Config
	armed bool

	routers []router

	// Tap ring, allocated by the first AttachTap: segs[node] for router
	// events, segs[len-1] for the driver lifecycle/tick stream.  Empty
	// while no tap is attached — nothing then records events.
	segs      []segment
	taps      []Tap
	nextDrain int64
	stride    int64 // drain pacing, min(Every, drainStride)

	// Series accumulation.  The series is flat —
	// dom[bucket*Domains+d] — so counting an event costs one indexed
	// store, never a per-bucket pointer chase.
	dom  []DomainSlice
	net  []int64 // per-bucket NetInFlight
	occ  []int64 // per-domain live occupancy (created − ejected − dropped, unwindowed)
	last int64   // last cycle observed by any lifecycle or tick event

	// Fast paths.  [winLo, winHi) is the measurement window with an
	// unbounded end as MaxInt64; [curLo, curHi) is the bucket the last
	// count touched and curIdx its series index, so consecutive events
	// of one bucket skip bucketIdx's division.
	winLo, winHi int64
	curLo, curHi int64
	curIdx       int

	routerEjections []int64 // in-window ejections per destination router
}

// Armed reports whether the probe has been armed for a run.
func (pr *Probe) Armed() bool { return pr != nil && pr.armed }

// Arm resets the probe and configures it for one run.  Re-arming
// discards all previously recorded data and detaches any taps.
func (pr *Probe) Arm(cfg Config) {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	nodes := cfg.Mesh.Nodes()
	pr.cfg = cfg
	pr.armed = true
	pr.routers = make([]router, nodes)
	pend := make([]deflection, nodes*pendCap)
	for i := range pr.routers {
		pr.routers[i].last = -1
		pr.routers[i].pend = pend[i*pendCap : (i+1)*pendCap : (i+1)*pendCap]
	}
	pr.segs = nil
	pr.taps = nil
	pr.stride = cfg.Every
	if pr.stride > drainStride {
		pr.stride = drainStride
	}
	pr.nextDrain = pr.stride

	// Preallocate the series for the bounded part of the run so that
	// steady-state probed stepping stays allocation-free; drain-phase
	// buckets past MeasureEnd (and unbounded runs) grow amortized.
	nb := 64
	if cfg.MeasureEnd > 0 {
		if nb = int(cfg.MeasureEnd/cfg.Every) + 8; nb > 1<<16 {
			nb = 1 << 16
		}
	}
	pr.dom = make([]DomainSlice, 0, nb*cfg.Domains)
	pr.net = make([]int64, 0, nb)
	pr.occ = make([]int64, cfg.Domains)
	pr.last = -1
	pr.winLo, pr.winHi = cfg.WarmupEnd, cfg.MeasureEnd
	if cfg.MeasureEnd == 0 {
		pr.winHi = math.MaxInt64
	}
	pr.curLo, pr.curHi, pr.curIdx = 0, -1, 0
	pr.routerEjections = make([]int64, nodes)
}

// AttachTap subscribes t to drained event batches (flight recorder,
// span exporters).  Taps attach after Arm and see the events recorded
// from then on; Arm detaches them.  The first tap allocates the ring.
func (pr *Probe) AttachTap(t Tap) {
	if pr.armed && pr.segs == nil {
		pr.allocRing()
	}
	pr.taps = append(pr.taps, t)
}

// allocRing builds the tap ring: one segment per router of
// ringBudget/nodes events (clamped to [minSegCap, maxSegCap]) plus the
// driver segment.
func (pr *Probe) allocRing() {
	nodes := len(pr.routers)
	segCap := ringBudget / nodes
	if segCap < minSegCap {
		segCap = minSegCap
	}
	if segCap > maxSegCap {
		segCap = maxSegCap
	}
	pr.segs = make([]segment, nodes+1)
	for i := 0; i < nodes; i++ {
		pr.segs[i].buf = make([]Event, segCap)
		// Router segments only ever hold Traverse events of router i,
		// whose Src/Dst are always "not recorded": pin Node, Src and
		// Dst once so the hot-path append never writes them.
		for j := range pr.segs[i].buf {
			pr.segs[i].buf[j].Node = int32(i)
			pr.segs[i].buf[j].Src = -1
			pr.segs[i].buf[j].Dst = -1
		}
	}
	pr.segs[nodes].buf = make([]Event, driverSegCap)
}

// inWindow mirrors stats.Collector.InWindow.
func (pr *Probe) inWindow(createdAt int64) bool {
	return createdAt >= pr.winLo && createdAt < pr.winHi
}

// bucketIdx returns the series index of cycle's bucket, growing the
// flat series as the run advances (amortized; pre-sized by Arm for
// the measured span).
func (pr *Probe) bucketIdx(cycle int64) int {
	if cycle >= pr.curLo && cycle < pr.curHi {
		return pr.curIdx
	}
	idx := int(cycle / pr.cfg.Every)
	for len(pr.net) <= idx {
		pr.net = append(pr.net, 0)
		for d := 0; d < pr.cfg.Domains; d++ {
			pr.dom = append(pr.dom, DomainSlice{})
		}
	}
	pr.curLo = int64(idx) * pr.cfg.Every
	pr.curHi = pr.curLo + pr.cfg.Every
	pr.curIdx = idx
	return idx
}

// slot returns the series cell for domain d in cycle's bucket.
func (pr *Probe) slot(cycle int64, d int) *DomainSlice {
	return &pr.dom[pr.bucketIdx(cycle)*pr.cfg.Domains+d]
}

// see advances the newest observed cycle.
func (pr *Probe) see(cycle int64) {
	if cycle > pr.last {
		pr.last = cycle
	}
}

// bucketDeflections moves router r's pending deflections into their
// interval buckets.
func (pr *Probe) bucketDeflections(r *router) {
	for _, d := range r.pend[:r.np] {
		pr.slot(d.cycle, d.domain).Deflections++
	}
	r.np = 0
}

// tapBatch hands one tap segment's batch to every tap.
func (pr *Probe) tapBatch(s *segment) {
	if s.n == 0 {
		return
	}
	for _, t := range pr.taps {
		t.Consume(s.buf[:s.n])
	}
	s.n = 0
}

// Flush buckets every router's pending deflections and drains the tap
// ring — router segments in node order, the driver stream last — into
// the taps.  The accessors below call it implicitly; sim.Run calls it
// before taking a flight-recorder snapshot so the dump holds the
// newest events, and fabrics stepping tiles in parallel call it every
// cycle so no router's pending list fills inside a tile worker.
func (pr *Probe) Flush() {
	if pr == nil || !pr.armed {
		return
	}
	for i := range pr.routers {
		if r := &pr.routers[i]; r.np != 0 {
			pr.bucketDeflections(r)
		}
	}
	for i := range pr.segs {
		pr.tapBatch(&pr.segs[i])
	}
}

// record appends one driver-stream packet event at cycle for the taps.
func (pr *Probe) record(kind Kind, p *packet.Packet, cycle int64, node int32) {
	s := &pr.segs[len(pr.segs)-1]
	if s.n == len(s.buf) {
		pr.tapBatch(s)
	}
	e := &s.buf[s.n]
	s.n++
	e.Cycle = cycle
	e.Created = p.CreatedAt
	e.ID = p.ID
	e.Node = node
	e.Src = int32(pr.cfg.Mesh.ID(p.Src))
	e.Dst = int32(pr.cfg.Mesh.ID(p.Dst))
	e.Flits = int32(p.Size)
	e.Domain = int16(p.Domain)
	e.Kind = kind
	e.Dir = 0
}

// recordBare appends one packet-less driver-stream event for the taps.
func (pr *Probe) recordBare(e Event) {
	s := &pr.segs[len(pr.segs)-1]
	if s.n == len(s.buf) {
		pr.tapBatch(s)
	}
	s.buf[s.n] = e
	s.n++
}

// Created records an NI acceptance: domain occupancy for any packet,
// the interval's Created count for an in-window one.  Wired from
// stats.Collector.
func (pr *Probe) Created(p *packet.Packet) {
	if pr == nil || !pr.armed {
		return
	}
	pr.see(p.CreatedAt)
	pr.occ[p.Domain]++
	if pr.inWindow(p.CreatedAt) {
		pr.slot(p.CreatedAt, p.Domain).Created++
	}
	if len(pr.taps) != 0 {
		pr.record(KindCreated, p, p.CreatedAt, -1)
	}
}

// Refused records a rejected offer at cycle now.
func (pr *Probe) Refused(domain int, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	pr.see(now)
	if pr.inWindow(now) {
		pr.slot(now, domain).Refused++
	}
	if len(pr.taps) != 0 {
		pr.recordBare(Event{Cycle: now, Node: -1, Src: -1, Dst: -1, Domain: int16(domain), Kind: KindRefused})
	}
}

// Injected records an in-window packet entering the network.
func (pr *Probe) Injected(p *packet.Packet) {
	if pr == nil || !pr.armed {
		return
	}
	pr.see(p.InjectedAt)
	if pr.inWindow(p.CreatedAt) {
		pr.slot(p.InjectedAt, p.Domain).Injected++
	}
	if len(pr.taps) != 0 {
		pr.record(KindInjected, p, p.InjectedAt, -1)
	}
}

// Ejected records a delivery: the time series entry at the ejection
// cycle and the destination router's heatmap cell.
func (pr *Probe) Ejected(p *packet.Packet) {
	if pr == nil || !pr.armed {
		return
	}
	dst := pr.cfg.Mesh.ID(p.Dst)
	pr.see(p.EjectedAt)
	pr.occ[p.Domain]--
	if pr.inWindow(p.CreatedAt) {
		s := pr.slot(p.EjectedAt, p.Domain)
		s.Ejected++
		s.LatencySum += p.EjectedAt - p.CreatedAt
		pr.routerEjections[dst]++
	}
	if len(pr.taps) != 0 {
		pr.record(KindEjected, p, p.EjectedAt, int32(dst))
	}
}

// Dropped records a packet discarded by the fault machinery after its
// retransmission budget ran out; like an ejection it ends the
// packet's occupancy.
func (pr *Probe) Dropped(p *packet.Packet, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	pr.see(now)
	pr.occ[p.Domain]--
	if pr.inWindow(p.CreatedAt) {
		pr.slot(now, p.Domain).Dropped++
	}
	if len(pr.taps) != 0 {
		pr.record(KindDropped, p, now, -1)
	}
}

// Retransmitted records one source retransmission attempt after a
// fault drop.
func (pr *Probe) Retransmitted(p *packet.Packet, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	pr.see(now)
	if pr.inWindow(now) {
		pr.slot(now, p.Domain).Retransmits++
	}
	if len(pr.taps) != 0 {
		pr.record(KindRetransmit, p, now, -1)
	}
}

// Traverse is the router hot-path hook: flits of p left node through
// out-link dir at cycle now; deflected marks an unproductive hop.
// Packet-granular fabrics call it once per forward with flits =
// p.Size; flit-granular (VC) fabrics once per link flit with flits = 1.
// It writes only node's own accumulator (and, with taps attached,
// node's ring segment); a deflection's interval bucket is counted at
// the next Flush.
func (pr *Probe) Traverse(node int, dir geom.Dir, p *packet.Packet, flits int, deflected bool, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	r := &pr.routers[node]
	if now > r.last {
		r.last = now
	}
	if pr.inWindow(p.CreatedAt) {
		r.links[dir] += int64(flits)
		if deflected {
			r.defl++
			if r.np == len(r.pend) {
				pr.bucketDeflections(r)
			}
			r.pend[r.np] = deflection{cycle: now, domain: p.Domain}
			r.np++
		}
	}
	if len(pr.taps) != 0 {
		pr.recordTraverse(node, dir, p, flits, deflected, now)
	}
}

// recordTraverse appends one traversal event to node's ring segment.
func (pr *Probe) recordTraverse(node int, dir geom.Dir, p *packet.Packet, flits int, deflected bool, now int64) {
	s := &pr.segs[node]
	if s.n == len(s.buf) {
		pr.tapBatch(s)
	}
	e := &s.buf[s.n]
	s.n++
	e.Cycle = now
	e.Created = p.CreatedAt
	e.ID = p.ID
	// Node/Src/Dst stay at the values allocRing pinned.
	e.Flits = int32(flits)
	e.Domain = int16(p.Domain)
	k := KindLinkBusy
	if deflected {
		k = KindDeflect
	}
	e.Kind = k
	e.Dir = uint8(dir)
}

// Tick samples occupancy at the end of cycle now; the driver calls it
// once per cycle after Fabric.Step.  inFlight is the fabric's total
// occupancy (network.Fabric.InFlight).  Tick also paces the drain:
// Flush runs every min(Every, drainStride) cycles.
func (pr *Probe) Tick(now int64, inFlight int) {
	if pr == nil || !pr.armed {
		return
	}
	pr.see(now)
	idx := pr.bucketIdx(now)
	pr.net[idx] = int64(inFlight)
	row := pr.dom[idx*pr.cfg.Domains : (idx+1)*pr.cfg.Domains]
	for d := range row {
		row[d].InFlight = pr.occ[d]
	}
	if len(pr.taps) != 0 {
		pr.recordBare(Event{Cycle: now, Node: -1, Src: -1, Dst: -1, Flits: int32(inFlight), Kind: KindTick})
	}
	if now >= pr.nextDrain {
		pr.Flush()
		pr.nextDrain = now + pr.stride
	}
}

// observedLast returns the newest cycle any hook reported.
func (pr *Probe) observedLast() int64 {
	last := pr.last
	for i := range pr.routers {
		last = max(last, pr.routers[i].last)
	}
	return last
}

// Intervals returns the recorded time series.  The trailing bucket of
// a run whose length is not a multiple of Every is truncated to the
// last observed cycle (End = last+1), so interval widths are exact.
func (pr *Probe) Intervals() []Interval {
	if pr == nil || !pr.armed {
		return nil
	}
	pr.Flush()
	nb := len(pr.net)
	if nb == 0 {
		return nil
	}
	D := pr.cfg.Domains
	out := make([]Interval, nb)
	for i := range out {
		start := int64(i) * pr.cfg.Every
		ds := make([]DomainSlice, D)
		copy(ds, pr.dom[i*D:(i+1)*D])
		out[i] = Interval{Start: start, End: start + pr.cfg.Every, NetInFlight: pr.net[i], Domains: ds}
	}
	if end := pr.observedLast() + 1; end < out[nb-1].End {
		out[nb-1].End = end
	}
	return out
}

// Heatmap returns the spatial counters accumulated so far.  Cycles is
// the utilization denominator: the measurement-window length, or the
// observed post-warm-up span when the window is unbounded.
func (pr *Probe) Heatmap() Heatmap {
	if pr == nil || !pr.armed {
		return Heatmap{}
	}
	pr.Flush()
	n := len(pr.routers)
	h := Heatmap{
		Mesh:              pr.cfg.Mesh,
		RouterFlits:       make([]int64, n),
		RouterDeflections: make([]int64, n),
		RouterEjections:   pr.routerEjections,
		LinkFlits:         make([][geom.NumLinkDirs]int64, n),
	}
	for id := range pr.routers {
		r := &pr.routers[id]
		h.LinkFlits[id] = r.links
		h.RouterFlits[id] = r.links[0] + r.links[1] + r.links[2] + r.links[3]
		h.RouterDeflections[id] = r.defl
	}
	cycles := pr.cfg.MeasureEnd - pr.cfg.WarmupEnd
	if pr.cfg.MeasureEnd == 0 {
		if cycles = pr.observedLast() + 1 - pr.cfg.WarmupEnd; cycles < 0 {
			cycles = 0
		}
	}
	h.Cycles = cycles
	return h
}

// Totals sums the time series per domain — the reconciliation point
// against stats.Domain (exact once LeftInFlight is zero).
func (pr *Probe) Totals() []DomainSlice {
	if pr == nil {
		return nil
	}
	pr.Flush()
	tot := make([]DomainSlice, pr.cfg.Domains)
	D := pr.cfg.Domains
	for i := 0; i+D <= len(pr.dom); i += D {
		for d := 0; d < D; d++ {
			s := &pr.dom[i+d]
			tot[d].Created += s.Created
			tot[d].Refused += s.Refused
			tot[d].Injected += s.Injected
			tot[d].Ejected += s.Ejected
			tot[d].Deflections += s.Deflections
			tot[d].Dropped += s.Dropped
			tot[d].Retransmits += s.Retransmits
			tot[d].LatencySum += s.LatencySum
		}
	}
	return tot
}

// Domains returns the number of domains the probe was armed for.
func (pr *Probe) Domains() int {
	if pr == nil {
		return 0
	}
	return pr.cfg.Domains
}

// Every returns the armed bucket width in cycles.
func (pr *Probe) Every() int64 {
	if pr == nil {
		return 0
	}
	return pr.cfg.Every
}
