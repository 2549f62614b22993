// Package wormhole implements the flit-level virtual-channel router
// engine used by both VC-based comparators of §5:
//
//   - WH — the baseline wormhole network (4-stage pipeline, X-Y DOR,
//     credit-based flow control, Table-1 VC complement), and
//   - Surf — the SurfNoC-style confined-interference network [2],
//     realized by package surf as this engine with per-domain VCs and
//     wave-gated output ports (see Options.WaveGated).
//
// Modelling granularity matches Garnet: packets move flit by flit;
// a head flit performs route computation and VC allocation, every flit
// competes in switch allocation and consumes a credit, and the tail
// flit releases the VC.  The 4-stage router pipeline plus link
// traversal are folded into the hop delay of the flit delay lines
// (Table 1: P = 5 for the VC networks), so a flit that never waits in a
// VC experiences exactly P cycles per hop — which is what lets Surf
// packets "surf" their waves with zero slot-waiting in the steady
// direction.
//
// State layout is structure-of-arrays (DESIGN.md §17): each router
// keeps its VC FIFOs in one flat ring-buffer backing, credits and VC
// ownership in dense arrays indexed by (link dir, VC), and the
// per-cycle scan sets — which VCs hold a routable head, which VCs want
// each output — as bitmasks.  Allocation and switch arbitration then
// walk a handful of mask words per router instead of every VC struct,
// while visiting candidates in exactly the (dir, VC) order of the
// reference implementation, so arbitration outcomes are bit-identical.
//
// Links are two slotted link.Banks shared by the whole mesh, one for
// flits and one for returning credits, each slot owned by the router
// that reads it.  A router receives only when its slots' due flags say
// something arrived, and allocates and traverses only while busy —
// holding a flit, an injection worm or a queued packet — so stepping
// costs what the traffic costs, not what the mesh size costs (DESIGN.md
// §17.5).
//
// Stepping optionally shards across an internal/shard worker pool
// (SetShards): receive and allocate/traverse become two barrier-
// separated phases over contiguous node tiles, with meters, lifecycle
// events and global counters accumulated per tile and replayed in tile
// order — results stay bit-identical to serial stepping.
package wormhole

import (
	"fmt"
	"math/bits"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/geom"
	"surfbless/internal/link"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/router"
	"surfbless/internal/shard"
	"surfbless/internal/stats"
	"surfbless/internal/wave"
)

// VCSpec describes one virtual channel of every input port.
type VCSpec struct {
	Depth int // buffer depth in flits
	Group int // match key (VNet or domain); -1 admits any packet
}

// Key selects what packet field VC groups and NI queues match against.
type Key int

// Matching policies.
const (
	KeyNone   Key = iota // any packet may use any VC (synthetic WH)
	KeyVNet              // VC group must equal the packet's virtual network (protocol WH)
	KeyDomain            // VC group must equal the packet's domain (Surf)
)

// Options configures one engine instance.
type Options struct {
	Cfg config.Config
	VCs []VCSpec // the VC complement of every non-local input port
	Key Key

	// WaveGated enables Surf's TDM: a flit may cross output port o at
	// cycle T only when the wave owning o at T decodes to the flit's
	// domain.  Requires Sched and Dec.
	WaveGated bool
	Sched     *wave.Schedule
	Dec       *wave.Decoder
}

// SharedVCs returns the Table-1 VC complement with every VC open to
// every packet (the synthetic-traffic WH configuration).
func SharedVCs(cfg config.Config) []VCSpec {
	return vcComplement(cfg, -1, -1)
}

// VNetVCs returns the Table-1 complement with control VCs bound to the
// control virtual networks and data VCs to the data virtual networks
// (vnet 0 … ctrl first, then data), the protocol WH configuration.
func VNetVCs(cfg config.Config) []VCSpec {
	var specs []VCSpec
	g := 0
	for i := 0; i < cfg.CtrlVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.CtrlVCDepth, Group: g})
		g++
	}
	for i := 0; i < cfg.DataVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.DataVCDepth, Group: g})
		g++
	}
	return specs
}

// DomainVCs replicates the configured VC complement once per domain,
// binding each copy to its domain — Surf's buffer organization, whose
// 5-ports-×-D-domains growth is the static-energy story of Fig. 6.
func DomainVCs(cfg config.Config) []VCSpec {
	var specs []VCSpec
	for d := 0; d < cfg.Domains; d++ {
		specs = append(specs, vcComplement(cfg, d, d)...)
	}
	return specs
}

func vcComplement(cfg config.Config, ctrlGroup, dataGroup int) []VCSpec {
	var specs []VCSpec
	for i := 0; i < cfg.CtrlVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.CtrlVCDepth, Group: ctrlGroup})
	}
	for i := 0; i < cfg.DataVCsPerPort; i++ {
		specs = append(specs, VCSpec{Depth: cfg.DataVCDepth, Group: dataGroup})
	}
	return specs
}

type flitMsg struct {
	f  packet.Flit
	vc int
}

type creditMsg struct {
	vc int
}

type injState struct {
	active bool
	outDir geom.Dir
	outVC  int
	sent   int
}

// node is one router.  All per-VC state lives in flat arrays indexed
// pv = dir·V + vc over the four link dirs (Local has no input VCs):
//
//	fifo     one ring-buffer backing for all input VC FIFOs; the FIFO
//	         of (d, v) occupies fifo[d·sumDepth+off[v] : … + depth[v]]
//	         with head/cnt cursors in head[pv]/cnt[pv]
//	outVC    downstream VC granted to the worm holding input VC pv
//	credits  free downstream buffer slots, indexed outDir·V + vc
//	owner    downstream VC holder (nil = allocatable), same index
//
// The scan sets are bitmasks with one bit per input VC, laid out
// dir-major ((V+63)/64 words per dir, ascending word order = ascending
// (dir, VC) order): act marks VCs held by a routed worm, occ marks
// non-empty FIFOs, and want has one block per output dir marking the
// active VCs routed to it.  occ &^ act is exactly the allocation scan;
// want[o] & occ is exactly output o's switch-allocation candidates.
type node struct {
	c  geom.Coord
	id int
	ni *router.NI

	// busy marks a router that may have work: a buffered flit, an
	// active injection worm or a queued NI packet.  Inject and flit
	// arrivals set it, and the router's own allocate/traverse pass
	// recomputes it; routers without it skip that pass, which would
	// find nothing to do.
	busy bool

	inj       []injState
	injActive int // live injState count; skips the arbitration fallback scan

	// routed[o] counts the worms — input VCs and injection worms —
	// routed to output o; switch traversal arbitrates only outputs with
	// one.  Route computation increments it and the tail's grant
	// decrements it.
	routed [geom.NumDirs]int32

	// out[d] is the flit-bank slot of the downstream input port that
	// output d feeds, -1 on a border; up[d] is the lane-0 credit-bank
	// slot of the upstream output that feeds input port d.
	out, up [geom.NumLinkDirs]int32

	fifo    []packet.Flit
	head    []int32
	cnt     []int32
	outVC   []int32
	credits []int32
	owner   []*packet.Packet

	act  []uint64
	occ  []uint64
	want []uint64 // geom.NumDirs blocks of wper words

	// Bandwidth-lane consumption, stamped with the cycle instead of
	// cleared: lane l of port d is used this cycle iff
	// inUsed[d·lanes+l] == now, so no per-cycle reset loop runs.
	inUsed  []int64 // [port·lanes+lane]: input bandwidth consumed
	injUsed []int64 // [lane]: injection bandwidth consumed
}

// lifeEvt is one deferred packet lifecycle event (sharded stepping):
// the collector call and sink hand-off a worker recorded for replay at
// the cycle barrier, in tile order — the serial call order.
type lifeEvt struct {
	node  int32
	eject bool
	p     *packet.Packet
}

// tileFX is one stepping context: per-cycle scratch plus the effect
// channel.  Serial stepping uses the engine's single direct context,
// which applies meter/collector/counter effects inline; each shard
// tile owns a deferred context that accumulates them for replay at the
// barrier.  Deferral is exact: the meter is five linear counters, the
// collector consumes packet stamps set before the event is recorded,
// and replay preserves the serial (node-ascending) call order.
type tileFX struct {
	direct bool

	// deferred effect accumulators (unused when direct)
	bufW, bufR, xbar, alloc, lnk int64
	flitsIn, flitsOut            int64
	inFlight                     int
	evts                         []lifeEvt

	// per-cycle scratch, engine/tile-owned and reused across cycles
	// (DESIGN.md §12)
	reqs    []request
	domReqs [][]request // per-domain ejection candidates (lanes > 1 only)
	domList []int       // domains present this arbitration, in arrival order
}

// Engine is a mesh of VC routers.  It implements network.Fabric.
type Engine struct {
	opt   Options
	mesh  geom.Mesh
	nodes []*node
	sink  network.Sink
	col   *stats.Collector
	meter *power.Meter
	probe *probe.Probe // nil = no spatial observation

	faults *fault.Injector // nil = fault-free (hot path untouched)

	// Every directed link's flit channel and credit channels, in two
	// banks whose slots are grouped by receiving router: flits at slot
	// id·4 + input port, credits at (id·4 + output)·lanes + lane.  One
	// grant per output per cycle fills a flit slot at most once, and
	// an input port forwards at most one flit per lane per cycle, so a
	// credit slot too takes at most one item per cycle.
	flitLinks   *link.Bank[flitMsg]
	creditLinks *link.Bank[creditMsg]

	lanes    int // input-port bandwidth lanes (1, or #domains when wave-gated)
	inFlight int
	flitsIn  int64 // flits injected into the network
	flitsOut int64 // flits ejected
	lastStep int64

	// SoA geometry shared by every node.
	nvc      int     // V: VCs per input port
	words    int     // mask words per dir, (V+63)/64
	wper     int     // mask words per scan set, NumLinkDirs·words
	sumDepth int     // flit slots per input port
	depth    []int32 // per-VC ring capacity
	vcOff    []int   // per-VC slot offset within a port's backing

	fx0 tileFX // serial stepping context (direct effects)

	// Sharded stepping (nil pool = serial).
	pool   *shard.Pool
	tiles  int
	fxs    []tileFX
	shNow  int64
	recvFn func(int)
	moveFn func(int)
}

// New builds the engine.  The caller provides the VC layout and gating;
// use package surf for the Surf configuration or SharedVCs/VNetVCs here
// for WH.
func New(opt Options, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Engine, error) {
	cfg := opt.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.WH && cfg.Model != config.Surf {
		return nil, fmt.Errorf("wormhole: config model is %v", cfg.Model)
	}
	if col == nil || meter == nil {
		return nil, fmt.Errorf("wormhole: collector and meter are required")
	}
	if len(opt.VCs) == 0 {
		return nil, fmt.Errorf("wormhole: no VCs specified")
	}
	for i, s := range opt.VCs {
		if s.Depth < 1 {
			return nil, fmt.Errorf("wormhole: VC %d depth %d", i, s.Depth)
		}
	}
	if opt.WaveGated && (opt.Sched == nil || opt.Dec == nil) {
		return nil, fmt.Errorf("wormhole: wave gating requires a schedule and decoder")
	}

	e := &Engine{opt: opt, mesh: cfg.Mesh(), sink: sink, col: col, meter: meter, lanes: 1, lastStep: -1}
	e.fx0.direct = true
	if opt.WaveGated {
		// Per-domain input bandwidth removes cross-domain contention at
		// input ports; output TDM already bounds aggregate switch use.
		// See DESIGN.md §2 (modelling conventions for Surf).
		e.lanes = cfg.Domains
	}
	if e.lanes > 1 {
		e.fx0.domReqs = make([][]request, cfg.Domains)
	}
	e.nvc = len(opt.VCs)
	e.words = (e.nvc + 63) / 64
	e.wper = geom.NumLinkDirs * e.words
	e.depth = make([]int32, e.nvc)
	e.vcOff = make([]int, e.nvc)
	for v, s := range opt.VCs {
		e.depth[v] = int32(s.Depth)
		e.vcOff[v] = e.sumDepth
		e.sumDepth += s.Depth
	}
	e.nodes = make([]*node, e.mesh.Nodes())
	for id := range e.nodes {
		n := &node{
			c:       e.mesh.CoordOf(id),
			id:      id,
			ni:      router.NewNI(cfg.Domains, cfg.InjectionQueueCap),
			inj:     make([]injState, cfg.Domains),
			fifo:    make([]packet.Flit, geom.NumLinkDirs*e.sumDepth),
			head:    make([]int32, geom.NumLinkDirs*e.nvc),
			cnt:     make([]int32, geom.NumLinkDirs*e.nvc),
			outVC:   make([]int32, geom.NumLinkDirs*e.nvc),
			credits: make([]int32, geom.NumLinkDirs*e.nvc),
			owner:   make([]*packet.Packet, geom.NumLinkDirs*e.nvc),
			act:     make([]uint64, e.wper),
			occ:     make([]uint64, e.wper),
			want:    make([]uint64, geom.NumDirs*e.wper),
		}
		n.inUsed = make([]int64, geom.NumDirs*e.lanes)
		n.injUsed = make([]int64, e.lanes)
		for i := range n.inUsed {
			n.inUsed[i] = -1 // cycle 0 must not read as "used"
		}
		for i := range n.injUsed {
			n.injUsed[i] = -1
		}
		e.nodes[id] = n
	}
	// Wire every output to its downstream input port's flit slot and
	// every input port to its upstream output's credit slots, and
	// initialize per-output credit state mirroring the downstream VC
	// layout.
	e.flitLinks = link.NewBank[flitMsg](len(e.nodes)*geom.NumLinkDirs, cfg.HopDelay())
	e.creditLinks = link.NewBank[creditMsg](len(e.nodes)*geom.NumLinkDirs*e.lanes, 1)
	for _, n := range e.nodes {
		for _, d := range geom.LinkDirs {
			n.out[d], n.up[d] = -1, -1
			if !e.mesh.HasNeighbor(n.c, d) {
				continue
			}
			peer := e.mesh.ID(n.c.Add(d))
			n.out[d] = int32(peer*geom.NumLinkDirs + int(d.Opposite()))
			n.up[d] = int32((peer*geom.NumLinkDirs + int(d.Opposite())) * e.lanes)
			for v, s := range opt.VCs {
				n.credits[int(d)*e.nvc+v] = int32(s.Depth)
			}
		}
	}
	return e, nil
}

// SetProbe attaches a hot-path observer recording per-router and
// per-link flit traversals (nil to remove).  VC routers never deflect,
// so the probe's deflection heatmap stays zero for WH and Surf.
func (e *Engine) SetProbe(p *probe.Probe) { e.probe = p }

// SetFaults arms a fault injector (nil to disarm).  A buffered
// credit-flow network cannot lose flits, so faults manifest as
// blocking, not drops: a frozen router holds its buffers and grants
// nothing (credit starvation then stalls its neighbors), and a down
// link simply wins no switch allocation.  Packet-drop (corruption)
// events are not modeled for WH/Surf — retransmitting part of a worm
// would need an end-to-end protocol the paper's comparators don't
// have; a permanent fault on a used route therefore wedges the network
// by design, which the sim-level watchdog converts into a
// DegradedError.  While an injector is armed, stepping stays serial
// even if shards are configured (freeze/link-down checks are ordered
// against the serial node walk).
func (e *Engine) SetFaults(inj *fault.Injector) { e.faults = inj }

// SetShards partitions stepping across n contiguous node tiles driven
// by a persistent worker pool (n ≤ 1 restores serial stepping).
// Results are bit-identical to serial stepping — see DESIGN.md §17 for
// the two-phase boundary-exchange argument.  Call StopShards (sim.Run
// does) to release the pool's goroutines.
func (e *Engine) SetShards(n int) error {
	if n > len(e.nodes) {
		n = len(e.nodes)
	}
	e.StopShards()
	if n <= 1 {
		return nil
	}
	e.tiles = n
	e.fxs = make([]tileFX, n)
	if e.lanes > 1 {
		for i := range e.fxs {
			e.fxs[i].domReqs = make([][]request, e.opt.Cfg.Domains)
		}
	}
	e.pool = shard.NewPool(n)
	e.recvFn = e.recvTile
	e.moveFn = e.moveTile
	return nil
}

// StopShards releases the sharding worker pool and returns the engine
// to serial stepping.
func (e *Engine) StopShards() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
	e.tiles = 0
	e.fxs = nil
	e.recvFn, e.moveFn = nil, nil
}

// key returns the packet field VC groups match against.
func (e *Engine) key(p *packet.Packet) int {
	switch e.opt.Key {
	case KeyVNet:
		return p.VNet
	case KeyDomain:
		return p.Domain
	default:
		return -1
	}
}

func (e *Engine) vcAdmits(spec VCSpec, p *packet.Packet) bool {
	return spec.Group < 0 || e.opt.Key == KeyNone || spec.Group == e.key(p)
}

// gate reports whether a flit of p may cross output o of router c at
// cycle now (always true unless wave-gated).  The Local (ejection)
// port is never gated: the NI's per-domain sinks are not a shared mesh
// resource, and arbitrateOutput gives Local one grant lane per domain,
// so ungated ejection cannot couple domains.
func (e *Engine) gate(c geom.Coord, o geom.Dir, p *packet.Packet, now int64) bool {
	if !e.opt.WaveGated || o == geom.Local {
		return true
	}
	w := e.opt.Sched.OutputWave(c, o, now)
	return e.opt.Dec.Domain(w) == p.Domain
}

// lane returns the input-bandwidth lane a packet uses at an input port.
func (e *Engine) lane(p *packet.Packet) int {
	if e.lanes == 1 {
		return 0
	}
	return p.Domain
}

// Inject offers p to the node's NI.
func (e *Engine) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Domain < 0 || p.Domain >= e.opt.Cfg.Domains {
		panic(fmt.Sprintf("wormhole: %v has domain outside [0,%d)", p, e.opt.Cfg.Domains))
	}
	if e.opt.Key == KeyVNet && p.VNet < 0 {
		panic(fmt.Sprintf("wormhole: %v has no virtual network in KeyVNet mode", p))
	}
	n := e.nodes[nodeID]
	if !n.ni.Offer(p) {
		e.col.Refused(p.Domain, now)
		return false
	}
	e.col.Created(p)
	e.meter.BufferWrite(p.Size)
	e.inFlight++
	n.busy = true
	return true
}

// Step advances the network by one cycle.
func (e *Engine) Step(now int64) {
	if now <= e.lastStep {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("wormhole: Step(%d) after Step(%d)", now, e.lastStep))
	}
	e.lastStep = now
	e.flitLinks.Advance(now)
	e.creditLinks.Advance(now)
	if e.pool != nil && e.faults == nil {
		e.stepSharded(now)
		return
	}
	fx := &e.fx0
	for _, n := range e.nodes {
		e.receive(n, now, fx)
	}
	for id, n := range e.nodes {
		// A frozen router still receives (upstream credits bound what can
		// arrive) but allocates and grants nothing until it thaws.
		if !n.busy || e.faults != nil && e.faults.Frozen(id, now) {
			continue
		}
		e.move(n, now, fx)
	}
}

// stepSharded is Step's two-phase tiled schedule: every tile drains
// its inbound bank slots (phase R), barrier, every tile allocates and
// traverses (phase F, sending into its neighbours' slots), barrier,
// then the tiles' deferred effects replay in tile order.  Each bank
// slot has one reader (phase R) and one writer (phase F), and a
// cycle's sends land on a different plane than its receives, so no
// phase observes a same-cycle write and the result is bit-identical to
// the serial walk.
func (e *Engine) stepSharded(now int64) {
	e.shNow = now
	e.pool.Run(e.tiles, e.recvFn)
	e.pool.Run(e.tiles, e.moveFn)
	for t := range e.fxs {
		e.applyFX(&e.fxs[t], now)
	}
	// Drain the probe's per-router ring segments at the barrier, every
	// cycle: workers only ever append to their own tiles' segments, and
	// a cycle adds at most one event per output port — far below the
	// minimum segment capacity — so the flush-on-full path (which folds
	// into shared state) can never run inside a worker.
	if e.probe != nil {
		e.probe.Flush()
	}
}

// recvTile drains one tile's inbound bank slots into router FIFOs.
//
//shard:phase(receive)
func (e *Engine) recvTile(t int) {
	lo, hi := shard.Range(len(e.nodes), e.tiles, t)
	fx := &e.fxs[t]
	for _, n := range e.nodes[lo:hi] {
		e.receive(n, e.shNow, fx)
	}
}

// moveTile allocates, switches, and forwards one tile's routers.
//
//shard:phase(resolve)
func (e *Engine) moveTile(t int) {
	lo, hi := shard.Range(len(e.nodes), e.tiles, t)
	fx := &e.fxs[t]
	for _, n := range e.nodes[lo:hi] {
		if n.busy {
			e.move(n, e.shNow, fx)
		}
	}
}

// move is one busy router's allocate/traverse pass; it leaves busy set
// only if the router still holds work.
func (e *Engine) move(n *node, now int64, fx *tileFX) {
	e.allocate(n, now, fx)
	e.switchTraversal(n, now, fx)
	n.busy = n.injActive > 0 || n.ni.Backlog() > 0 || holdsFlits(n)
}

// holdsFlits reports whether any of the router's input FIFOs is
// non-empty.
func holdsFlits(n *node) bool {
	for _, w := range n.occ {
		if w != 0 {
			return true
		}
	}
	return false
}

// applyFX merges one tile's deferred effects: meter counters, global
// flit/packet accounting, then the lifecycle replay (collector calls
// and sink hand-offs in recorded order — tile order equals the serial
// node order, so observers see the exact serial event sequence).
//
//shard:phase(effects)
func (e *Engine) applyFX(fx *tileFX, now int64) {
	e.meter.BufferWrite(int(fx.bufW))
	e.meter.BufferRead(int(fx.bufR))
	e.meter.CrossbarTraversal(int(fx.xbar))
	e.meter.Allocation(int(fx.alloc))
	e.meter.LinkTraversal(int(fx.lnk))
	fx.bufW, fx.bufR, fx.xbar, fx.alloc, fx.lnk = 0, 0, 0, 0, 0
	e.flitsIn += fx.flitsIn
	e.flitsOut += fx.flitsOut
	e.inFlight += fx.inFlight
	fx.flitsIn, fx.flitsOut, fx.inFlight = 0, 0, 0
	for i := range fx.evts {
		ev := &fx.evts[i]
		if ev.eject {
			e.col.Ejected(ev.p)
			if e.sink != nil {
				e.sink(int(ev.node), ev.p, now)
			}
		} else {
			e.col.Injected(ev.p)
		}
	}
	fx.evts = fx.evts[:0]
}

// receive drains the router's credit and flit slots into its state.
// The banks' due flags for the router's slots are contiguous, so a
// router with nothing arriving returns after reading a few bytes.
func (e *Engine) receive(n *node, now int64, fx *tileFX) {
	fb := n.id * geom.NumLinkDirs
	cb := fb * e.lanes
	credits := e.creditLinks.Any(cb, geom.NumLinkDirs*e.lanes)
	flits := e.flitLinks.Any(fb, geom.NumLinkDirs)
	if !credits && !flits {
		return
	}
	for _, d := range geom.LinkDirs {
		for l := 0; credits && l < e.lanes; l++ {
			m, ok := e.creditLinks.Recv(cb+int(d)*e.lanes+l, now)
			if !ok {
				continue
			}
			cr := &n.credits[int(d)*e.nvc+m.vc]
			*cr++
			if *cr > e.depth[m.vc] {
				//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
				panic(fmt.Sprintf("wormhole: credit overflow at %v/%v vc %d", n.c, d, m.vc))
			}
		}
		if !flits {
			continue
		}
		m, ok := e.flitLinks.Recv(fb+int(d), now)
		if !ok {
			continue
		}
		pv := int(d)*e.nvc + m.vc
		dep := e.depth[m.vc]
		if n.cnt[pv] >= dep {
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("wormhole: buffer overflow at %v/%v vc %d", n.c, d, m.vc))
		}
		slot := int(n.head[pv]) + int(n.cnt[pv])
		if slot >= int(dep) {
			slot -= int(dep)
		}
		n.fifo[int(d)*e.sumDepth+e.vcOff[m.vc]+slot] = m.f
		n.cnt[pv]++
		n.occ[int(d)*e.words+m.vc>>6] |= 1 << uint(m.vc&63)
		n.busy = true
		if fx.direct {
			e.meter.BufferWrite(1)
		} else {
			fx.bufW++
		}
	}
}

// vcHead returns the flit at the front of input VC pv.
func (e *Engine) vcHead(n *node, d geom.Dir, v int) packet.Flit {
	pv := int(d)*e.nvc + v
	return n.fifo[int(d)*e.sumDepth+e.vcOff[v]+int(n.head[pv])]
}

// allocate performs route computation and downstream-VC allocation for
// every head flit at the front of an idle VC, and for NI head packets.
// The scan walks occ &^ act — exactly the idle non-empty VCs — in
// ascending (dir, VC) order, matching the reference nested loop.
func (e *Engine) allocate(n *node, now int64, fx *tileFX) {
	for wi := 0; wi < e.wper; wi++ {
		m := n.occ[wi] &^ n.act[wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			d := geom.Dir(wi / e.words)
			v := (wi%e.words)*64 + b
			head := e.vcHead(n, d, v)
			if !head.Head() {
				//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
				panic(fmt.Sprintf("wormhole: body flit of %v at idle VC head (%v/%v vc %d)", head.Pkt, n.c, d, v))
			}
			if o, ovc, ok := e.routeClaim(n, head.Pkt, fx); ok {
				pv := int(d)*e.nvc + v
				bit := uint64(1) << uint(v&63)
				n.act[wi] |= bit
				n.want[int(o)*e.wper+wi] |= bit
				n.outVC[pv] = int32(ovc)
			}
		}
	}
	for dom := range n.inj {
		st := &n.inj[dom]
		if st.active {
			continue
		}
		p := n.ni.Head(dom)
		if p == nil {
			continue
		}
		st.sent = 0
		if o, ovc, ok := e.routeClaim(n, p, fx); ok {
			st.active, st.outDir, st.outVC = true, o, ovc
			n.injActive++
		}
	}
}

// routeClaim routes p and claims a downstream VC; on success it
// returns the output dir and downstream VC (-1 for Local).
func (e *Engine) routeClaim(n *node, p *packet.Packet, fx *tileFX) (geom.Dir, int, bool) {
	d := geom.XYFirst(n.c, p.Dst)
	if d == geom.Local {
		if fx.direct {
			e.meter.Allocation(1)
		} else {
			fx.alloc++
		}
		n.routed[geom.Local]++
		return geom.Local, -1, true
	}
	if n.out[d] < 0 {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("wormhole: X-Y route of %v leaves the mesh at %v", p, n.c))
	}
	// Prefer a VC deep enough to hold the whole packet — parking a
	// 5-flit worm in a 1-flit control VC would throttle it to one flit
	// per credit round-trip.  Fall back to any admitting VC.
	base := int(d) * e.nvc
	pick := -1
	for v, s := range e.opt.VCs {
		if n.owner[base+v] != nil || !e.vcAdmits(s, p) {
			continue
		}
		if s.Depth >= p.Size {
			pick = v
			break
		}
		if pick < 0 {
			pick = v
		}
	}
	if pick < 0 {
		return 0, 0, false
	}
	n.owner[base+pick] = p
	n.routed[d]++
	if fx.direct {
		e.meter.Allocation(1)
	} else {
		fx.alloc++
	}
	return d, pick, true
}

// switchTraversal arbitrates each output port some worm is routed to
// and moves winning flits.  An output no worm is routed to has no
// candidates, and route computation never picks an absent one.
func (e *Engine) switchTraversal(n *node, now int64, fx *tileFX) {
	for _, o := range geom.OutputDirs {
		if n.routed[o] == 0 {
			continue
		}
		// A killed output link wins no allocation: flits wait in their
		// VCs and credit backpressure spreads the stall upstream.
		if o != geom.Local && e.faults != nil && e.faults.LinkDown(n.id, o, now) {
			continue
		}
		e.arbitrateOutput(n, o, now, fx)
	}
}

// request is one switch-allocation candidate.
type request struct {
	fromInj bool
	port    geom.Dir // input port (ignored for injection)
	vc      int      // input VC index (or NI domain for injection)
}

func (e *Engine) arbitrateOutput(n *node, o geom.Dir, now int64, fx *tileFX) {
	reqs := fx.reqs[:0]
	base := int(o) * e.wper
	for wi := 0; wi < e.wper; wi++ {
		m := n.want[base+wi] & n.occ[wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			d := geom.Dir(wi / e.words)
			v := (wi%e.words)*64 + b
			p := e.vcHead(n, d, v).Pkt
			if n.inUsed[int(d)*e.lanes+e.lane(p)] == now || !e.gate(n.c, o, p, now) {
				continue
			}
			if o != geom.Local && n.credits[int(o)*e.nvc+int(n.outVC[int(d)*e.nvc+v])] == 0 {
				continue
			}
			reqs = append(reqs, request{port: d, vc: v})
		}
	}
	// In-network flits outrank injection (injection has the lowest
	// priority); consider NI candidates only when no VC wants o.
	if len(reqs) == 0 && n.injActive > 0 {
		for dom := range n.inj {
			st := &n.inj[dom]
			if !st.active || st.outDir != o {
				continue
			}
			p := n.ni.Head(dom)
			if p == nil {
				//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
				panic(fmt.Sprintf("wormhole: injection state active with empty queue (%v dom %d)", n.c, dom))
			}
			if n.injUsed[e.lane(p)] == now || !e.gate(n.c, o, p, now) {
				continue
			}
			if o != geom.Local && n.credits[int(o)*e.nvc+st.outVC] == 0 {
				continue
			}
			reqs = append(reqs, request{fromInj: true, vc: dom})
		}
	}
	fx.reqs = reqs // hand the (possibly grown) scratch back to the context
	if len(reqs) == 0 {
		return
	}
	if o == geom.Local && e.lanes > 1 {
		// Ungated ejection with one grant lane per domain: pick at most
		// one flit per domain, rotating within each domain's candidates
		// so the choice never depends on other domains' presence.  The
		// per-domain buckets are pre-sized scratch (a map here would
		// allocate on every ejection-contended cycle).
		doms := fx.domList[:0]
		for _, r := range reqs {
			d := e.reqPacket(n, r).Domain
			if len(fx.domReqs[d]) == 0 {
				doms = append(doms, d)
			}
			fx.domReqs[d] = append(fx.domReqs[d], r)
		}
		fx.domList = doms
		for _, d := range doms {
			cand := fx.domReqs[d]
			e.grant(n, o, cand[int(now%int64(len(cand)))], now, fx)
			fx.domReqs[d] = cand[:0]
		}
		return
	}
	// One grant per output per cycle, rotating priority for fairness.
	// Under wave gating all candidates belong to the wave's one domain,
	// so the shared rotation cannot couple domains.
	e.grant(n, o, reqs[int(now%int64(len(reqs)))], now, fx)
}

// reqPacket returns the packet a request would move.
func (e *Engine) reqPacket(n *node, r request) *packet.Packet {
	if r.fromInj {
		return n.ni.Head(r.vc)
	}
	return e.vcHead(n, r.port, r.vc).Pkt
}

// grant moves one flit of request r through output o.
func (e *Engine) grant(n *node, o geom.Dir, r request, now int64, fx *tileFX) {
	var f packet.Flit
	var outVC int
	if r.fromInj {
		st := &n.inj[r.vc]
		p := n.ni.Head(r.vc)
		f = packet.Flit{Pkt: p, Seq: st.sent}
		outVC = st.outVC
		if f.Head() {
			p.InjectedAt = now
			if fx.direct {
				e.col.Injected(p)
			} else {
				fx.evts = append(fx.evts, lifeEvt{node: int32(n.id), p: p})
			}
		}
		st.sent++
		if fx.direct {
			e.meter.BufferRead(1)
			e.flitsIn++
		} else {
			fx.bufR++
			fx.flitsIn++
		}
		n.injUsed[e.lane(p)] = now
		if f.Tail() {
			n.ni.Pop(r.vc)
			st.active = false
			n.injActive--
		}
	} else {
		pv := int(r.port)*e.nvc + r.vc
		dep := e.depth[r.vc]
		slot := int(r.port)*e.sumDepth + e.vcOff[r.vc] + int(n.head[pv])
		f = n.fifo[slot]
		outVC = int(n.outVC[pv])
		n.fifo[slot] = packet.Flit{} // unpin the forwarded flit's packet
		h := n.head[pv] + 1
		if h == dep {
			h = 0
		}
		n.head[pv] = h
		n.cnt[pv]--
		wi := int(r.port)*e.words + r.vc>>6
		bit := uint64(1) << uint(r.vc&63)
		if n.cnt[pv] == 0 {
			n.occ[wi] &^= bit
		}
		if fx.direct {
			e.meter.BufferRead(1)
		} else {
			fx.bufR++
		}
		e.creditLinks.Send(int(n.up[r.port])+e.lane(f.Pkt), creditMsg{vc: r.vc}, now)
		n.inUsed[int(r.port)*e.lanes+e.lane(f.Pkt)] = now
		if f.Tail() {
			n.act[wi] &^= bit
			n.want[int(o)*e.wper+wi] &^= bit
		}
	}
	if fx.direct {
		e.meter.CrossbarTraversal(1)
	} else {
		fx.xbar++
	}
	if f.Tail() {
		n.routed[o]--
	}

	if o == geom.Local {
		if fx.direct {
			e.flitsOut++
		} else {
			fx.flitsOut++
		}
		if f.Tail() {
			p := f.Pkt
			p.EjectedAt = now
			p.Hops = e.mesh.Hops(p.Src, p.Dst)
			if fx.direct {
				e.col.Ejected(p)
				e.inFlight--
				if e.sink != nil {
					e.sink(n.id, p, now)
				}
			} else {
				fx.inFlight--
				fx.evts = append(fx.evts, lifeEvt{node: int32(n.id), eject: true, p: p})
			}
		}
		return
	}

	n.credits[int(o)*e.nvc+outVC]--
	if fx.direct {
		e.meter.LinkTraversal(1)
	} else {
		fx.lnk++
	}
	if e.probe != nil {
		e.probe.Traverse(n.id, o, f.Pkt, 1, false, now)
	}
	e.flitLinks.Send(int(n.out[o]), flitMsg{f: f, vc: outVC}, now)
	if f.Tail() {
		n.owner[int(o)*e.nvc+outVC] = nil
	}
}

// InFlight returns accepted-but-undelivered packets.
func (e *Engine) InFlight() int { return e.inFlight }

// Audit verifies flit conservation — flits buffered in VCs plus flits
// on links must equal flits injected minus flits ejected, and NI queues
// cannot outnumber the packets in flight — and the invariants that let
// stepping skip work: a router not marked busy holds no flit, injection
// worm or queued packet, and each output's routed count matches the
// worms routed to it.
func (e *Engine) Audit() error {
	buffered := int64(e.flitLinks.InFlight())
	for _, n := range e.nodes {
		for _, c := range n.cnt {
			buffered += int64(c)
		}
		if !n.busy && (holdsFlits(n) || n.injActive > 0 || n.ni.Backlog() > 0) {
			return fmt.Errorf("wormhole: router %v is not marked busy but holds work (flits %v, injection worms %d, queued %d)",
				n.c, holdsFlits(n), n.injActive, n.ni.Backlog())
		}
		for _, o := range geom.OutputDirs {
			worms := 0
			for _, w := range n.want[int(o)*e.wper : int(o+1)*e.wper] {
				worms += bits.OnesCount64(w)
			}
			for i := range n.inj {
				if n.inj[i].active && n.inj[i].outDir == o {
					worms++
				}
			}
			if int(n.routed[o]) != worms {
				return fmt.Errorf("wormhole: router %v output %v counts %d routed worms, holds %d", n.c, o, n.routed[o], worms)
			}
		}
	}
	if got := e.flitsIn - e.flitsOut; got != buffered {
		return fmt.Errorf("wormhole: %d flits in network, %d buffered+in-flight", got, buffered)
	}
	// Packet-level: every in-flight packet is either still (partially)
	// in an NI queue or fully inside the network awaiting ejection.
	queued := 0
	for _, n := range e.nodes {
		queued += n.ni.Backlog()
	}
	if queued > e.inFlight {
		return fmt.Errorf("wormhole: %d packets queued exceeds %d in flight", queued, e.inFlight)
	}
	return nil
}

var _ network.Fabric = (*Engine)(nil)
