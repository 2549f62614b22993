// Package surfbless implements the paper's contribution: Surf-Bless
// routing — confined-interference communication on a bufferless NoC
// (Section 4).
//
// Every router consults three wave schedulers (south-east, north, west;
// package wave) that own its port groups cycle by cycle.  A packet may
// use only ports whose current wave belongs to the packet's domain, and
// injection/ejection happen exclusively on the south-east sub-wave.
// The routing algorithm is the paper's two-step procedure (§4.3):
//
//	Step 1 — old-first arbitration [12] picks the packet order;
//	         injection has the lowest priority.
//	Step 2 — try the X-Y output; if it is not in the packet's domain or
//	         already granted, try Y-X; otherwise deflect to a free
//	         output of the same domain chosen pseudo-randomly.
//
// The wave schedule's port-balance invariant guarantees the deflection
// target exists, so packets never wait inside the network and no
// in-network VCs are needed.  The fabric enforces that invariant with
// always-on assertions: a missing output or a packet arriving on a
// foreign domain's wave panics, because it would falsify the paper's
// central claim.
//
// Multi-flit packets (§5.2) travel as worms pinned to aligned windows
// of consecutive same-domain waves: a worm of L flits may start only
// where the decoder reports CanStart(w, L) (the "begin of the wave
// sets"), which makes window occupancy self-synchronizing — no
// explicit output reservation is needed because mid-window waves never
// satisfy CanStart for a new head.
//
// Stepping is flat (DESIGN.md §17.4).  Every directed link is one slot
// per cycle plane of a shared link.Bank, indexed by the receiving
// router and input port, so a router collects its arrivals from four
// contiguous slots.  Each port's wave scheduler is its initial counter
// value (Eq. 1–3) plus one per-cycle counter, reduced mod Smax once per
// Step, and a wave → startable-domain table folds the decoder's
// Domain/CanStart pair into one lookup.
//
// Stepping optionally shards across an internal/shard worker pool
// (SetShards): collecting arrivals and resolving routes become two
// barrier-separated phases over contiguous node tiles, with meters,
// lifecycle events and the in-flight counter accumulated per tile and
// replayed in tile order — results stay bit-identical to serial
// stepping (DESIGN.md §17).
package surfbless

import (
	"fmt"

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

// Policy tunes the §4.3 output-selection procedure for ablation
// studies.  The zero value is the paper's algorithm.
type Policy struct {
	// DisableYX skips Step 2's Y-X fallback, deflecting straight after
	// a failed X-Y try.
	DisableYX bool
	// DisableRandom replaces the pseudo-random deflection choice with
	// the first eligible port in fixed N,E,S,W order.
	DisableRandom bool
}

// Fabric is a Surf-Bless mesh.  It implements network.Fabric.
type Fabric struct {
	cfg   config.Config
	mesh  geom.Mesh
	sched *wave.Schedule
	dec   *wave.Decoder
	slot  []int // per-domain slot width (window length in waves)
	pol   Policy

	// Wave counters, derived from sched and dec by setWaves.  startDom
	// maps a wave to the domain whose head may start on it at that
	// domain's slot width, or -1; tm is the cycle's counter value for a
	// scheduler whose initial value is 0, set once per Step.
	smax     int32
	startDom []int32
	tm       int32

	nodes []node
	links *link.Bank[*packet.Packet] // slot id*NumLinkDirs+d: router id's input port d
	sink  network.Sink
	col   *stats.Collector
	meter *power.Meter
	probe *probe.Probe // nil = no spatial observation

	faults *fault.Injector  // nil = fault-free (hot path untouched)
	recov  *router.Recovery // non-nil iff faults is

	fx0 tileFX // serial stepping context (direct effects)

	pool      *shard.Pool // nil = serial stepping
	tiles     int
	fxs       []tileFX // one deferred context per tile
	shNow     int64    // cycle being stepped, read by workers
	collectFn func(int)
	resolveFn func(int)

	inFlight int
	lastStep int64
}

// lifeEvt is one deferred packet lifecycle event (sharded stepping):
// the collector call and sink hand-off a worker recorded for replay at
// the cycle barrier, in tile order — the serial call order.
type lifeEvt struct {
	node  int32
	eject bool
	p     *packet.Packet
}

// tileFX is one stepping context: per-tile scratch plus the effect
// channel.  Serial stepping uses the fabric's single direct context,
// which applies meter/collector/counter effects inline; each shard
// tile owns a deferred context that accumulates them for replay at the
// cycle barrier.  Meter counters are linear, so deferral is exact; the
// collector and sink see the same per-cycle call sequence because
// tiles replay in node order.
type tileFX struct {
	direct bool

	bufR, xbar, alloc, lnk int64
	inFlight               int
	evts                   []lifeEvt
}

type node struct {
	c  geom.Coord
	ni *router.NI
	// out[d] is the bank slot of the neighbour's input port that output
	// d feeds, or -1 on a border.
	out [geom.NumLinkDirs]int32
	// Initial counter values of the schedulers owning each input port,
	// each output port and the SE ejection port.
	inW, outW [geom.NumLinkDirs]int32
	seW       int32

	// Per-cycle scratch reused across cycles (DESIGN.md §12).  A dense
	// array of (packet, arrival direction) pairs replaces the former
	// per-cycle map[*packet.Packet]geom.Dir — at most one arrival per
	// input port, so four slots cover every cycle with zero heap work.
	arrivals [geom.NumLinkDirs]arrival
	nArr     int
}

// arrival is one packet collected from an input link this cycle,
// remembering the port it came in on (used in invariant diagnostics).
type arrival struct {
	p    *packet.Packet
	from geom.Dir
}

// New builds a Surf-Bless mesh for cfg with the paper's routing
// algorithm.  slotWidths gives the window length per domain (nil means
// 1 for every domain); packets of a domain must not exceed its slot
// width.  Wave→domain decoding follows cfg.WaveSets when set, else
// round-robin.
func New(cfg config.Config, slotWidths []int, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	return NewWithPolicy(cfg, slotWidths, Policy{}, sink, col, meter)
}

// NewWithPolicy is New with an ablation policy applied.
func NewWithPolicy(cfg config.Config, slotWidths []int, pol Policy, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.SB {
		return nil, fmt.Errorf("surfbless: config model is %v", cfg.Model)
	}
	if col == nil || meter == nil {
		return nil, fmt.Errorf("surfbless: collector and meter are required")
	}
	mesh := cfg.Mesh()
	sched := wave.New(mesh, cfg.HopDelay())

	var dec *wave.Decoder
	if cfg.WaveSets != nil {
		var err error
		if dec, err = wave.FromSets(sched.Smax(), cfg.WaveSets); err != nil {
			return nil, err
		}
	} else {
		dec = wave.RoundRobin(sched.Smax(), cfg.Domains)
	}

	if slotWidths == nil {
		slotWidths = make([]int, cfg.Domains)
		for i := range slotWidths {
			slotWidths[i] = 1
		}
	}
	if len(slotWidths) != cfg.Domains {
		return nil, fmt.Errorf("surfbless: %d slot widths for %d domains", len(slotWidths), cfg.Domains)
	}
	for dom, w := range slotWidths {
		if w < 1 {
			return nil, fmt.Errorf("surfbless: domain %d slot width %d", dom, w)
		}
		if dec.StartableSlots(dom, w) == 0 {
			return nil, fmt.Errorf("surfbless: domain %d has no startable window of %d waves", dom, w)
		}
	}

	f := &Fabric{
		cfg: cfg, mesh: mesh, sched: sched, dec: dec, slot: slotWidths, pol: pol,
		sink: sink, col: col, meter: meter, lastStep: -1,
	}
	f.fx0.direct = true
	f.nodes = make([]node, mesh.Nodes())
	f.links = link.NewBank[*packet.Packet](mesh.Nodes()*geom.NumLinkDirs, cfg.HopDelay())
	for id := range f.nodes {
		n := &f.nodes[id]
		n.c = mesh.CoordOf(id)
		n.ni = router.NewNI(cfg.Domains, cfg.InjectionQueueCap)
		for _, d := range geom.LinkDirs {
			n.out[d] = -1
			if mesh.HasNeighbor(n.c, d) {
				n.out[d] = int32(mesh.ID(n.c.Add(d))*geom.NumLinkDirs + int(d.Opposite()))
			}
		}
	}
	f.setWaves(sched, dec)
	return f, nil
}

// setWaves installs a wave schedule and decoder and derives the
// per-cycle counter tables from them: every port's initial counter
// value and the wave → startable-domain table.  The tables are the
// hot path's only view of the schedule, so sched and dec change only
// through here.
func (f *Fabric) setWaves(sched *wave.Schedule, dec *wave.Decoder) {
	f.sched, f.dec = sched, dec
	f.smax = int32(sched.Smax())
	f.startDom = make([]int32, f.smax)
	for w := range f.startDom {
		f.startDom[w] = -1
		if dom := dec.Domain(w); dom >= 0 && dec.CanStart(w, f.slot[dom]) {
			f.startDom[w] = int32(dom)
		}
	}
	for id := range f.nodes {
		n := &f.nodes[id]
		for _, d := range geom.LinkDirs {
			n.inW[d] = int32(sched.InputWave(n.c, d, 0))
			n.outW[d] = int32(sched.OutputWave(n.c, d, 0))
		}
		n.seW = int32(sched.OutputWave(n.c, geom.Local, 0))
	}
}

// wave returns the wave a scheduler with initial counter value init
// holds this cycle: (init + now) mod Smax without a division.
func (f *Fabric) wave(init int32) int32 {
	w := init + f.tm
	if w >= f.smax {
		w -= f.smax
	}
	return w
}

// SetProbe attaches a hot-path observer recording per-router
// traversals, deflections and link flits (nil to remove).
func (f *Fabric) SetProbe(p *probe.Probe) { f.probe = p }

// SetShards partitions the mesh into n contiguous node tiles stepped
// by a persistent worker pool (n ≤ 1 restores serial stepping; n is
// clamped to the node count).  Results are bit-identical to serial
// stepping.  While a fault injector is armed the fabric falls back to
// serial stepping: recovery paths mutate shared retry state.
func (f *Fabric) SetShards(n int) error {
	f.StopShards()
	if nodes := len(f.nodes); n > nodes {
		n = nodes
	}
	if n <= 1 {
		return nil
	}
	f.tiles = n
	f.fxs = make([]tileFX, n)
	f.collectFn = f.collectTile
	f.resolveFn = f.resolveTile
	f.pool = shard.NewPool(n)
	return nil
}

// StopShards releases the worker pool and restores serial stepping.
func (f *Fabric) StopShards() {
	if f.pool == nil {
		return
	}
	f.pool.Close()
	f.pool, f.fxs, f.tiles = nil, nil, 0
	f.collectFn, f.resolveFn = nil, nil
}

// SetFaults arms a fault injector (nil to disarm).  Faults break the
// wave-balance invariant on purpose, so while armed the fabric routes
// stricken packets through drop-with-retransmit recovery instead of
// panicking.
func (f *Fabric) SetFaults(inj *fault.Injector) {
	f.faults = inj
	if inj == nil {
		f.recov = nil
		return
	}
	f.recov = &router.Recovery{MaxRetries: inj.MaxRetries(), Backoff: inj.Backoff()}
}

// Decoder exposes the wave→domain decoder (read-only use).
func (f *Fabric) Decoder() *wave.Decoder { return f.dec }

// Schedule exposes the wave schedule (read-only use).
func (f *Fabric) Schedule() *wave.Schedule { return f.sched }

// Inject offers p to node's per-domain NI queue.  It panics when the
// packet violates the static domain contract (bad domain index, or a
// size exceeding the domain's slot width) and returns false under
// backpressure.
func (f *Fabric) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Domain < 0 || p.Domain >= f.cfg.Domains {
		panic(fmt.Sprintf("surfbless: %v has domain outside [0,%d)", p, f.cfg.Domains))
	}
	if p.Size > f.slot[p.Domain] {
		panic(fmt.Sprintf("surfbless: %v exceeds domain %d slot width %d", p, p.Domain, f.slot[p.Domain]))
	}
	if !f.nodes[nodeID].ni.Offer(p) {
		f.col.Refused(p.Domain, now)
		return false
	}
	f.col.Created(p)
	f.meter.BufferWrite(p.Size)
	f.inFlight++
	return true
}

// Step advances the network by one cycle.
func (f *Fabric) Step(now int64) {
	if now <= f.lastStep {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("surfbless: Step(%d) after Step(%d)", now, f.lastStep))
	}
	f.lastStep = now
	f.tm = int32(now % int64(f.smax))
	f.links.Advance(now)
	if f.recov != nil {
		f.relaunchRetries(now)
	}
	if f.pool != nil && f.faults == nil {
		f.stepSharded(now)
		return
	}
	for id := range f.nodes {
		n := &f.nodes[id]
		f.collectNode(id, n, now)
		f.resolveNode(id, n, now, &f.fx0)
	}
}

// stepSharded runs the cycle as two barrier-separated phases over the
// node tiles: collect (drain the routers' input slots) then resolve
// (route, forward, inject — sending into neighbours' input slots).
// Every bank slot has exactly one reader (collect) and one writer
// (resolve), and a cycle's sends land on a different plane than its
// receives, so neither phase observes a same-cycle write and the
// schedule is bit-identical to serial stepping.  Deferred effects
// replay in tile order — the serial node order.
func (f *Fabric) stepSharded(now int64) {
	f.shNow = now
	f.pool.Run(f.tiles, f.collectFn)
	f.pool.Run(f.tiles, f.resolveFn)
	for t := range f.fxs {
		f.applyFX(&f.fxs[t], now)
	}
	if f.probe != nil {
		// Draining the probe ring every cycle keeps workers from ever
		// hitting the flush-on-full path (shared aggregate state): a node
		// appends a bounded handful of events per cycle, far below a
		// segment's capacity.
		f.probe.Flush()
	}
}

// collectTile drains one tile's input slots.
//
//shard:phase(receive)
func (f *Fabric) collectTile(t int) {
	lo, hi := shard.Range(len(f.nodes), f.tiles, t)
	for id := lo; id < hi; id++ {
		f.collectNode(id, &f.nodes[id], f.shNow)
	}
}

// resolveTile runs one tile's permutation/deflection resolution.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	lo, hi := shard.Range(len(f.nodes), f.tiles, t)
	for id := lo; id < hi; id++ {
		f.resolveNode(id, &f.nodes[id], f.shNow, &f.fxs[t])
	}
}

// applyFX replays one tile's deferred effects at the cycle barrier.
//
//shard:phase(effects)
func (f *Fabric) applyFX(fx *tileFX, now int64) {
	f.meter.BufferRead(int(fx.bufR))
	f.meter.CrossbarTraversal(int(fx.xbar))
	f.meter.Allocation(int(fx.alloc))
	f.meter.LinkTraversal(int(fx.lnk))
	fx.bufR, fx.xbar, fx.alloc, fx.lnk = 0, 0, 0, 0
	f.inFlight += fx.inFlight
	fx.inFlight = 0
	for i := range fx.evts {
		ev := &fx.evts[i]
		if ev.eject {
			f.col.Ejected(ev.p)
			if f.sink != nil {
				f.sink(int(ev.node), ev.p, now)
			}
		} else {
			f.col.Injected(ev.p)
		}
		ev.p = nil
	}
	fx.evts = fx.evts[:0]
}

// relaunchRetries re-offers packets whose retransmission backoff
// expired to their source NI; a full NI costs another backoff round
// without consuming a retry attempt.
func (f *Fabric) relaunchRetries(now int64) {
	for p := f.recov.Queue.PopDue(now); p != nil; p = f.recov.Queue.PopDue(now) {
		if f.nodes[f.mesh.ID(p.Src)].ni.Offer(p) {
			f.meter.BufferWrite(p.Size)
		} else {
			f.recov.Queue.Push(p, now+f.recov.Backoff)
		}
	}
}

// collectNode is the cycle's receive phase for one router: arrivals
// drain from its four input slots into the node's dense scratch array
// under the confinement invariant — a packet must arrive on a wave
// owned by its own domain, at a window start.
func (f *Fabric) collectNode(id int, n *node, now int64) {
	n.nArr = 0
	base := id * geom.NumLinkDirs
	if !f.links.Any(base, geom.NumLinkDirs) {
		return
	}
	for _, d := range geom.LinkDirs {
		p, ok := f.links.Recv(base+int(d), now)
		if !ok {
			continue
		}
		if f.startDom[f.wave(n.inW[d])] != int32(p.Domain) {
			f.checkArrival(n, p, d, now)
		}
		n.arrivals[n.nArr] = arrival{p: p, from: d}
		n.nArr++
	}
}

// checkArrival re-derives an arrival's wave from the schedule and
// decoder and panics with the violated invariant; collectNode calls it
// when the startable-domain table rejects the arrival.
func (f *Fabric) checkArrival(n *node, p *packet.Packet, d geom.Dir, now int64) {
	w := f.sched.InputWave(n.c, d, now)
	if dom := f.dec.Domain(w); dom != p.Domain {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("surfbless: %v arrived at %v/%v cycle %d on wave %d of domain %d",
			p, n.c, d, now, w, dom))
	}
	if !f.dec.CanStart(w, f.slot[p.Domain]) {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("surfbless: %v arrived at %v/%v cycle %d mid-window (wave %d)",
			p, n.c, d, now, w))
	}
}

// resolveNode is the cycle's routing phase for one router: ejection,
// old-first arbitration, output selection/forwarding and SE injection
// over the arrivals collectNode gathered.
func (f *Fabric) resolveNode(id int, n *node, now int64, fx *tileFX) {
	if n.nArr == 0 && n.ni.Backlog() == 0 {
		return // nothing to eject, route or inject
	}
	arrivals := n.arrivals[:n.nArr]

	// A frozen router's pipeline is dead: the links above were still
	// drained (they demand collection), but every arrival is lost at the
	// input and recovered via source retransmission.  Nothing ejects,
	// forwards or injects here until the freeze repairs.
	if f.faults != nil && f.faults.Frozen(id, now) {
		for _, a := range arrivals {
			f.dropOrRetry(a.p, now)
		}
		return
	}

	// Ejection happens only on the south-east sub-wave (§4.2): the
	// ejection port is owned by the SE scheduler's current wave, so a
	// packet at its destination ejects only when that wave belongs to
	// its domain — otherwise it is deflected onward (§5.1.3).
	seDom := int(f.startDom[f.wave(n.seW)])
	seStart := seDom >= 0
	ejected := -1
	if seStart {
		for i, a := range arrivals {
			if a.p.Dst == n.c && a.p.Domain == seDom && (ejected < 0 || a.p.Older(arrivals[ejected].p)) {
				ejected = i
			}
		}
	}
	if ejected >= 0 {
		f.eject(id, arrivals[ejected].p, now, fx)
		arrivals = append(arrivals[:ejected], arrivals[ejected+1:]...)
	}

	// Step 1 of the routing algorithm: old-first packet order
	// (allocation-free insertion sort; Older is a total order).
	sortArrivalsOldestFirst(arrivals)

	// Step 2: X-Y, then Y-X, then random same-domain deflection.
	var taken [geom.NumLinkDirs]bool
	for _, a := range arrivals {
		d := f.pickOutput(n, a.p, now, &taken)
		if d < 0 {
			// Fault-free, a missing output falsifies the paper's central
			// claim and must panic.  With faults armed the wave balance is
			// broken by design (a down link removes its port from the
			// schedule), so the stranded packet enters recovery instead.
			if f.faults != nil {
				f.dropOrRetry(a.p, now)
				continue
			}
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("surfbless: no same-domain output at %v cycle %d for %v (arrived %v) — wave balance violated",
				n.c, now, a.p, a.from))
		}
		f.forward(n, a.p, d, now, &taken, fx)
	}

	// Injection: only on the SE sub-wave, only for the domain owning it,
	// and only at the lowest priority (a free same-domain output must
	// remain, §4.3).
	if seStart {
		if p := n.ni.Head(seDom); p != nil {
			if d := f.pickOutput(n, p, now, &taken); d >= 0 {
				n.ni.Pop(seDom)
				if p.InjectedAt < 0 { // a retransmission keeps its first stamp
					p.InjectedAt = now
					if fx.direct {
						f.col.Injected(p)
					} else {
						fx.evts = append(fx.evts, lifeEvt{node: int32(id), p: p})
					}
				}
				if fx.direct {
					f.meter.BufferRead(p.Size)
				} else {
					fx.bufR += int64(p.Size)
				}
				f.forward(n, p, d, now, &taken, fx)
			}
		}
	}
}

// sortArrivalsOldestFirst is router.SortOldestFirst over (packet,
// direction) pairs: old-first arbitration order, ≤4 elements,
// allocation-free insertion sort.
func sortArrivalsOldestFirst(as []arrival) {
	for i := 1; i < len(as); i++ {
		a := as[i]
		j := i - 1
		for ; j >= 0 && a.p.Older(as[j].p); j-- {
			as[j+1] = as[j]
		}
		as[j+1] = a
	}
}

// eligible reports whether output d may carry p's head this cycle.
func (f *Fabric) eligible(n *node, p *packet.Packet, d geom.Dir, now int64, taken *[geom.NumLinkDirs]bool) bool {
	if d == geom.Local || n.out[d] < 0 || taken[d] {
		return false
	}
	if f.faults != nil && f.faults.LinkDown(f.mesh.ID(n.c), d, now) {
		return false
	}
	return f.startDom[f.wave(n.outW[d])] == int32(p.Domain)
}

// pickOutput implements Step 2 of §4.3.  It returns -1 when no
// same-domain output is free (legal only for injection attempts).
func (f *Fabric) pickOutput(n *node, p *packet.Packet, now int64, taken *[geom.NumLinkDirs]bool) geom.Dir {
	if d := geom.XYFirst(n.c, p.Dst); d != geom.Local && f.eligible(n, p, d, now, taken) {
		return d
	}
	if !f.pol.DisableYX {
		if d := geom.YXFirst(n.c, p.Dst); d != geom.Local && f.eligible(n, p, d, now, taken) {
			return d
		}
	}
	// Random deflection among the remaining same-domain outputs.  The
	// choice is a pure hash of (packet, cycle): no shared RNG state, so
	// one domain's traffic can never perturb another domain's draws.
	// A fixed-size candidate array keeps this off the heap.
	var free [geom.NumLinkDirs]geom.Dir
	nf := 0
	for _, d := range geom.LinkDirs {
		if f.eligible(n, p, d, now, taken) {
			free[nf] = d
			nf++
		}
	}
	if nf == 0 {
		return -1
	}
	if f.pol.DisableRandom {
		return free[0]
	}
	return free[router.Hash64(p.ID, uint64(now))%uint64(nf)]
}

func (f *Fabric) forward(n *node, p *packet.Packet, d geom.Dir, now int64, taken *[geom.NumLinkDirs]bool, fx *tileFX) {
	taken[d] = true
	// Single-flit corruption is modeled at link entry: the worm burned
	// the wire but fails its CRC, so it never reaches the neighbor and
	// the wave invariant at the receiver stays intact.  Faults force
	// serial stepping, so this branch always runs in the direct context.
	if f.faults != nil && f.faults.Corrupt(p, f.mesh.ID(n.c), d, now) {
		f.meter.LinkTraversal(p.Size)
		f.dropOrRetry(p, now)
		return
	}
	p.Hops++
	deflected := !geom.Productive(n.c, p.Dst, d)
	if deflected {
		p.Deflections++
	}
	if fx.direct {
		f.meter.Allocation(1)
		f.meter.CrossbarTraversal(p.Size)
		f.meter.LinkTraversal(p.Size)
	} else {
		fx.alloc++
		fx.xbar += int64(p.Size)
		fx.lnk += int64(p.Size)
	}
	if f.probe != nil {
		f.probe.Traverse(f.mesh.ID(n.c), d, p, p.Size, deflected, now)
	}
	f.links.Send(int(n.out[d]), p, now)
}

func (f *Fabric) eject(id int, p *packet.Packet, now int64, fx *tileFX) {
	p.EjectedAt = now
	if fx.direct {
		f.meter.CrossbarTraversal(p.Size)
		f.col.Ejected(p)
		f.inFlight--
		if f.sink != nil {
			f.sink(id, p, now)
		}
		return
	}
	fx.xbar += int64(p.Size)
	fx.inFlight--
	fx.evts = append(fx.evts, lifeEvt{node: int32(id), eject: true, p: p})
}

// dropOrRetry hands a fault-stricken packet to NI-level recovery:
// bounded source retransmission with backoff, then a counted drop.
func (f *Fabric) dropOrRetry(p *packet.Packet, now int64) {
	if f.recov.TryRetry(p, now) {
		f.col.Retransmitted(p, now)
		return
	}
	f.col.Dropped(p, now)
	f.inFlight--
}

// InFlight returns accepted-but-undelivered packets.
func (f *Fabric) InFlight() int { return f.inFlight }

// Audit verifies that NI queues plus link occupancy account for every
// in-flight packet (Surf-Bless routers hold no state between cycles).
func (f *Fabric) Audit() error {
	n := f.links.InFlight()
	for i := range f.nodes {
		n += f.nodes[i].ni.Backlog()
	}
	if f.recov != nil {
		n += f.recov.Queue.Len()
	}
	if n != f.inFlight {
		return fmt.Errorf("surfbless: %d packets in queues+links, %d in flight", n, f.inFlight)
	}
	return nil
}

var _ network.Fabric = (*Fabric)(nil)
