package coherence

import "fmt"

// L1 is one node's private first-level cache controller.  It is
// blocking: the in-order core has at most one outstanding demand miss,
// which keeps the controller's transient state to a single transaction
// (plus fire-and-forget eviction messages).
type L1 struct {
	node   int
	cache  *Cache
	send   SendFunc
	homeOf func(block uint64) int

	pending *l1Txn

	// Statistics.
	Hits, Misses, Upgrades, Writebacks int64
}

// l1Txn is the single outstanding demand miss.
type l1Txn struct {
	block uint64
	write bool
	// invalidated records an Inv that raced ahead of our Data response
	// (the IS_I case): the value is still delivered once, but the line
	// must not be retained.  It only forces a drop for non-exclusive
	// fills: an Inv can precede an exclusive grant only when it belongs
	// to a transaction serialized before ours (a later transaction
	// would Recall an owner, not Inv it), so keeping an exclusive fill
	// is always coherent.
	invalidated bool
	// recalled records a Recall that raced ahead of our exclusive grant
	// (possible because control and data travel on different virtual
	// networks, and deflection routing preserves no ordering): the fill
	// is installed, immediately surrendered with PutM/PutE, and dropped.
	recalled bool
}

// NewL1 builds an L1 controller.
func NewL1(node, capacityBytes, blockBytes, ways int, homeOf func(uint64) int, send SendFunc) *L1 {
	return &L1{
		node:   node,
		cache:  NewCache(capacityBytes, blockBytes, ways),
		send:   send,
		homeOf: homeOf,
	}
}

// Busy reports whether a demand miss is outstanding (the core stalls).
func (l *L1) Busy() bool { return l.pending != nil }

// StateOf returns the MESI state of a block (for invariant checks).
func (l *L1) StateOf(block uint64) LineState {
	if ln := l.cache.Peek(block); ln != nil {
		return ln.State
	}
	return Invalid
}

// Access performs a load (write=false) or store (write=true) to the
// block.  It returns true on a hit — the access completes this cycle —
// or false on a miss, in which case the request is issued and the core
// must stall until Busy() turns false.  Calling Access while Busy
// panics: the core contract forbids it.
func (l *L1) Access(block uint64, write bool, now int64) bool {
	if l.pending != nil {
		panic(fmt.Sprintf("coherence: L1 %d Access while busy", l.node))
	}
	ln := l.cache.Lookup(block)
	if ln != nil {
		switch {
		case !write: // load hit in S/E/M
			l.Hits++
			return true
		case ln.State == Modified:
			l.Hits++
			return true
		case ln.State == Exclusive:
			// MESI's silent E→M upgrade: no traffic.
			ln.State = Modified
			ln.Dirty = true
			l.Hits++
			return true
		default: // store to Shared: upgrade miss
			l.Upgrades++
			l.Misses++
			l.pending = &l1Txn{block: block, write: true}
			l.send(&Msg{Type: GetM, Addr: block, From: l.node, To: l.homeOf(block)}, now)
			return false
		}
	}
	// Demand miss from Invalid.
	l.Misses++
	t := GetS
	if write {
		t = GetM
	}
	l.pending = &l1Txn{block: block, write: write}
	l.send(&Msg{Type: t, Addr: block, From: l.node, To: l.homeOf(block)}, now)
	return false
}

// Deliver processes a message addressed to this L1.
func (l *L1) Deliver(m *Msg, now int64) {
	switch m.Type {
	case Data:
		l.completeFill(m, now)
	case Grant:
		l.completeUpgrade(m, now)
	case Inv:
		l.invalidate(m, now)
	case Recall:
		l.recall(m, now)
	default:
		panic(fmt.Sprintf("coherence: L1 %d cannot handle %v", l.node, m))
	}
}

func (l *L1) completeFill(m *Msg, now int64) {
	txn := l.pending
	if txn == nil || txn.block != m.Addr {
		panic(fmt.Sprintf("coherence: L1 %d unexpected %v (pending %+v)", l.node, m, txn))
	}
	l.pending = nil
	if txn.invalidated && !m.Excl {
		// IS_I: the load's value is consumed, the line is not retained.
		// (Exclusive fills keep the line: see the l1Txn field comment.)
		return
	}
	if txn.recalled {
		// The home recalled our ownership before the grant reached us:
		// consume the value and surrender the line immediately.
		if !m.Excl {
			panic(fmt.Sprintf("coherence: L1 %d recalled during a non-exclusive fill: %v", l.node, m))
		}
		t := PutE
		if txn.write {
			l.Writebacks++
			t = PutM
		}
		l.send(&Msg{Type: t, Addr: m.Addr, From: l.node, To: l.homeOf(m.Addr)}, now)
		return
	}
	// Make room, then install.
	victim := l.cache.VictimFor(m.Addr, nil)
	l.evict(victim, now)
	state := Shared
	switch {
	case txn.write:
		if !m.Excl {
			panic(fmt.Sprintf("coherence: L1 %d write fill without exclusivity: %v", l.node, m))
		}
		state = Modified
	case m.Excl:
		state = Exclusive
	}
	l.cache.Install(victim, m.Addr, state)
	victim.Dirty = state == Modified
}

func (l *L1) completeUpgrade(m *Msg, now int64) {
	txn := l.pending
	if txn == nil || txn.block != m.Addr || !txn.write {
		panic(fmt.Sprintf("coherence: L1 %d unexpected %v (pending %+v)", l.node, m, txn))
	}
	if txn.invalidated {
		// The L2 serialized an Inv before our GetM, so it must have sent
		// full Data, not a bare Grant.
		panic(fmt.Sprintf("coherence: L1 %d got Grant for an invalidated upgrade (a%x)", l.node, m.Addr))
	}
	ln := l.cache.Peek(m.Addr)
	if ln == nil || ln.State != Shared {
		panic(fmt.Sprintf("coherence: L1 %d Grant without a Shared copy (a%x, %v)", l.node, m.Addr, ln))
	}
	recalled := txn.recalled
	l.pending = nil
	ln.State = Modified
	ln.Dirty = true
	if recalled {
		// A Recall overtook this grant: the store completes, then the
		// line is surrendered at once.
		l.Writebacks++
		l.send(&Msg{Type: PutM, Addr: m.Addr, From: l.node, To: l.homeOf(m.Addr)}, now)
		ln.State = Invalid
	}
}

func (l *L1) invalidate(m *Msg, now int64) {
	if ln := l.cache.Peek(m.Addr); ln != nil {
		if ln.State != Shared {
			// Invs target sharers only; an owner is recalled instead.
			panic(fmt.Sprintf("coherence: L1 %d Inv for %v line a%x", l.node, ln.State, m.Addr))
		}
		ln.State = Invalid
	} else if l.pending != nil && l.pending.block == m.Addr {
		// The Inv overtook our pending response on another vnet.
		l.pending.invalidated = true
	}
	// A stale Inv for a silently evicted copy is acked all the same —
	// the directory counts acks, not copies.
	l.send(&Msg{Type: InvAck, Addr: m.Addr, From: l.node, To: m.From}, now)
}

func (l *L1) recall(m *Msg, now int64) {
	ln := l.cache.Peek(m.Addr)
	if ln == nil {
		if l.pending != nil && l.pending.block == m.Addr {
			// The Recall overtook our exclusive grant (different virtual
			// networks preserve no ordering): surrender on arrival.
			l.pending.recalled = true
			return
		}
		// Already evicted: the PutM/PutE racing ahead of this Recall
		// serves as the recall response at the L2.
		return
	}
	switch ln.State {
	case Modified:
		l.Writebacks++
		l.send(&Msg{Type: PutM, Addr: m.Addr, From: l.node, To: m.From}, now)
	case Exclusive:
		l.send(&Msg{Type: PutE, Addr: m.Addr, From: l.node, To: m.From}, now)
	case Shared:
		if l.pending != nil && l.pending.block == m.Addr && l.pending.write {
			// Recall overtook the Grant of our pending upgrade: finish
			// the store when the Grant lands, then surrender.
			l.pending.recalled = true
			return
		}
		panic(fmt.Sprintf("coherence: L1 %d recalled for plain Shared line a%x", l.node, m.Addr))
	default:
		panic(fmt.Sprintf("coherence: L1 %d recalled for %v line a%x", l.node, ln.State, m.Addr))
	}
	ln.State = Invalid
}

// evict writes back or announces the victim line as the protocol
// requires: M → PutM (data), E → PutE (notice), S → silent.
func (l *L1) evict(victim *Line, now int64) {
	if victim.State == Invalid {
		return
	}
	switch victim.State {
	case Modified:
		l.Writebacks++
		l.send(&Msg{Type: PutM, Addr: victim.Tag, From: l.node, To: l.homeOf(victim.Tag)}, now)
	case Exclusive:
		l.send(&Msg{Type: PutE, Addr: victim.Tag, From: l.node, To: l.homeOf(victim.Tag)}, now)
	}
	victim.State = Invalid
}

// Walk exposes the underlying tag store for invariant checking.
func (l *L1) Walk(fn func(*Line)) { l.cache.Walk(fn) }

// MissRate returns the demand miss ratio.
func (l *L1) MissRate() float64 {
	if l.Hits+l.Misses == 0 {
		return 0
	}
	return float64(l.Misses) / float64(l.Hits+l.Misses)
}
