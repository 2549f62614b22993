package link

import "fmt"

// Bank is a set of fixed-delay channels that each carry at most one
// item per cycle — a bufferless mesh's packet links, or a VC mesh's
// flit and credit links — laid out flat: delay+1 planes of one slot
// per channel, indexed by delivery cycle mod delay+1.  An item sent at
// cycle T lands in plane (T+delay) mod (delay+1) and is received from
// it at T+delay.  The extra plane keeps the plane being written in a
// cycle distinct from the plane being read, so one cycle's receives
// and sends never touch the same slot, in any router order.
//
// Beside the slots, a dense due flag per slot and plane summarizes
// occupancy: Send sets it and Recv clears it, and Any reads a run of
// them, so a receiver learns that none of its channels has anything due
// from a few bytes instead of a slot per channel.
//
// The cycle cursor moves only through Advance, which the stepping loop
// calls once per cycle before any Send or Recv.  Send, Recv and Any
// then touch only the addressed slots and flags, so concurrent callers
// addressing distinct channels need no synchronization.  The zero
// value is unusable; construct with NewBank.
type Bank[T any] struct {
	delay  int64
	planes int64
	links  int
	slots  []slot[T] // planes × links, plane-major
	due    []bool    // parallel to slots: the slot holds an item

	now    int64 // cycle set by Advance
	rx, tx int   // first slot of the planes Recv reads and Send writes at now
}

type slot[T any] struct {
	at   int64
	item T
}

// NewBank returns a bank of links channels with the given propagation
// delay in cycles.  Like New, it panics if delay < 1.
func NewBank[T any](links, delay int) *Bank[T] {
	if delay < 1 {
		panic(fmt.Sprintf("link: delay %d must be ≥ 1", delay))
	}
	b := &Bank[T]{
		delay:  int64(delay),
		planes: int64(delay) + 1,
		links:  links,
		slots:  make([]slot[T], (delay+1)*links),
		due:    make([]bool, (delay+1)*links),
		now:    -1,
	}
	return b
}

// Advance moves the bank to cycle now.  It must be called once per
// cycle, with increasing now, before that cycle's sends and receives;
// it is the only method that changes shared bank state, so it runs
// outside any tile-parallel phase.
func (b *Bank[T]) Advance(now int64) {
	if now <= b.now {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("link: bank advanced to cycle %d after %d", now, b.now))
	}
	b.now = now
	b.rx = int(now%b.planes) * b.links
	b.tx = int((now+b.delay)%b.planes) * b.links
}

// Send puts item on channel link for delivery at now+delay.  It panics
// if the channel already carries an item in that slot (two sends in
// one cycle, or an earlier item never collected) or if now is not the
// cycle the bank was advanced to.
func (b *Bank[T]) Send(link int, item T, now int64) {
	i := b.tx + link
	if b.due[i] || now != b.now {
		panic(bankFault{send: true, link: link, at: b.slots[i].at, now: now, bankNow: b.now})
	}
	b.slots[i] = slot[T]{at: now + b.delay, item: item}
	b.due[i] = true
}

// Recv removes and returns the item due on channel link at cycle now;
// ok is false when none is.  It panics on an item whose delivery cycle
// has already passed undelivered — the receiver skipped a cycle — as
// Line does.
func (b *Bank[T]) Recv(link int, now int64) (item T, ok bool) {
	i := b.rx + link
	if !b.due[i] {
		return item, false
	}
	s := &b.slots[i]
	if s.at != now {
		panic(bankFault{link: link, at: s.at, now: now, bankNow: b.now})
	}
	item, s.item = s.item, item
	b.due[i] = false
	return item, true
}

// Any reports whether any of the n channels first, first+1, … has an
// item in the plane Recv reads at the current cycle: one due now, or
// one whose delivery cycle passed uncollected (which Recv then
// reports).  A receiver whose channels are contiguous tests them all
// before touching a single slot.
func (b *Bank[T]) Any(first, n int) bool {
	for _, d := range b.due[b.rx+first : b.rx+first+n] {
		if d {
			return true
		}
	}
	return false
}

// InFlight returns the number of items currently traversing the bank.
func (b *Bank[T]) InFlight() int {
	n := 0
	for _, d := range b.due {
		if d {
			n++
		}
	}
	return n
}

// bankFault is the panic value of a Send or Recv that breaks the
// bank's discipline.  A panic with a plain value rather than a call to
// a formatting helper keeps the generic Send and Recv cheap enough to
// inline; the message is built only when the panic is printed.
type bankFault struct {
	send             bool
	link             int
	at, now, bankNow int64
}

func (e bankFault) Error() string {
	switch {
	case e.now != e.bankNow && e.send:
		return fmt.Sprintf("link: send at cycle %d on a bank advanced to %d", e.now, e.bankNow)
	case e.send:
		return fmt.Sprintf("link: overrun on link %d at cycle %d: slot still holds an item due at %d", e.link, e.now, e.at)
	case e.at < e.now:
		return fmt.Sprintf("link: item due at %d on link %d not collected until %d", e.at, e.link, e.now)
	default:
		return fmt.Sprintf("link: receive at cycle %d on link %d found an item due at %d (bank advanced to %d)", e.now, e.link, e.at, e.bankNow)
	}
}
