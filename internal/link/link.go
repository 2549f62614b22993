// Package link models pipelined point-to-point channels as delay lines:
// an item sent at cycle T is delivered exactly T+delay cycles later, in
// FIFO order.  Line is one such channel, carrying whole packets for the
// deflection routers (BLESS, CHIPPER, RUNAHEAD), whose router pipeline
// is folded into the hop delay.  Bank is the flat variant for meshes
// whose links carry at most one item per cycle — SB's packets, and the
// VC routers' flits and credits: one slot per link and delivery cycle
// instead of a queue per link.
package link

import "fmt"

// Line is a fixed-delay FIFO channel of items of type T.  The zero
// value is unusable; construct with New.  Line is not safe for
// concurrent use: the simulator is single-goroutine by design.
type Line[T any] struct {
	delay int64
	queue []entry[T] // in send order; arrival times are non-decreasing
}

type entry[T any] struct {
	at   int64
	item T
}

// New returns a line with the given propagation delay in cycles.
// It panics if delay < 1: zero-delay channels would break the
// two-phase network cycle (a same-cycle delivery could be consumed
// before it was sent, depending on router iteration order).
func New[T any](delay int) *Line[T] {
	if delay < 1 {
		panic(fmt.Sprintf("link: delay %d must be ≥ 1", delay))
	}
	return &Line[T]{delay: int64(delay)}
}

// Delay returns the line's propagation delay in cycles.
func (l *Line[T]) Delay() int { return int(l.delay) }

// Send schedules item for delivery at now+delay.  Sends must be issued
// with non-decreasing now; the line panics otherwise, because such a
// send would reorder deliveries and indicates a broken cycle loop.
func (l *Line[T]) Send(item T, now int64) {
	at := now + l.delay
	if n := len(l.queue); n > 0 && l.queue[n-1].at > at {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("link: send at cycle %d after send arriving %d", now, l.queue[n-1].at))
	}
	l.queue = append(l.queue, entry[T]{at: at, item: item})
}

// Recv removes and returns all items due at exactly cycle now.  It
// panics if an item's delivery time has already passed undelivered,
// which means the network skipped a cycle.
//
// Recv allocates a fresh slice per call; hot paths should use RecvInto
// with a reused scratch buffer instead.
func (l *Line[T]) Recv(now int64) []T {
	return l.RecvInto(now, nil)
}

// RecvInto is Recv with caller-owned memory: items due at exactly
// cycle now are appended to buf and the extended slice is returned.
// Passing the previous cycle's buffer re-sliced to [:0] makes the
// steady-state receive path allocation-free.  The returned memory
// belongs to the caller; the line keeps no reference to it.
func (l *Line[T]) RecvInto(now int64, buf []T) []T {
	i := 0
	for ; i < len(l.queue) && l.queue[i].at <= now; i++ {
		if l.queue[i].at < now {
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("link: item due at %d not collected until %d", l.queue[i].at, now))
		}
		buf = append(buf, l.queue[i].item)
	}
	if i > 0 {
		// Shift remaining entries down, keeping the backing array, and
		// zero the vacated tail: the stale copies beyond the new length
		// would otherwise pin delivered items (packet pointers) in the
		// backing array, invisible to the GC until overwritten.
		n := copy(l.queue, l.queue[i:])
		var zero entry[T]
		for j := n; j < len(l.queue); j++ {
			l.queue[j] = zero
		}
		l.queue = l.queue[:n]
	}
	return buf
}

// InFlight returns the number of items currently traversing the line.
func (l *Line[T]) InFlight() int { return len(l.queue) }
