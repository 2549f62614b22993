package coherence

// eventQueue delivers messages after a fixed processing delay, in
// (time, arrival-order) order — the L2 bank pipeline and the memory
// controller both use it.  The heap is sifted by hand rather than
// through container/heap, whose Push/Pop box every event into an
// interface value, and due hands back a reused buffer, so a warmed
// queue neither schedules nor drains with a heap allocation.
type eventQueue struct {
	h   eventHeap
	seq int64
	out []*Msg // due's result buffer, reused across calls
}

type event struct {
	at  int64
	seq int64
	msg *Msg
}

type eventHeap []event

// less orders by time, then arrival: a strict total order, so the pop
// sequence is fixed by the pushes alone.
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// schedule enqueues m for processing at cycle at.
func (q *eventQueue) schedule(m *Msg, at int64) {
	q.h = append(q.h, event{at: at, seq: q.seq, msg: m})
	q.seq++
	h := q.h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event's message.
func (q *eventQueue) pop() *Msg {
	h := q.h
	n := len(h) - 1
	m := h[0].msg
	h[0] = h[n]
	h[n] = event{} // unpin the message from the vacated slot
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.h = h
	return m
}

// due pops every message scheduled at or before now.  The result is
// valid until the next call to due: callers may schedule while ranging
// over it (schedule never touches the buffer), but must not re-enter
// due on the same queue.
func (q *eventQueue) due(now int64) []*Msg {
	clear(q.out) // unpin last call's messages
	q.out = q.out[:0]
	for len(q.h) > 0 && q.h[0].at <= now {
		q.out = append(q.out, q.pop())
	}
	return q.out
}

// pending returns the number of queued messages.
func (q *eventQueue) pending() int { return len(q.h) }
