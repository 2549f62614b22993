// Package link is the testdata stand-in for the repository's delay≥1
// link lines: the sanctioned cross-tile channel (policy: safe).
package link

type Line struct {
	buf []int
}

func (l *Line) Send(v int, now int64) { l.buf = append(l.buf, v) }

func (l *Line) RecvInto(dst []int, now int64) []int {
	dst = append(dst, l.buf...)
	l.buf = l.buf[:0]
	return dst
}

func (l *Line) Idle() bool { return len(l.buf) == 0 }

// Bank stands in for the slotted link bank: Send and Recv touch one
// slot per link (policy: safe); Advance moves the bank's shared cycle
// cursor (policy: serial-only).
type Bank struct {
	slots  []int
	rx, tx int
}

func (b *Bank) Advance(now int64) {
	b.rx = int(now%2) * len(b.slots) / 2
	b.tx = len(b.slots)/2 - b.rx
}

func (b *Bank) Send(link, v int, now int64) { b.slots[b.tx+link] = v }

func (b *Bank) Recv(link int, now int64) (int, bool) {
	v := b.slots[b.rx+link]
	b.slots[b.rx+link] = 0
	return v, v != 0
}
