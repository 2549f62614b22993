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

// Bank stands in for the slotted link bank: Send, Recv and Any touch
// one slot and due flag per link (policy: safe); Advance moves the
// bank's shared cycle cursor (policy: serial-only).
type Bank struct {
	slots  []int
	due    []bool
	rx, tx int
}

func (b *Bank) Advance(now int64) {
	b.rx = int(now%2) * len(b.slots) / 2
	b.tx = len(b.slots)/2 - b.rx
}

func (b *Bank) Send(link, v int, now int64) {
	b.slots[b.tx+link] = v
	b.due[b.tx+link] = true
}

func (b *Bank) Recv(link int, now int64) (int, bool) {
	v := b.slots[b.rx+link]
	b.slots[b.rx+link] = 0
	b.due[b.rx+link] = false
	return v, v != 0
}

func (b *Bank) Any(first, n int) bool {
	for _, d := range b.due[b.rx+first : b.rx+first+n] {
		if d {
			return true
		}
	}
	return false
}
