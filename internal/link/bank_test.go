package link

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// mustPanic runs f and returns its panic message, failing the test if
// f returns normally.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

func TestNewBankPanicsOnZeroDelay(t *testing.T) {
	mustPanic(t, "NewBank(4, 0)", func() { NewBank[int](4, 0) })
}

func TestBankDelivery(t *testing.T) {
	b := NewBank[string](3, 3)
	b.Advance(10)
	b.Send(1, "a", 10)
	if got := b.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	for now := int64(11); now < 13; now++ {
		b.Advance(now)
		for l := 0; l < 3; l++ {
			if item, ok := b.Recv(l, now); ok {
				t.Fatalf("early delivery on link %d at %d: %q", l, now, item)
			}
		}
	}
	b.Advance(13)
	if _, ok := b.Recv(0, 13); ok {
		t.Fatal("item delivered on the wrong link")
	}
	if item, ok := b.Recv(1, 13); !ok || item != "a" {
		t.Fatalf("Recv(1, 13) = %q, %v, want a, true", item, ok)
	}
	if _, ok := b.Recv(1, 13); ok {
		t.Error("item delivered twice")
	}
	if got := b.InFlight(); got != 0 {
		t.Errorf("InFlight after delivery = %d, want 0", got)
	}
}

// A link carries one item per cycle: a second send in the same cycle
// overruns the slot.
func TestBankOverrunPanics(t *testing.T) {
	b := NewBank[int](2, 2)
	b.Advance(5)
	b.Send(0, 1, 5)
	b.Send(1, 2, 5) // another link: fine
	msg := mustPanic(t, "second send on link 0", func() { b.Send(0, 3, 5) })
	if !strings.Contains(msg, "overrun") {
		t.Errorf("panic %q does not name the overrun", msg)
	}
}

// An item whose delivery cycle passes without a Recv is detected when
// its plane comes round again: by the receiver, or by the sender that
// would overwrite it.
func TestBankMissedCollectionPanics(t *testing.T) {
	b := NewBank[int](1, 2)
	b.Advance(0)
	b.Send(0, 7, 0) // due at 2, never collected
	for now := int64(1); now <= 4; now++ {
		b.Advance(now)
	}
	b.Advance(5) // plane of cycle 2 again
	msg := mustPanic(t, "Recv past an uncollected item", func() { b.Recv(0, 5) })
	if !strings.Contains(msg, "not collected") {
		t.Errorf("panic %q does not name the missed collection", msg)
	}

	b = NewBank[int](1, 2)
	b.Advance(0)
	b.Send(0, 7, 0)
	b.Advance(3) // send at 3 targets the plane of cycle 2
	if msg := mustPanic(t, "Send over an uncollected item", func() { b.Send(0, 8, 3) }); !strings.Contains(msg, "overrun") {
		t.Errorf("panic %q does not name the overrun", msg)
	}
}

// Any reads the due flags of a run of links in the plane Recv reads
// this cycle: an item due now raises it, an item in flight on another
// plane does not, and the Recv that collects the item clears it.
func TestBankAny(t *testing.T) {
	b := NewBank[int](4, 2)
	b.Advance(0)
	if b.Any(0, 4) {
		t.Fatal("Any on an empty bank")
	}
	b.Send(2, 7, 0) // due at 2
	b.Advance(1)
	b.Send(1, 8, 1) // due at 3: another plane
	if b.Any(0, 4) {
		t.Fatal("Any at cycle 1 sees items due at 2 and 3")
	}
	b.Advance(2)
	if !b.Any(0, 4) || !b.Any(2, 1) || !b.Any(1, 2) {
		t.Fatal("Any at cycle 2 misses the item due on link 2")
	}
	if b.Any(0, 2) || b.Any(3, 1) {
		t.Fatal("Any at cycle 2 reports links 0, 1 or 3, whose items are due at 3 or never")
	}
	if item, ok := b.Recv(2, 2); !ok || item != 7 {
		t.Fatalf("Recv(2, 2) = %d, %v, want 7, true", item, ok)
	}
	if b.Any(0, 4) {
		t.Fatal("Any still set after Recv collected the item")
	}
	b.Advance(3)
	if !b.Any(1, 1) || b.Any(2, 2) {
		t.Fatal("Any at cycle 3 does not isolate link 1")
	}
}

func TestBankCycleDiscipline(t *testing.T) {
	b := NewBank[int](1, 1)
	b.Advance(4)
	mustPanic(t, "Advance backwards", func() { b.Advance(4) })
	if msg := mustPanic(t, "Send at a cycle other than Advance's", func() { b.Send(0, 1, 5) }); !strings.Contains(msg, "advanced to 4") {
		t.Errorf("panic %q does not name the bank's cycle", msg)
	}
}

// TestBankMatchesLine is a seeded differential test: for random
// schedules with at most one send per link per cycle, a Bank delivers
// the same items on the same cycles as one Line per link, and Any over
// a link before its receive says exactly whether the Line has an item
// due.  Within a cycle the links are visited in random order and each
// link's send goes before or after its receive at random, as routers
// stepping in any order would issue them.
func TestBankMatchesLine(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		links := 1 + rng.Intn(8)
		delay := 1 + rng.Intn(5)
		load := rng.Float64()
		b := NewBank[int](links, delay)
		lines := make([]*Line[int], links)
		for l := range lines {
			lines[l] = New[int](delay)
		}
		next := 0
		for now := int64(rng.Intn(3)); now < 400; now++ {
			b.Advance(now)
			recv := func(l int) {
				lineDue := len(lines[l].queue) > 0 && lines[l].queue[0].at == now
				if got := b.Any(l, 1); got != lineDue {
					t.Fatalf("seed %d, cycle %d, link %d: Any %v, line has an item due %v", seed, now, l, got, lineDue)
				}
				want := lines[l].Recv(now)
				got, ok := b.Recv(l, now)
				switch {
				case len(want) > 1:
					t.Fatalf("seed %d: line %d delivered %d items in one cycle", seed, l, len(want))
				case ok != (len(want) == 1) || ok && got != want[0]:
					t.Fatalf("seed %d, cycle %d, link %d: bank (%d, %v), line %v", seed, now, l, got, ok, want)
				}
			}
			for _, l := range rng.Perm(links) {
				sendFirst := rng.Intn(2) == 0
				if !sendFirst {
					recv(l)
				}
				if rng.Float64() < load {
					next++
					lines[l].Send(next, now)
					b.Send(l, next, now)
				}
				if sendFirst {
					recv(l)
				}
			}
			inFlight := 0
			for _, line := range lines {
				inFlight += line.InFlight()
			}
			if got := b.InFlight(); got != inFlight {
				t.Fatalf("seed %d, cycle %d: bank InFlight %d, lines %d", seed, now, got, inFlight)
			}
		}
	}
}
