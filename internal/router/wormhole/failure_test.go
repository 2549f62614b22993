package wormhole

import (
	"fmt"
	"strings"
	"testing"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

// Failure injection: stepping skips routers on the strength of the
// banks' due flags, the busy marks and the routed counts, so the checks
// behind those shortcuts must still fire when the state under them is
// corrupted.

// panicMsg runs f and returns its panic message, or "" if f returns.
func panicMsg(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// hotSpot offers every other node a data worm to one destination each
// cycle, so ejection contention backs worms up in input VCs.
func (h *harness) hotSpot(dst geom.Coord) {
	mesh := h.cfg.Mesh()
	for node := 0; node < mesh.Nodes(); node += 2 {
		if src := mesh.CoordOf(node); src != dst {
			h.e.Inject(node, h.pkt(src, dst, packet.Data), h.now)
		}
	}
}

// A flit left in the flit bank past its delivery cycle means a router
// skipped a collection.  receive returns early when no due flag is set,
// but the stale flit keeps its flag, so the bank still refuses to go
// on.  Stepping jumps over the arrival cycle of an in-flight flit, to
// the next cycle that reads the same bank plane.
func TestUncollectedFlitCaught(t *testing.T) {
	h := whHarness(t)
	h.e.Inject(0, h.pkt(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 3, Y: 3}, packet.Ctrl), 0)
	for h.e.flitLinks.InFlight() == 0 {
		if h.now > 100 {
			t.Fatal("flit never left the NI")
		}
		h.steps(1)
	}
	p := int64(h.cfg.HopDelay())
	sent := h.now - 1
	msg := panicMsg(func() { h.e.Step(sent + p + (p + 1)) })
	if !strings.Contains(msg, "not collected") {
		t.Fatalf("skipped collection went undetected (panic: %q)", msg)
	}
}

// An input lane forwards at most one flit per cycle, which is what
// lets one credit slot per lane carry its credits.  Granting one input
// VC twice in a cycle — an arbitration that ignored the lane stamps —
// must overrun the credit slot, not lose a credit.
func TestCreditSlotOverrunCaught(t *testing.T) {
	h := whHarness(t)
	dst := geom.Coord{X: 3, Y: 3}
	for h.now < 200 {
		h.hotSpot(dst)
		h.steps(1)
		n, d, v, o, ok := h.backedUpVC()
		if !ok {
			continue
		}
		h.e.flitLinks.Advance(h.now)
		h.e.creditLinks.Advance(h.now)
		r := request{port: d, vc: v}
		h.e.grant(n, o, r, h.now, &h.e.fx0)
		msg := panicMsg(func() { h.e.grant(n, o, r, h.now, &h.e.fx0) })
		if want := fmt.Sprintf("overrun on link %d ", n.up[d]); !strings.Contains(msg, want) {
			t.Fatalf("second grant from %v/%v vc %d in one cycle went undetected (panic: %q)", n.c, d, v, msg)
		}
		return
	}
	t.Fatal("hot spot never backed two flits up in a routed VC")
}

// backedUpVC finds an input VC holding at least two flits of a routed
// worm, and the output the worm is routed to.
func (h *harness) backedUpVC() (n *node, d geom.Dir, v int, o geom.Dir, ok bool) {
	e := h.e
	for _, n := range e.nodes {
		for _, d := range geom.LinkDirs {
			for v := 0; v < e.nvc; v++ {
				wi, bit := int(d)*e.words+v>>6, uint64(1)<<uint(v&63)
				if n.cnt[int(d)*e.nvc+v] < 2 || n.act[wi]&bit == 0 {
					continue
				}
				for _, o := range geom.OutputDirs {
					if n.want[int(o)*e.wper+wi]&bit != 0 {
						return n, d, v, o, true
					}
				}
			}
		}
	}
	return nil, 0, 0, 0, false
}

// A router whose busy mark is cleared while it holds flits would never
// be stepped again; Audit — and with it sim.Run's periodic and drain
// audits — must report it rather than let the worms wedge silently.
// The same holds for a routed count that drifts from the worms routed.
func TestAuditCatchesSkipInvariants(t *testing.T) {
	h := whHarness(t)
	dst := geom.Coord{X: 3, Y: 3}
	for i := 0; i < 40; i++ {
		h.hotSpot(dst)
		h.steps(1)
	}
	if err := h.e.Audit(); err != nil {
		t.Fatalf("healthy engine failed audit: %v", err)
	}
	var loaded *node
	for _, n := range h.e.nodes {
		if holdsFlits(n) && n.ni.Backlog() == 0 {
			loaded = n
			break
		}
	}
	if loaded == nil {
		t.Fatal("no router holds flits with an empty NI")
	}

	loaded.busy = false
	err := h.e.Audit()
	if err == nil || !strings.Contains(err.Error(), "not marked busy") {
		t.Errorf("cleared busy mark on loaded router %v: Audit = %v", loaded.c, err)
	}
	loaded.busy = true

	loaded.routed[geom.Local]++
	err = h.e.Audit()
	if err == nil || !strings.Contains(err.Error(), "routed worms") {
		t.Errorf("drifted routed count on router %v: Audit = %v", loaded.c, err)
	}
	loaded.routed[geom.Local]--
	if err := h.e.Audit(); err != nil {
		t.Errorf("restored engine failed audit: %v", err)
	}
}
