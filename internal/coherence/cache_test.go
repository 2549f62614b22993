package coherence

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the reference tag store for TestCacheMatchesEagerModel:
// every set preallocated up front, exactly the layout Cache had before
// sets became allocate-on-first-install.  Its replacement logic is
// written out independently so the two can be driven side by side.
type refCache struct {
	sets  int
	lines [][]Line
	tick  int64
}

func newRefCache(capacityBytes, blockBytes, ways int) *refCache {
	sets := capacityBytes / blockBytes / ways
	r := &refCache{sets: sets, lines: make([][]Line, sets)}
	for s := range r.lines {
		r.lines[s] = make([]Line, ways)
	}
	return r
}

func (r *refCache) find(block uint64) *Line {
	set := r.lines[block%uint64(r.sets)]
	for w := range set {
		if set[w].State != Invalid && set[w].Tag == block {
			return &set[w]
		}
	}
	return nil
}

func (r *refCache) lookup(block uint64) *Line {
	r.tick++
	l := r.find(block)
	if l != nil {
		l.lru = r.tick
	}
	return l
}

func (r *refCache) victimFor(block uint64, prefer func(*Line) int) *Line {
	set := r.lines[block%uint64(r.sets)]
	best := -1
	for w := range set {
		if set[w].State == Invalid {
			return &set[w]
		}
		if best < 0 {
			best = w
			continue
		}
		pw, pb := 0, 0
		if prefer != nil {
			pw, pb = prefer(&set[w]), prefer(&set[best])
		}
		if pw < pb || (pw == pb && set[w].lru < set[best].lru) {
			best = w
		}
	}
	return &set[best]
}

func (r *refCache) install(l *Line, block uint64, state LineState) {
	r.tick++
	*l = Line{Tag: block, State: state, lru: r.tick}
}

func (r *refCache) walk(fn func(*Line)) {
	for s := range r.lines {
		for w := range r.lines[s] {
			if r.lines[s][w].State != Invalid {
				fn(&r.lines[s][w])
			}
		}
	}
}

// lineKey renders every field of a line that the protocol reads, so two
// lines compare equal only if they are interchangeable.
func lineKey(l *Line) string {
	if l == nil {
		return "<nil>"
	}
	return fmt.Sprintf("a%x %v dirty=%v lru=%d owner=%d sharers=%d", l.Tag, l.State, l.Dirty, l.lru, l.Owner, len(l.Sharers))
}

func walkKeys(walk func(func(*Line))) []string {
	var out []string
	walk(func(l *Line) { out = append(out, lineKey(l)) })
	return out
}

// TestCacheMatchesEagerModel drives Cache and the eager refCache with
// the same seeded random stream of Lookup, Peek, VictimFor (plain and
// with an L2-style preference), Install and in-place line updates, and
// demands identical results at every step: hits and misses, the victim
// chosen and its contents, and the full Walk sequence.  Blocks are
// drawn mostly from a few hot sets, so ways fill and evict, while most
// sets stay untouched.
func TestCacheMatchesEagerModel(t *testing.T) {
	geoms := []struct {
		name                  string
		capacity, block, ways int
	}{
		{"L1", 32 * 1024, 16, 4},
		{"L2", 256 * 1024, 16, 8},
		{"one-set", 4 * 16, 16, 4},
		{"test-L1", 16 * 16, 16, 4},
		{"test-L2", 64 * 16, 16, 4},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				c := NewCache(g.capacity, g.block, g.ways)
				ref := newRefCache(g.capacity, g.block, g.ways)
				rng := rand.New(rand.NewSource(seed))
				hot := make([]uint64, 6)
				for i := range hot {
					hot[i] = uint64(rng.Intn(c.sets))
				}
				block := func() uint64 {
					s := hot[rng.Intn(len(hot))]
					if rng.Intn(10) == 0 {
						s = uint64(rng.Intn(c.sets))
					}
					return s + uint64(c.sets)*uint64(rng.Intn(2*g.ways))
				}
				// busy stands in for the L2's transaction table.
				busy := map[uint64]bool{}
				prefer := func(l *Line) int {
					switch {
					case busy[l.Tag]:
						return 3
					case l.State == Modified:
						return 2
					case len(l.Sharers) > 0:
						return 1
					default:
						return 0
					}
				}
				for step := 0; step < 3000; step++ {
					b := block()
					switch op := rng.Intn(10); {
					case op < 3:
						got, want := lineKey(c.Lookup(b)), lineKey(ref.lookup(b))
						if got != want {
							t.Fatalf("step %d Lookup(a%x) = %s, want %s", step, b, got, want)
						}
					case op < 5:
						got, want := lineKey(c.Peek(b)), lineKey(ref.find(b))
						if got != want {
							t.Fatalf("step %d Peek(a%x) = %s, want %s", step, b, got, want)
						}
					case op < 8:
						if c.Peek(b) != nil {
							continue // the controllers never install a resident block
						}
						var p func(*Line) int
						if rng.Intn(2) == 0 {
							p = prefer
						}
						v, rv := c.VictimFor(b, p), ref.victimFor(b, p)
						if got, want := lineKey(v), lineKey(rv); got != want {
							t.Fatalf("step %d VictimFor(a%x) = %s, want %s", step, b, got, want)
						}
						state := LineState(1 + rng.Intn(3))
						c.Install(v, b, state)
						ref.install(rv, b, state)
						if rng.Intn(3) == 0 {
							v.Sharers, rv.Sharers = map[int]bool{1: true}, map[int]bool{1: true}
						}
					default:
						// In-place updates the protocol makes through Peek:
						// upgrades, invalidations, transactions opening.
						l, rl := c.Peek(b), ref.find(b)
						if (l == nil) != (rl == nil) {
							t.Fatalf("step %d Peek(a%x) residency differs", step, b)
						}
						if l == nil {
							continue
						}
						switch rng.Intn(3) {
						case 0:
							l.State, rl.State = Modified, Modified
							l.Dirty, rl.Dirty = true, true
						case 1:
							l.State, rl.State = Invalid, Invalid
						default:
							busy[b] = !busy[b]
						}
					}
					if step%100 == 0 {
						assertSameWalk(t, step, c, ref)
					}
				}
				assertSameWalk(t, -1, c, ref)
			})
		}
	}
}

func assertSameWalk(t *testing.T, step int, c *Cache, ref *refCache) {
	t.Helper()
	got, want := walkKeys(c.Walk), walkKeys(ref.walk)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("step %d Walk diverges:\n got %v\nwant %v", step, got, want)
	}
}

// TestCacheUntouchedSetsAllocFree pins the read side of allocate-on-
// first-install: probing or walking sets that were never installed into
// costs no allocation, whether or not other sets are populated.
func TestCacheUntouchedSetsAllocFree(t *testing.T) {
	c := NewCache(256*1024, 16, 8)
	// Each run probes sets no earlier run touched, so a lazy allocation
	// on the read path cannot hide behind AllocsPerRun's warm-up run.
	next, n := uint64(100), 0
	probe := func() {
		c.Lookup(next)
		c.Peek(next + 1)
		c.Walk(func(*Line) { n++ })
		next += 2
	}
	if a := testing.AllocsPerRun(10, probe); a != 0 {
		t.Errorf("fresh cache: %.1f allocs per Lookup+Peek+Walk, want 0", a)
	}
	c.Install(c.VictimFor(3, nil), 3, Shared)
	if a := testing.AllocsPerRun(10, probe); a != 0 {
		t.Errorf("one set touched: %.1f allocs per Lookup+Peek+Walk, want 0", a)
	}
	if c.Peek(3) == nil || c.Lookup(next) != nil {
		t.Error("installed block missing or untouched set reports a hit")
	}
}
