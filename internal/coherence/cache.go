package coherence

import "fmt"

// LineState is the MESI state of an L1 line, or the directory-visible
// state of an L2 line.
type LineState int8

// L1 MESI states.  The L2 directory reuses Invalid/Shared/Modified
// (an L1 holding E or M is "Modified" from the directory's viewpoint:
// it is the owner and must be recalled).
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("LineState(%d)", int8(s))
	}
}

// Line is one cache line's bookkeeping (tags only; data values are not
// modelled — coherence is checked on states, not contents).
type Line struct {
	Tag   uint64
	State LineState
	Dirty bool
	lru   int64

	// Directory fields (used by L2 lines only).
	Sharers map[int]bool
	Owner   int // owning L1 node when the directory state is Modified
}

// Cache is a set-associative tag store with LRU replacement, shared by
// the L1s (32 KB) and L2 banks (256 KB) of Table 1.  A set's ways
// appear on its first install: until then the set is nil and reads as
// all-Invalid, so a short run pays only for the sets it touches.
type Cache struct {
	sets      int
	ways      int
	blockBits uint
	lines     [][]Line // [set][way]; a nil set has never been installed into
	tick      int64
}

// NewCache builds a cache of the given total capacity.  capacityBytes
// must be a multiple of blockBytes×ways and the set count must be a
// power of two.  Only the set index is allocated here; each set's ways
// are allocated by the first VictimFor that lands in it.
func NewCache(capacityBytes, blockBytes, ways int) *Cache {
	if capacityBytes <= 0 || blockBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("coherence: NewCache(%d, %d, %d)", capacityBytes, blockBytes, ways))
	}
	blocks := capacityBytes / blockBytes
	if blocks%ways != 0 {
		panic(fmt.Sprintf("coherence: %d blocks not divisible by %d ways", blocks, ways))
	}
	sets := blocks / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("coherence: set count %d not a power of two", sets))
	}
	bits := uint(0)
	for 1<<bits < blockBytes {
		bits++
	}
	if 1<<bits != blockBytes {
		panic(fmt.Sprintf("coherence: block size %d not a power of two", blockBytes))
	}
	return &Cache{sets: sets, ways: ways, blockBits: bits, lines: make([][]Line, sets)}
}

// BlockAddr converts a byte address to a block address.
func (c *Cache) BlockAddr(byteAddr uint64) uint64 { return byteAddr >> c.blockBits }

func (c *Cache) set(block uint64) int { return int(block % uint64(c.sets)) }

// Lookup returns the line holding the block, or nil.  A hit refreshes
// the line's LRU stamp.
func (c *Cache) Lookup(block uint64) *Line {
	c.tick++
	set := c.lines[c.set(block)]
	for w := range set {
		l := &set[w]
		if l.State != Invalid && l.Tag == block {
			l.lru = c.tick
			return l
		}
	}
	return nil
}

// Peek is Lookup without the LRU refresh (for introspection/tests).
func (c *Cache) Peek(block uint64) *Line {
	set := c.lines[c.set(block)]
	for w := range set {
		l := &set[w]
		if l.State != Invalid && l.Tag == block {
			return l
		}
	}
	return nil
}

// VictimFor returns the line to install the block into: an invalid way
// if one exists, else the least-recently-used way whose badness is
// lowest according to prefer (lower is better; used by the L2 to avoid
// evicting owned lines).  The returned line still holds the victim's
// previous contents; the caller handles eviction and then Install.
// VictimFor is the only way to a line for Install, so it is where an
// untouched set gets its ways.
func (c *Cache) VictimFor(block uint64, prefer func(*Line) int) *Line {
	s := c.set(block)
	if c.lines[s] == nil {
		c.lines[s] = make([]Line, c.ways)
	}
	set := c.lines[s]
	var victim *Line
	for w := range set {
		l := &set[w]
		if l.State == Invalid {
			return l
		}
		if victim == nil {
			victim = l
			continue
		}
		if prefer != nil {
			if pb, pv := prefer(l), prefer(victim); pb != pv {
				if pb < pv {
					victim = l
				}
				continue
			}
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Install resets the line to hold the block in the given state.
func (c *Cache) Install(l *Line, block uint64, state LineState) {
	c.tick++
	*l = Line{Tag: block, State: state, lru: c.tick}
}

// Walk calls fn on every valid line, in set then way order (for
// invariant checks and occupancy accounting).
func (c *Cache) Walk(fn func(*Line)) {
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.lines[s][w].State != Invalid {
				fn(&c.lines[s][w])
			}
		}
	}
}
