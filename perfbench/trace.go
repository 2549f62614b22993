package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans and counts of a traced run in memory; they are
// written once, when the run ends.  Every method is a no-op on a nil
// tracer, which is how the untraced path runs.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

// span is one timed call into a layer.  Spans of one simulation point
// share a Trace ID; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// newTrace allocates an ID for the spans of one point.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// start opens a span under parent (nil for a root).  A zero trace
// inherits the parent's.
func (t *tracer) start(layer, name string, parent *span, trace int64) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: t.ids.Add(1), Layer: layer, Name: name, Trace: trace}
	if parent != nil {
		s.Parent = parent.ID
		if trace == 0 {
			s.Trace = parent.Trace
		}
	}
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	s.Start = int64(time.Since(t.epoch))
	return s
}

// finish closes s and keeps it.
func (t *tracer) finish(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// add bumps a named count recorded at a layer boundary.
func (t *tracer) add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// mark is a point in a traced run: the spans and counts recorded so
// far.
type mark struct {
	spans  int
	counts map[string]int64
}

func (t *tracer) mark() mark {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := mark{spans: len(t.spans), counts: map[string]int64{}}
	for k, v := range t.counts {
		m.counts[k] = v
	}
	return m
}

// since returns the spans finished and the counts added after m.
func (t *tracer) since(m mark) ([]span, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := map[string]int64{}
	for k, v := range t.counts {
		counts[k] = v - m.counts[k]
	}
	return slices.Clone(t.spans[m.spans:]), counts
}

// named returns the spans whose name is one of names.
func named(spans []span, names ...string) []span {
	var out []span
	for _, s := range spans {
		if slices.Contains(names, s.Name) {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS lists span durations in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds() * 1e3
	}
	return out
}

// selfTime sums, per layer, each span's duration minus the part of it
// its children cover.  Children running in parallel overlap, so their
// cover is the union of their intervals.
func selfTime(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Layer] += s.dur() - time.Duration(covered)
	}
	return self
}

// write stores the spans and counts with the run record as one JSON
// document.
func (t *tracer) write(path string, rec record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Record record           `json:"record"`
		Counts map[string]int64 `json:"counts"`
		Spans  []span           `json:"spans"`
	}{rec, t.counts, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
