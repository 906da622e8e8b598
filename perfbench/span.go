package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call made by the benchmark into a layer of the
// program: its name, when it started and ended, the span that caused it
// (0 for a root) and the request it belongs to. Spans of one replayed
// request share Req.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // offset from the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the HTTP replay records client and handler spans from
// different goroutines.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Do runs f inside a new span and returns the span's id and duration.
func (t *Tracer) Do(req, parent int, name string, f func()) (int, time.Duration) {
	start := time.Since(t.epoch)
	f()
	end := time.Since(t.epoch)
	return t.Add(Span{Req: req, Parent: parent, Name: name, Start: start, End: end}), end - start
}

// Begin starts a span whose end is recorded by calling the returned func;
// the returned id may parent spans started before it ends.
func (t *Tracer) Begin(req, parent int, name string) (id int, end func()) {
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Req: req, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	t.mu.Unlock()
	return id, func() {
		now := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// Add records a finished span and returns its id.
func (t *Tracer) Add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the wall time of every span with the given name, in
// recording order.
func (t *Tracer) Durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// SelfTimes returns, for every span with the given name, its duration
// minus the part of its interval covered by its children.
func (t *Tracer) SelfTimes(name string) []time.Duration {
	spans := t.Spans()
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, selfTime(s, children[s.ID]))
		}
	}
	return out
}

// WriteFile writes every span as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is the parent's duration minus the length of the union of its
// children's intervals, each clipped to the parent. Children that overlap
// one another (the parallel calls of a fan-out) are counted once, not once
// per child, so self time never goes negative.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.Dur() - covered
}
