package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans the benchmark records around its own calls into each layer's
// public functions. Nothing here lives inside the program under test: the
// traced run times the calls from outside, keeps the spans in memory, and
// writes them as one JSON file when it ends.

// span is one timed call. Parent is the ID of the span that caused it (0
// for a root); spans of one job share Job.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Job     int    `json:"job"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder collects spans; safe for the two client goroutines of serve-mix.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, job int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: job, Name: name, StartNs: now})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return s.dur()
}

// child records an already-measured interval ending where its parent ends:
// the daemon-reported run time inside a coordinator call, which the
// benchmark cannot observe directly.
func (r *recorder) child(name string, parent int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: p.Job, Name: name,
		StartNs: p.EndNs - int64(d), EndNs: p.EndNs})
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, job int, fn func()) time.Duration {
	id := r.begin(name, parent, job)
	fn()
	return r.end(id)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON dumps every span to path.
func (r *recorder) writeJSON(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are counted
// once and a child is clipped to its parent's interval, so self time is
// never negative and never folded into a neighbour.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for id, s := range byID {
		cs := kids[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		var covered, edge int64 = 0, s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, edge), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = s.dur() - time.Duration(covered)
	}
	return self
}
