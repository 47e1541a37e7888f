package main

import "time"

// span is one timed call the benchmark makes into a layer. Parent is the
// index of the enclosing span in the same run (-1 for a root); times are
// nanoseconds since the run's tracer started.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs share the traced code path.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// selfTimes returns, per span name, the summed duration minus the part of
// each span its direct children cover, in seconds. Children of one span
// never overlap: the benchmark calls layers sequentially.
func selfTimes(spans []span) map[string]float64 {
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return self
}
