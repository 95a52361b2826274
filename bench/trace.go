package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/mapreduce"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the id of the span that caused this one (0 for a root).
// A derived span was not timed here: its length comes from the Stats the
// engine returned, and it is laid out back to back from its parent's
// start, so only its length and parent are meaningful.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Job     int    `json:"job"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUS-s.StartUS) * time.Microsecond }

// tracer holds the spans of a run in memory; write stores them at exit.
type tracer struct {
	t0    time.Time
	spans []span
	// cursor is where the next derived child of a span starts.
	cursor map[int]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cursor: map[int]int64{}} }

func (t *tracer) now() int64 { return time.Since(t.t0).Microseconds() }

func (t *tracer) start(name string, parent, job int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, StartUS: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].EndUS = t.now() }

// derive adds a child of parent that lasted d, after the derived
// children parent already has.
func (t *tracer) derive(name string, parent, job int, d time.Duration) int {
	begin, ok := t.cursor[parent]
	if !ok {
		begin = t.spans[parent-1].StartUS
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		StartUS: begin, EndUS: begin + d.Microseconds(), Derived: true})
	t.cursor[parent] = begin + d.Microseconds()
	return id
}

// phases derives the map, shuffle and reduce children of a span from the
// Stats of the MapReduce job (or jobs) it covers.
func (t *tracer) phases(parent, job int, st mapreduce.Stats) {
	t.derive("map", parent, job, st.MapWall)
	t.derive("shuffle", parent, job, st.ShuffleWall)
	t.derive("reduce", parent, job, st.ReduceWall)
}

// selfTimes returns each span's duration minus its children's, by id.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
