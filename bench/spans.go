package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary.  Spans of one job share
// Job (the id of the job's root span); Parent is the span that caused this
// one, 0 for a root.  Times are microseconds since the tracer started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Job     int     `json:"job"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, which is how the untraced run shares code with the traced one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	job := id
	if parent > 0 {
		job = t.spans[parent-1].Job
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		StartUs: float64(start.Sub(t.t0)) / 1e3, EndUs: float64(end.Sub(t.t0)) / 1e3,
	})
	return id
}

// begin opens a span now; end closes it.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].EndUs = float64(now.Sub(t.t0)) / 1e3
	t.mu.Unlock()
}

// selfTimes returns each span's self time in microseconds, indexed by
// id-1: its duration minus the part of its interval that its child spans
// cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int {
			switch {
			case spans[a].StartUs < spans[b].StartUs:
				return -1
			case spans[a].StartUs > spans[b].StartUs:
				return 1
			}
			return 0
		})
		covered, edge := 0.0, s.StartUs
		for _, k := range kids {
			lo, hi := max(spans[k].StartUs, edge), min(spans[k].EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.EndUs - s.StartUs) - covered
	}
	return self
}

// write stores the spans as one JSON array under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}
