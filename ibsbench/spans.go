package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program:
// name, start and end (offsets from the recorder's epoch), the span that
// caused it (0 for none), the request it served (0 outside the serve
// workloads), and the work it did, in instructions, for throughput metrics.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A disabled recorder
// (the untraced runs that measure end-to-end metrics) records nothing and
// hands out id 0, so call sites need no branches.
type recorder struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent int, req int64) int {
	if !r.on {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id, crediting it with work instructions.
func (r *recorder) end(id int, work int64) {
	if !r.on || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Work = work
}

// timed records fn as one span with the given work.
func (r *recorder) timed(name string, parent int, req, work int64, fn func() error) error {
	id := r.start(name, parent, req)
	err := fn()
	r.end(id, work)
	return err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTotals is what the per-layer metrics are derived from: for every
// span name, the summed self time, the summed work and the span count.
type layerTotals struct {
	self  time.Duration
	work  int64
	count int
}

// totals aggregates self time and work by span name. A span's self time is
// its duration minus the part of it that its children cover; overlapping
// children (the serve workloads' concurrent clients) are counted once.
func totals(spans []span) map[string]layerTotals {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.self += selfTime(s, children[s.ID])
		t.work += s.Work
		t.count++
		out[s.Name] = t
	}
	return out
}

// selfTime returns s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.dur() - time.Duration(covered)
}
