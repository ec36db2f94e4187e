package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/whisper-sim/whisper/internal/telemetry"
)

// span is one timed call into a layer, recorded around the call from
// the benchmark's side. parent is the index of the enclosing span, -1
// at the root.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer records nested spans from a single goroutine. A nil tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	spans []span
	open  []int
	// events is created with the tracer so its time origin precedes
	// every span.
	events *telemetry.TraceBuffer
}

func newTracer() *tracer { return &tracer{events: telemetry.NewTraceBuffer()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Now()
	return t.spans[id].end.Sub(t.spans[id].start)
}

// timed runs f inside a span and returns the span's duration. It works
// on a nil tracer too, so untraced callers get the same timing.
func (t *tracer) timed(name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := t.begin(name)
	f()
	return t.end(id)
}

// rootWall returns the summed duration of the root spans.
func (t *tracer) rootWall() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.parent < 0 {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// coverage divides the wall time of the first root span named root
// among the self times of the spans under it: the share those self
// times cover, and the span name with the largest self time and its
// share.
func (t *tracer) coverage(root string) (covered float64, top string, topShare float64) {
	ri := -1
	for i, s := range t.spans {
		if s.parent < 0 && s.name == root {
			ri = i
			break
		}
	}
	if ri < 0 {
		return 0, "", 0
	}
	wall := t.spans[ri].end.Sub(t.spans[ri].start)
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	self := make(map[string]time.Duration)
	var names []string
	var sum time.Duration
	for i, s := range t.spans {
		under := false
		for p := s.parent; p >= 0; p = t.spans[p].parent {
			if p == ri {
				under = true
				break
			}
		}
		if !under {
			continue
		}
		if _, seen := self[s.name]; !seen {
			names = append(names, s.name)
		}
		d := s.end.Sub(s.start) - child[i]
		self[s.name] += d
		sum += d
	}
	sort.Strings(names)
	for _, n := range names {
		if share := float64(self[n]) / float64(wall); share > topShare {
			top, topShare = n, share
		}
	}
	return float64(sum) / float64(wall), top, topShare
}

// writeChrome writes the spans in the repository's Chrome trace-event
// format; each event carries its span id and its parent's id.
func (t *tracer) writeChrome(path string) error {
	if len(t.spans) == 0 {
		return nil
	}
	for i, s := range t.spans {
		t.events.Add(s.name, "perfbench", telemetry.TIDMain, s.start, s.end.Sub(s.start),
			map[string]any{"id": i, "parent": s.parent})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.events.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
