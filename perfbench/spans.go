package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory and are written out when the run ends. A nil
// tracer records nothing, so untraced iterations pay one nil check per
// call.
type tracer struct {
	origin time.Time
	spans  []span
}

// span is one timed call; Parent is the 1-based id of the enclosing
// span, 0 for a root.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Seconds()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin).Seconds()
}

// record adds a span measured elsewhere.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds()})
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// summary prints each root span name's total and self time (total
// minus the time its child spans cover).
func (t *tracer) summary(w io.Writer) {
	type agg struct{ total, child float64 }
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		if byName[s.Name] == nil {
			byName[s.Name] = &agg{}
			names = append(names, s.Name)
		}
		byName[s.Name].total += s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			if p.Parent == 0 {
				byName[p.Name].child += s.End - s.Start
			}
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %10s %10s\n", "span", "total_s", "self_s")
	for _, n := range names {
		a := byName[n]
		self := a.total - a.child
		if self < 0 {
			self = 0 // parallel children can cover more than the parent's wall
		}
		fmt.Fprintf(w, "%-22s %10.4f %10.4f\n", n, a.total, self)
	}
}
