package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the simulator. All spans
// of a cell share its cell ID; Parent is 0 for the root cell span.
type span struct {
	Cell    string `json:"cell"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced pass began
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced runs pay only the time.Now calls that timing needs anyway.
type tracer struct {
	t0    time.Time
	last  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// newID reserves a span ID for a span recorded after its children.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.last++
	return t.last
}

// record keeps one finished span.
func (t *tracer) record(cell string, id, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Cell: cell, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
}

// span records a child span from start to now and returns its duration.
func (t *tracer) span(cell string, parent int, name string, start time.Time) time.Duration {
	end := now()
	t.record(cell, t.newID(), parent, name, start, end)
	return end.Sub(start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// totals sums span durations by name, in seconds.
func totals(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
	}
	return out
}

// selfTimes sums, by span name, each span's duration minus the part of its
// interval that its child spans cover, in seconds.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.EndNS-s.StartNS-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.StartNS
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

func spanFile(dir, workload string, seed uint64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
