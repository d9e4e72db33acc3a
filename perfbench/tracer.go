package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
)

// tracer records spans from the benchmark's own code around each call
// into a layer. Spans stay in memory and are written out when the run
// ends. A nil *tracer is the untraced pass: every method is a no-op, so
// the workload code is the same in both passes.
type tracer struct {
	now func() int64

	mu    sync.Mutex
	spans []span
	lost  uint64 // spans beyond maxSpans: timed, not kept
}

type span struct {
	name       string
	parent     int32 // -1 for a root
	start, end int64
}

// maxSpans bounds the kept spans (~40 B each).
const maxSpans = 4 << 20

func newTracer(now func() int64) *tracer { return &tracer{now: now} }

// begin opens a span and returns its id; parent is -1 for a root.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	s := span{name: name, parent: int32(parent), start: t.now()}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.lost++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	e := t.now()
	t.mu.Lock()
	t.spans[id].end = e
	t.mu.Unlock()
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	durMS  []float64
	totalN int64 // summed duration, ns
	selfN  int64 // summed self time, ns
}

// aggregate groups closed spans by name, with each span's self time: its
// duration minus the part of it covered by the union of its children.
func (t *tracer) aggregate() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]int32{}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.durMS = append(st.durMS, float64(d)/1e6)
		st.totalN += d
		st.selfN += d - covered(t.spans, children[int32(i)])
	}
	return out
}

// covered returns the length of the union of the children's intervals.
func covered(spans []span, kids []int32) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		if s := spans[k]; s.end != 0 {
			iv = append(iv, [2]int64{s.start, s.end})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, lo, hi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > hi {
			if open {
				sum += hi - lo
			}
			lo, hi, open = x[0], x[1], true
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	if open {
		sum += hi - lo
	}
	return sum
}

// writeTSV writes every kept span as id, parent, name, start and end
// (ns), and says how many were kept and how many were over the cap.
func (t *tracer) writeTSV(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	fmt.Printf("spans: %d kept in %s, %d over the cap\n", len(t.spans), path, t.lost)
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "id\tparent\tname\tstart_ns\tend_ns\n")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
