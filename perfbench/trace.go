package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's ID, 0 for an operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so untraced
// runs pay one nil check per span site.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanRef is an open span; end closes it. The zero value is a no-op.
type spanRef struct {
	t      *tracer
	id     int64
	op     int64
	parent int64
	name   string
	start  time.Time
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(t.ops.Add(1), 0, name)
}

func (t *tracer) open(op, parent int64, name string) spanRef {
	return spanRef{t: t, id: t.ids.Add(1), op: op, parent: parent, name: name, start: time.Now()}
}

// child opens a span nested in s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(s.op, s.id, name)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	sp := span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: int64(s.start.Sub(s.t.base)), End: int64(end.Sub(s.t.base))}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTime is one span name's total and self time over a run.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its child spans cover (children may overlap each
// other when they run concurrently, so the covered part is their union).
func selfTimes(spans []span) []selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeTrace writes the spans and their per-name self times to path.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span     `json:"spans"`
		Self  []selfTime `json:"self"`
	}{spans, selfTimes(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
