package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: its name, when it started and
// ended (ns since the tracer's epoch), the span that caused it, and the
// timed op it belongs to (-1 for set-up).
type span struct {
	name       string
	start, end int64
	parent     int
	op         int
}

// tracer records spans around the benchmark's calls into each layer. It
// runs on the single client goroutine and keeps every span in memory until
// the run ends. A nil *tracer records nothing, so the untraced run calls
// the same code with no per-call cost beyond a nil check.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOp tags the spans that follow with op index i (-1 for set-up).
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.endAt(id, t.now())
}

func (t *tracer) endAt(id int, at int64) {
	t.spans[id].end = at
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a closed child span of parent over [start, end]: an interval
// a layer timed itself (the kernel wall from radio.Perf) or one bounded by
// a hook the layer calls (the last CNet delta of a build).
func (t *tracer) add(parent int, name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: t.spans[parent].op})
}

// selfTimes returns each span's self time: its duration minus the part of
// it covered by the union of its children's intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach int64
	reach = parent.start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// layerTime is the self time and call count of one span name.
type layerTime struct {
	calls  int
	selfNs int64
}

// aggregate sums self time per span name, separately for set-up spans and
// for spans of timed ops.
func aggregate(spans []span) (setup, timed map[string]layerTime) {
	self := selfTimes(spans)
	setup, timed = map[string]layerTime{}, map[string]layerTime{}
	for i, s := range spans {
		dst := timed
		if s.op < 0 {
			dst = setup
		}
		lt := dst[s.name]
		lt.calls++
		lt.selfNs += self[i]
		dst[s.name] = lt
	}
	return setup, timed
}
