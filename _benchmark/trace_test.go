package main

import "testing"

func TestSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},  // adjacent to b
		{name: "b", start: 30, end: 50, parent: 0},  // adjacent to a
		{name: "a1", start: 15, end: 20, parent: 1}, // nested in a
		{name: "c", start: 40, end: 60, parent: 0},  // overlaps b
		{name: "d", start: 90, end: 120, parent: 0}, // runs past its parent
		{name: "e", start: 70, end: 70, parent: 0},  // empty
	}
	want := []int64{
		100 - (20 + 20 + 10 + 10), // op: a∪b∪c∪d clipped = [10,60] ∪ [90,100]
		20 - 5,                    // a minus a1
		20, 5, 20, 30, 0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s self %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerNestsAndAggregates(t *testing.T) {
	tr := newTracer()
	s := tr.begin("setup")
	tr.end(s)
	tr.setOp(0)
	op := tr.begin("core.leave")
	in := tr.begin("cnet.move_out")
	tr.end(in)
	tr.add(op, "synthetic", tr.spans[in].end, tr.spans[in].end)
	tr.end(op)
	if tr.spans[in].parent != op || tr.spans[op].parent != -1 || tr.spans[s].op != -1 || tr.spans[op].op != 0 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if len(tr.stack) != 0 {
		t.Fatalf("open spans left: %v", tr.stack)
	}
	setup, timed := aggregate(tr.spans)
	if setup["setup"].calls != 1 || timed["core.leave"].calls != 1 || timed["cnet.move_out"].calls != 1 {
		t.Errorf("setup %v timed %v", setup, timed)
	}
	leave := tr.spans[op]
	if got := timed["core.leave"].selfNs + timed["cnet.move_out"].selfNs + timed["synthetic"].selfNs; got != leave.end-leave.start {
		t.Errorf("self times sum to %d, span is %d", got, leave.end-leave.start)
	}

	var off *tracer // the untraced run's tracer records nothing
	off.setOp(3)
	off.end(off.begin("x"))
	off.add(0, "y", 0, 1)
}
