package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: the union counts once
		{Name: "a", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - (50 + 10), // children cover [10,60) and [90,100)
		"a":    (30 - 8) + 30,
		"b":    30,
		"leaf": 8,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.time("root", func() {
		tr.time("child", func() { tr.time("grandchild", func() {}) })
		tr.time("child", func() {})
	})
	tr.iter++
	tr.time("root", func() {})
	var parents, iters []int
	for _, s := range tr.spans {
		parents = append(parents, s.Parent)
		iters = append(iters, s.Iteration)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	wantParents, wantIters := []int{-1, 0, 1, 0, -1}, []int{0, 0, 0, 0, 1}
	for i := range wantParents {
		if parents[i] != wantParents[i] || iters[i] != wantIters[i] {
			t.Fatalf("parents %v iterations %v, want %v %v", parents, iters, wantParents, wantIters)
		}
	}
	var nilTracer *tracer
	ran := false
	if nilTracer.time("x", func() { ran = true }); !ran {
		t.Error("a nil tracer must still run the call")
	}
}
