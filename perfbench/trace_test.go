package main

import (
	"context"
	"testing"
	"time"

	"steerq/internal/obs"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span(1, 0, "root", 0, 100*ms),
		// Two concurrent children overlapping on [20, 40): together they
		// cover [10, 60), 50ms, not 30+40.
		span(2, 1, "a", 10*ms, 40*ms),
		span(3, 1, "b", 20*ms, 60*ms),
		// A child sticking out of its parent counts only inside it.
		span(4, 1, "c", 90*ms, 130*ms),
		// A grandchild reduces its parent, not the root.
		span(5, 3, "d", 30*ms, 35*ms),
	}
	spans[1].Inner = map[string]time.Duration{"pipeline.recompile": 12 * ms}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 40 * ms, 2: 18 * ms, 3: 35 * ms, 4: 40 * ms, 5: 5 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestCovered(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		spans []Span
		want  time.Duration
	}{
		{nil, 0},
		{[]Span{span(1, 0, "x", 0, 10*ms), span(2, 0, "x", 10*ms, 20*ms)}, 20 * ms},
		{[]Span{span(1, 0, "x", 0, 30*ms), span(2, 0, "x", 5*ms, 10*ms)}, 30 * ms},
		{[]Span{span(1, 0, "x", 50*ms, 60*ms), span(2, 0, "x", 0, 10*ms)}, 20 * ms},
		{[]Span{span(1, 0, "x", -5*ms, 5*ms)}, 5 * ms},
	} {
		if got := covered(0, 100*ms, c.spans); got != c.want {
			t.Errorf("covered(%v) = %v, want %v", c.spans, got, c.want)
		}
	}
}

func TestAttributeSumsLayersAndChecksRemainder(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span(1, 0, "build", 0, 100*ms),
		span(2, 1, "steering.recompile", 0, 60*ms),
		span(3, 1, "steering.execute", 60*ms, 98*ms),
		span(4, 0, "elsewhere", 0, 500*ms), // not under the root
	}
	spans[1].Inner = map[string]time.Duration{"abtest.compile": 10 * ms}
	a := Attribute(spans, 1)
	if a.Wall != 100*ms || a.Unattributed != 2*ms {
		t.Fatalf("wall %v unattributed %v, want 100ms and 2ms", a.Wall, a.Unattributed)
	}
	if a.Layer["steering.recompile"] != 50*ms || a.Layer["abtest.compile"] != 10*ms || a.Layer["steering.execute"] != 38*ms {
		t.Fatalf("layers %v", a.Layer)
	}
	if _, ok := a.Layer["elsewhere"]; ok {
		t.Fatal("a span outside the root was attributed to it")
	}
	if err := a.Check(); err != nil {
		t.Fatalf("2%% unattributed failed the check: %v", err)
	}
	spans[2].End = 80 * ms
	if err := Attribute(spans, 1).Check(); err == nil {
		t.Fatal("20% unattributed passed the check")
	}
}

// programSelf subtracts each program span's children from it.
func TestProgramSelf(t *testing.T) {
	clk := obs.NewManualClock()
	reg := obs.NewWithClock(clk.Clock())
	ctx, outer := reg.StartSpan(context.Background(), "pipeline.recompile", "job1")
	clk.Advance(3 * time.Millisecond)
	_, inner := reg.StartSpan(ctx, "abtest.compile", "job1/default")
	clk.Advance(5 * time.Millisecond)
	inner.End(obs.OutcomeOK)
	clk.Advance(2 * time.Millisecond)
	outer.End(obs.OutcomeOK)
	got := programSelf(reg)
	if got["pipeline.recompile"] != 5*time.Millisecond || got["abtest.compile"] != 5*time.Millisecond {
		t.Fatalf("program self times %v, want 5ms each", got)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("root", "r1", 0)
	tr.Call("child", "r1", root, func() {})
	tr.Finish(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Run != "r1" {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Fatalf("child not inside root: %+v", spans)
	}
}
