package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"steerq/internal/obs"
)

// Span is one traced call into a layer's public entry point.
type Span struct {
	ID, Parent int // Parent 0 marks a root
	Name       string
	// Run is shared by the spans of one job or request (a job ID, a
	// request number), so its spans can be read together.
	Run        string
	Start, End time.Duration // offsets from the tracer's start
	// Inner is the self time of the program's own spans (pipeline.*,
	// abtest.*) that ran inside this call, by stage, read from the obs
	// registry. Only leaf calls carry it.
	Inner map[string]time.Duration
}

// Tracer records spans in memory; nothing is written until the run ends.
// Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts a tracer clock.
func NewTracer() *Tracer { return &Tracer{t0: now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name, run string, parent int) int {
	now := now().Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: now})
	return len(t.spans)
}

// Finish closes span id.
func (t *Tracer) Finish(id int) {
	now := now().Sub(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Call runs fn inside a span named name.
func (t *Tracer) Call(name, run string, parent int, fn func()) {
	id := t.Begin(name, run, parent)
	fn()
	t.Finish(id)
}

// CallProgram runs fn inside a span and attributes to it the program spans
// that reg recorded meanwhile. The two registry reads sit in a
// "trace.bookkeeping" span of their own, so their cost is attributed by
// name rather than left in the parent's remainder.
func (t *Tracer) CallProgram(reg *obs.Registry, name, run string, parent int, fn func()) {
	var before map[string]time.Duration
	t.Call("trace.bookkeeping", run, parent, func() { before = programSelf(reg) })
	id := t.Begin(name, run, parent)
	fn()
	t.Finish(id)
	t.Call("trace.bookkeeping", run, parent, func() {
		after := programSelf(reg)
		inner := make(map[string]time.Duration)
		for stage, d := range after {
			if dd := d - before[stage]; dd > 0 {
				inner[stage] = dd
			}
		}
		t.mu.Lock()
		t.spans[id-1].Inner = inner
		t.mu.Unlock()
	})
}

// rootSpan is the root of one traced recomposition: its span ID and, once
// closed, its wall time and the Go runtime's GC and allocation counters
// around it.
type rootSpan struct {
	t                 *Tracer
	id                int
	start             time.Time
	wall              time.Duration
	goBefore, goAfter goStats
}

func (t *Tracer) openRoot(name, run string) *rootSpan {
	return &rootSpan{t: t, goBefore: readGoStats(), start: now(), id: t.Begin(name, run, 0)}
}

func (r *rootSpan) close() {
	r.t.Finish(r.id)
	r.wall = now().Sub(r.start)
	r.goAfter = readGoStats()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// programSelf sums the self time of reg's recorded spans by stage: a
// span's duration minus the durations of the spans whose parent it is.
// The program's spans nest only around serial work, so subtracting child
// durations never double-counts.
func programSelf(reg *obs.Registry) map[string]time.Duration {
	spans := reg.Snapshot().Spans
	children := make(map[string]int64, len(spans))
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] += s.DurationNs
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Stage] += time.Duration(s.DurationNs - children[s.Path])
	}
	return out
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once), minus the program-span time recorded inside it.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
		for _, d := range s.Inner {
			self -= d
		}
		out[s.ID] = self
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(lo, hi time.Duration, spans []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Attribution splits a root span's wall time into layer self times.
type Attribution struct {
	Root  string
	Wall  time.Duration
	Layer map[string]time.Duration // span names and program stages
	// Unattributed is Wall minus the layers' sum: the root's own self time,
	// i.e. work between the traced calls.
	Unattributed time.Duration
}

// attributionTolerance is the share of a root's wall time that may stay
// unattributed before the check fails.
const attributionTolerance = 0.05

// Attribute totals the self times of root and its descendants by layer.
func Attribute(spans []Span, root int) Attribution {
	self := SelfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	under := func(id int) bool {
		for id != 0 {
			if id == root {
				return true
			}
			id = byID[id].Parent
		}
		return false
	}
	r := byID[root]
	a := Attribution{Root: r.Name, Wall: r.End - r.Start, Layer: make(map[string]time.Duration)}
	var sum time.Duration
	for _, s := range spans {
		if s.ID == root || !under(s.ID) {
			continue
		}
		a.Layer[s.Name] += self[s.ID]
		sum += self[s.ID]
		for stage, d := range s.Inner {
			a.Layer[stage] += d
			sum += d
		}
	}
	a.Unattributed = a.Wall - sum
	return a
}

// Check reports an error when the unattributed share exceeds the tolerance.
func (a Attribution) Check() error {
	if a.Wall <= 0 {
		return fmt.Errorf("attribution: root %s has no wall time", a.Root)
	}
	if frac := a.Unattributed.Seconds() / a.Wall.Seconds(); frac > attributionTolerance || frac < -attributionTolerance {
		return fmt.Errorf("attribution: %.1f%% of %s's %v is unattributed (self time of %s), tolerance %.0f%%",
			100*frac, a.Root, a.Wall, a.Root, 100*attributionTolerance)
	}
	return nil
}

// layerSeconds is the self time of one layer in seconds (0 when absent).
func (a Attribution) layerSeconds(name string) float64 { return a.Layer[name].Seconds() }

// spanTotal is the summed duration of every span named name (inclusive of
// its children), and how many there were.
func spanTotal(spans []Span, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return d, n
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
