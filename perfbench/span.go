package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// program. Spans of one operation share Op; Parent links a span to the
// call that caused it (0 for an operation's root).
type Span struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Op     uint64            `json:"op"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps every finished span in memory until the run ends. A nil
// Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  uint64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Open is a span being timed.
type Open struct {
	tr *Tracer
	sp Span
}

// Begin opens a span named name under parent (nil for an operation's
// root, which starts operation op).
func (t *Tracer) Begin(parent *Open, op uint64, name string) *Open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	sp := Span{ID: id, Op: op, Name: name}
	if parent != nil {
		sp.Parent, sp.Op = parent.sp.ID, parent.sp.Op
	}
	sp.Start = time.Since(t.t0)
	return &Open{tr: t, sp: sp}
}

// Set attaches an attribute to the span.
func (o *Open) Set(k, v string) *Open {
	if o == nil {
		return nil
	}
	if o.sp.Attrs == nil {
		o.sp.Attrs = make(map[string]string)
	}
	o.sp.Attrs[k] = v
	return o
}

// End closes the span and keeps it.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.sp.End = time.Since(o.tr.t0)
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.sp)
	o.tr.mu.Unlock()
}

// Spans returns the finished spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// MarshalJSON writes the spans; the run's result file embeds them.
func (t *Tracer) MarshalJSON() ([]byte, error) { return json.Marshal(t.Spans()) }

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (concurrent calls under one parent) are counted once, and a child's
// time outside its parent's interval is not subtracted.
func selfTimes(spans []Span) map[uint64]time.Duration {
	kids := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// LedgerRow is one span name's totals in the per-layer ledger.
type LedgerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// ledger groups spans by name: how often each layer was called, its
// total time, and its self time.
func ledger(spans []Span) []LedgerRow {
	self := selfTimes(spans)
	rows := make(map[string]*LedgerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &LedgerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalS += s.Dur().Seconds()
		r.SelfS += self[s.ID].Seconds()
	}
	out := make([]LedgerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// selfMean is the mean self time in seconds of the spans named name
// (0 when the run made no such call).
func selfMean(rows []LedgerRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name && r.Count > 0 {
			return r.SelfS / float64(r.Count)
		}
	}
	return 0
}
