package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples is a set of durations in nanoseconds, recorded by one goroutine
// or under the owner's lock.
type samples []int64

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks, the method Python's statistics.quantiles uses
// ("inclusive"). The receiver is sorted in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

// beyond counts samples strictly above v.
func (s samples) beyond(v float64) int {
	n := 0
	for _, x := range s {
		if float64(x) > v {
			n++
		}
	}
	return n
}

// rateBucket is the interval throughputs are counted over. A throughput is
// the median of its run's interval rates, so the few intervals in which the
// shared host lent the process less CPU, or a disk flush stalled, do not
// move it.
const rateBucket = 250 * time.Millisecond

// bucketRates counts the completion times done (ns after the start of a
// span) in each whole interval of span and returns each interval's rate per
// second. Intervals are rateBucket long, or a quarter of a shorter span.
func bucketRates(done []int64, span time.Duration) []float64 {
	bucket := min(rateBucket, span/4)
	if bucket <= 0 {
		return nil
	}
	counts := make([]int, int(span/bucket))
	for _, at := range done {
		if i := int(at / int64(bucket)); i >= 0 && i < len(counts) {
			counts[i]++
		}
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / bucket.Seconds()
	}
	return out
}

// median is the median of vs (0 for none).
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// span is one traced interval: a call into a layer, made from the
// benchmark's own code. Spans of one operation share op; parent names the
// enclosing span of the same op ("" for the operation's root).
type span struct {
	name   string
	parent string
	op     uint64
	start  int64 // ns since the tracer's base
	end    int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs skip it.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) add(name, parent string, op uint64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: start, end: end})
	t.mu.Unlock()
}

// spanStat summarizes the spans of one name: how many, and the median of
// their durations and of their self times (duration minus the part of the
// interval that child spans of the same operation cover).
type spanStat struct {
	name      string
	count     int
	p50, self float64 // ns
}

// byOp groups the recorded spans by operation.
func (t *tracer) byOp() map[uint64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := make(map[uint64][]span)
	for _, s := range t.spans {
		ops[s.op] = append(ops[s.op], s)
	}
	return ops
}

// stats computes spanStat for every span name.
func (t *tracer) stats() []spanStat {
	durs := map[string]samples{}
	selfs := map[string]samples{}
	for _, spans := range t.byOp() {
		for _, s := range spans {
			durs[s.name] = append(durs[s.name], s.end-s.start)
			selfs[s.name] = append(selfs[s.name], selfTime(s, spans))
		}
	}
	var out []spanStat
	for name, d := range durs {
		out = append(out, spanStat{name: name, count: len(d), p50: d.quantile(0.5), self: selfs[name].quantile(0.5)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, opSpans []span) int64 {
	type iv struct{ a, b int64 }
	var kids []iv
	for _, c := range opSpans {
		if c.parent != s.name {
			continue
		}
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered, reach := int64(0), s.start
	for _, k := range kids {
		if k.a < reach {
			k.a = reach
		}
		if k.b > k.a {
			covered += k.b - k.a
			reach = k.b
		}
	}
	return s.end - s.start - covered
}

// gaps measures, for every operation holding both a root span named root
// and a child named child, the time from the root's start to the child's
// start and from the child's end to the root's end.
func (t *tracer) gaps(root, child string) (before, after samples) {
	for _, spans := range t.byOp() {
		var r, c *span
		for i := range spans {
			switch spans[i].name {
			case root:
				r = &spans[i]
			case child:
				c = &spans[i]
			}
		}
		if r != nil && c != nil {
			before = append(before, c.start-r.start)
			after = append(after, r.end-c.end)
		}
	}
	return before, after
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}
