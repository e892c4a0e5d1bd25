package main

import (
	"fmt"
	"math/rand"
	"time"

	"livedev/internal/workload"
)

// Seeded inputs. Every workload draws all of its inputs here, from the run's
// seed, before the system under test sees any of them: call arrivals, the
// binding and payload of each call, class shapes, and the developer edit
// traces. The program only ever receives the generated values.

// Payload sizes of the call-steady echo calls: most calls carry a short
// string, a fixed share a 4 KiB one, so per-message and per-byte costs
// separate.
const (
	smallPayload = 64
	bigPayload   = 4096
	bigShare     = 0.10
	// opIDLen is the length of the hex operation id every echo payload
	// starts with; the benchmark-owned method body reads it back to tie its
	// span to the caller's.
	opIDLen = 8
)

// arrival is one open-loop call: when it is due, relative to its phase's
// start, and what it carries.
type arrival struct {
	at      time.Duration
	binding int  // index into the workload's binding list
	big     bool // 4 KiB payload instead of 64 B
	pool    int  // index into the payload pool of its size
	pick    int  // free draw for the caller (method choice, argument choice)
}

// newRand returns the generator for one named input stream of a run, so
// adding a stream never shifts the draws of another.
func newRand(seed int64, stream string) *rand.Rand {
	h := int64(1469598103934665603)
	for i := 0; i < len(stream); i++ {
		h = (h ^ int64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// poissonSchedule draws open-loop arrivals at rate per second over span:
// exponential inter-arrival gaps, a uniformly drawn binding out of
// bindings, and the payload size and pool index of each call.
func poissonSchedule(r *rand.Rand, rate float64, span time.Duration, bindings, poolSmall, poolBig int) []arrival {
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= span {
			return out
		}
		a := drawCall(r, bindings, poolSmall, poolBig)
		a.at = t
		out = append(out, a)
	}
}

// callSequence draws n calls for a closed loop, which has no due times.
func callSequence(r *rand.Rand, n, bindings, poolSmall, poolBig int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = drawCall(r, bindings, poolSmall, poolBig)
	}
	return out
}

func drawCall(r *rand.Rand, bindings, poolSmall, poolBig int) arrival {
	a := arrival{binding: r.Intn(bindings), big: r.Float64() < bigShare, pick: r.Intn(1 << 30)}
	if a.big {
		a.pool = r.Intn(poolBig)
	} else {
		a.pool = r.Intn(poolSmall)
	}
	return a
}

// payloadPool draws the echo payloads: n strings of each size made of
// letters only (so no value parses as a number in any codec).
func payloadPool(r *rand.Rand, nSmall, nBig int) (small, big []string) {
	gen := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	for i := 0; i < nSmall; i++ {
		small = append(small, gen(smallPayload))
	}
	for i := 0; i < nBig; i++ {
		big = append(big, gen(bigPayload))
	}
	return small, big
}

// withOpID stamps op's id over the first opIDLen bytes of a pooled payload.
func withOpID(op uint64, pooled string) string {
	return fmt.Sprintf("%08x", uint32(op)) + pooled[opIDLen:]
}

// classShape is the seeded shape of one dynamic class: how many methods,
// their parameter count and whether they take int32 or string arguments.
type classShape struct {
	name    string
	tech    string
	methods []methodShape
}

type methodShape struct {
	arity int
	ints  bool
}

func drawMethods(r *rand.Rand, n int) []methodShape {
	ms := make([]methodShape, n)
	for i := range ms {
		ms[i] = methodShape{arity: 1 + r.Intn(3), ints: r.Intn(2) == 0}
	}
	return ms
}

// stratified returns n method counts spread evenly over lo..hi, in an
// order the seed shuffles. Drawing counts independently would let one
// run's figures hang on whether its few classes came out small or large;
// stratifying keeps the spread of sizes the same in every run while the
// seed still decides which class gets which.
func stratified(r *rand.Rand, n, lo, hi int) []int {
	out := evenly(n, lo, hi)
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// evenly returns n method counts spread evenly over lo..hi, ascending.
func evenly(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo
		if n > 1 {
			out[i] = lo + (i*(hi-lo)+(n-1)/2)/(n-1)
		}
	}
	return out
}

// liveShapes draws the live-edit classes, one per phase: even phases
// serve SOAP and odd ones CORBA, each binding getting 4 to 16 methods
// spread evenly over its phases, smallest first; the seed draws their
// parameters. The order is fixed because the store's journal at the end
// of a run holds the last phases' documents: with the order drawn, the
// run's live heap moved with the size the seed gave the last SOAP class.
func liveShapes(seed int64, phases int) []classShape {
	r := newRand(seed, "live-shapes")
	counts := [2][]int{evenly((phases+1)/2, 4, 16), evenly(phases/2, 4, 16)}
	out := make([]classShape, phases)
	for p := range out {
		tech := []string{"SOAP", "CORBA"}[p%2]
		out[p] = classShape{
			name:    fmt.Sprintf("Live%d%s", p, tech),
			tech:    tech,
			methods: drawMethods(r, counts[p%2][p/2]),
		}
	}
	return out
}

// Edit-storm class set: stormClasses classes, alternately SOAP and CORBA,
// with 1 to stormMaxMethods methods spread evenly over them, which puts
// the published documents between about 1 and 20 KB.
const (
	stormClasses    = 64
	stormMaxMethods = 24
	stormWatched    = 16
)

func stormShapes(seed int64) []classShape {
	r := newRand(seed, "storm-shapes")
	// Class 2j serves SOAP and class 2j+1 CORBA, with the same method
	// count. The watched pairs and the others each get counts spread over
	// the whole range, so what the watchers see does not hang on which
	// sizes the seed happened to give them.
	watchedCounts := stratified(r, stormClasses/8, 1, stormMaxMethods)
	otherCounts := stratified(r, stormClasses/2-stormClasses/8, 1, stormMaxMethods)
	out := make([]classShape, stormClasses)
	for i := range out {
		tech := "SOAP"
		if i%2 == 1 {
			tech = "CORBA"
		}
		var n int
		if j := i / 2; watched(i) {
			n = watchedCounts[j/4]
		} else {
			n = otherCounts[j-j/4-1]
		}
		out[i] = classShape{
			name:    fmt.Sprintf("Storm%02d", i),
			tech:    tech,
			methods: drawMethods(r, n),
		}
	}
	return out
}

// watched reports whether class i is in the followed subset: every fourth
// SOAP/CORBA pair, stormWatched classes in all.
func watched(i int) bool { return (i/2)%4 == 0 }

// editStep is one step of a seeded developer trace, resolved against a
// class: the trace's delay and edit kind, the method it targets, and
// whether it opens a new burst (the previous burst then ends in a
// publication).
type editStep struct {
	delay      time.Duration
	kind       workload.EditKind
	method     int
	burstStart bool
}

// Live-edit developer model: workload.Generate's bursts with think time
// compressed from seconds to milliseconds, so one run holds about a
// thousand bursts.
const (
	liveThink      = 6 * time.Millisecond
	liveIntraBurst = 1 * time.Millisecond
	liveBurstLen   = 3
	liveBodyShare  = 0.3
)

// liveTrace draws the live-edit trace for one phase: enough bursts to
// outlast span, each edit aimed at one of methods methods.
func liveTrace(seed int64, phase, methods int, span time.Duration) []editStep {
	bursts := int(span/liveThink) + 1
	trace := workload.Generate(workload.TraceConfig{
		Seed:             seed*31 + int64(phase),
		Bursts:           bursts,
		BurstLen:         liveBurstLen,
		IntraBurst:       liveIntraBurst,
		ThinkTime:        liveThink,
		BodyEditFraction: liveBodyShare,
	})
	r := newRand(seed, fmt.Sprintf("live-targets-%d", phase))
	out := make([]editStep, len(trace))
	for i, e := range trace {
		// Generate jitters a burst's first delay within 50%..150% of the
		// think time and the others within 50%..150% of the intra-burst
		// gap; with liveThink > 4*liveIntraBurst the ranges lie on either
		// side of 2*liveIntraBurst.
		out[i] = editStep{delay: e.Delay, kind: e.Kind, method: r.Intn(methods), burstStart: e.Delay > 2*liveIntraBurst}
	}
	return out
}

// stormPick is one closed-loop edit-storm step: which class, which method
// (modulo its method count) and which interface edit.
type stormPick struct {
	class  int
	method int
	kind   workload.EditKind
}

// stormTrace draws n edit-storm steps. The kinds come from
// workload.Generate with no body-only edits, so every step publishes.
func stormTrace(seed int64, n int) []stormPick {
	trace := workload.Generate(workload.TraceConfig{Seed: seed, Bursts: n, BurstLen: 1})
	r := newRand(seed, "storm-targets")
	out := make([]stormPick, len(trace))
	for i, e := range trace {
		out[i] = stormPick{class: r.Intn(stormClasses), method: r.Intn(stormMaxMethods), kind: e.Kind}
	}
	return out
}
