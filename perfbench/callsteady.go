package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"livedev"
	"livedev/internal/core"
	"livedev/internal/dyn"
)

// call-steady: echo calls over all four bindings, no edits. The seed draws
// each call's binding (equal shares) and payload (64 B, or 4 KiB for a
// fixed share).
//
// The first openShare of the window offers Poisson arrivals at openRate
// (open loop); the rest runs callWorkers callers back to back (closed
// loop), which is what the gated metrics come from.
const (
	openRate    = 1500.0
	openShare   = 0.25
	callWorkers = 2 // at most nproc calls in flight
	poolSmall   = 256
	poolBig     = 16
	// closedSeq is the length, in draws, of the seeded call sequence the
	// closed loop cycles through.
	closedSeq = 1 << 16
)

// lateLimitUS flags a run whose generator released calls more than this
// late at p99: several times the ~1 ms sleep granularity of a host without
// high-resolution timers.
const lateLimitUS = 5000

type callSteady struct {
	r       *run
	mgr     *core.Manager
	classes []*dyn.Class
	clients []*livedev.Client
	small   []string
	big     []string
}

func newCallSteady() bench { return &callSteady{} }

// echoBody is the benchmark-owned method body of the class served over
// binding: it returns its argument and, when traced, records its own span
// under the operation id the payload carries, as a child of that binding's
// call span.
func echoBody(r *run, binding string) dyn.Body {
	parent := "call." + lower(binding)
	return func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
		if r.tr == nil {
			return args[0], nil
		}
		start := r.tr.now()
		if s := args[0].Str(); len(s) >= opIDLen {
			if op, err := strconv.ParseUint(s[:opIDLen], 16, 32); err == nil {
				r.tr.add("dyn.body", parent, op, start, r.tr.now())
			}
		}
		return args[0], nil
	}
}

func (b *callSteady) setup(r *run, _ string) error {
	b.r = r
	registerBindings()
	b.small, b.big = payloadPool(newRand(r.o.seed, "payloads"), poolSmall, poolBig)
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		return err
	}
	b.mgr = mgr
	for _, tech := range callBindings {
		class := dyn.NewClass("Echo" + tech)
		if _, err := class.AddMethod(dyn.MethodSpec{
			Name:        "echo",
			Params:      []dyn.Param{{Name: "s", Type: dyn.StringT}},
			Result:      dyn.StringT,
			Distributed: true,
			Body:        echoBody(r, tech),
		}); err != nil {
			return err
		}
		srv, err := mgr.Register(class, core.Technology(tech))
		if err != nil {
			return fmt.Errorf("register %s: %w", tech, err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			return err
		}
		c, err := dialClient(r, srv.InterfaceURL(), false)
		if err != nil {
			return err
		}
		b.classes = append(b.classes, class)
		b.clients = append(b.clients, c)
	}
	return mgr.Probe()
}

func (b *callSteady) close() {
	for _, c := range b.clients {
		_ = c.Close()
	}
	if b.mgr != nil {
		_ = b.mgr.Close()
	}
}

// outcome is one open-loop call's record, written only by the worker that
// ran it.
type outcome struct {
	lat  int64 // ns from release to return
	late int64 // ns the release came after the due time
	ok   bool
}

// call runs one echo call and checks its reply.
func (b *callSteady) call(a arrival) bool {
	r := b.r
	op := r.nextOp()
	pooled := b.small[a.pool]
	if a.big {
		pooled = b.big[a.pool]
	}
	payload := withOpID(op, pooled)
	r.attempt()
	start := r.tr.now()
	v, err := b.clients[a.binding].CallContext(context.Background(), "echo", dyn.StringValue(payload))
	r.tr.add("call."+lower(callBindings[a.binding]), "", op, start, r.tr.now())
	if err != nil {
		r.fail("echo over %s: %v", callBindings[a.binding], err)
		return false
	}
	if v.Str() != payload {
		r.fail("echo over %s returned %d bytes, want the %d sent", callBindings[a.binding], len(v.Str()), len(payload))
		return false
	}
	return true
}

// releaseTick is the open-loop generator's clock: arrivals are released
// in batches, every arrival due within a tick at the tick's end. Sleeps on
// hosts without high-resolution timers last about a millisecond whatever
// is asked, so a finer schedule would only add timer noise; with fixed
// ticks the batches depend on the seed alone.
const releaseTick = time.Millisecond

// openLoop issues sched from start: one release goroutine wakes every
// releaseTick and releases the arrivals due by then, and callWorkers
// goroutines take released arrivals in order and call. Each call is timed
// from its release, so waiting for a busy worker (the system's backlog)
// counts; how late releases ran behind the due times is reported as
// generator lateness.
func openLoop(sched []arrival, start time.Time, do func(arrival) bool) []outcome {
	out := make([]outcome, len(sched))
	released := make([]time.Time, len(sched))
	queue := make(chan int, len(sched)) // every arrival is sent exactly once
	go func() {
		defer close(queue)
		for k, i := 1, 0; i < len(sched); k++ {
			tick := time.Duration(k) * releaseTick
			if wait := time.Until(start.Add(tick)); wait > 0 {
				time.Sleep(wait)
			}
			now := time.Now()
			for ; i < len(sched) && sched[i].at < tick; i++ {
				released[i] = now
				out[i].late = int64(now.Sub(start.Add(sched[i].at)))
				queue <- i
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < callWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].ok = do(sched[i])
				out[i].lat = int64(time.Since(released[i]))
			}
		}()
	}
	wg.Wait()
	return out
}

func (b *callSteady) measure(r *run, window time.Duration, _ bool) *result {
	res := newResult()
	rng := newRand(r.o.seed, "call-steady-arrivals")
	openSpan := time.Duration(float64(window) * openShare)
	sched := poissonSchedule(rng, openRate, openSpan, len(callBindings), poolSmall, poolBig)
	seq := callSequence(rng, closedSeq, len(callBindings), poolSmall, poolBig)

	// Open loop at a fixed offered rate: latency from release.
	outs := openLoop(sched, time.Now(), b.call)
	open := byBinding{}
	var late samples
	for i, o := range outs {
		lat := o.lat
		if !o.ok {
			lat = int64(time.Hour) // a failed call misses every limit
		}
		open.add(callBindings[sched[i].binding], lat)
		late = append(late, o.late)
	}
	res.tail("open_call", open)
	res.add("offered_rps", openRate, "1/s")
	lateP99 := us(late.quantile(0.99))
	res.add("gen.late_p99_us", lateP99, "us")
	res.layers["gen.late_p99_us"] = lateP99
	if lateP99 > lateLimitUS {
		res.flags = append(res.flags, fmt.Sprintf("generator ran late: p99 %.0f us", lateP99))
	}

	// Closed loop with callWorkers callers for the rest of the window.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls := b.closedLoop(seq, window-openSpan)
	runtime.ReadMemStats(&ms1)
	small, big := byBinding{}, byBinding{}
	for _, c := range calls {
		if c.big {
			big.add(callBindings[c.binding], c.lat)
		} else {
			small.add(callBindings[c.binding], c.lat)
		}
	}
	res.e2e["primary_p50_us"], res.e2e["primary_p90_us"] = res.tail("call_small", small)
	res.e2e["secondary_p50_us"], res.e2e["secondary_p90_us"] = res.tail("call_big", big)
	done := make([]int64, len(calls))
	for i, c := range calls {
		done[i] = c.at
	}
	res.e2e["throughput_per_s"] = median(bucketRates(done, window-openSpan))
	res.add("calls", float64(len(calls)), "count")
	if len(calls) > 0 {
		res.layers["runtime.gc_pause_us_per_kop"] = us(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)) / (float64(len(calls)) / 1000)
	}
	if r.tr != nil {
		b.layers(res)
	}
	return res
}

// closedCall is one closed-loop call's record.
type closedCall struct {
	lat     int64 // ns; a failed call counts as an hour
	at      int64 // ns from the loop's start to the call's return
	binding uint8
	big     bool
}

// closedLoop runs callWorkers callers back to back for span, each taking
// the next call of the seeded sequence seq (cycled), and returns every
// call.
func (b *callSteady) closedLoop(seq []arrival, span time.Duration) []closedCall {
	var next atomic.Int64
	per := make([][]closedCall, callWorkers)
	for w := range per {
		// Room for ~20k calls/s per caller, so the records do not grow
		// (and copy) while the calls run.
		per[w] = make([]closedCall, 0, int(span.Seconds()*20000))
	}
	start := time.Now()
	end := start.Add(span)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				a := seq[int(next.Add(1)-1)%len(seq)]
				t0 := time.Now()
				ok := b.call(a)
				t1 := time.Now()
				lat := int64(t1.Sub(t0))
				if !ok {
					lat = int64(time.Hour)
				}
				per[w] = append(per[w], closedCall{lat, int64(t1.Sub(start)), uint8(a.binding), a.big})
			}
		}()
	}
	wg.Wait()
	// Interleave the callers' records so windowed tails see both.
	var out []closedCall
	for i := 0; ; i++ {
		added := false
		for w := range per {
			if i < len(per[w]) {
				out = append(out, per[w][i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// layers derives the call-path per-layer metrics from the traced window and
// from short single-binding phases.
func (b *callSteady) layers(res *result) {
	r := b.r
	for _, name := range callBindings {
		n := lower(name)
		before, after := r.tr.gaps("call."+n, "dyn.body")
		res.layers["wire.request_us."+n] = us(before.quantile(0.5))
		res.layers["wire.reply_us."+n] = us(after.quantile(0.5))
	}
	res.layers["dyn.body_us"] = us(r.tr.durations("dyn.body").quantile(0.5))

	// Allocation cost per call, one binding at a time: serial calls on
	// that binding only, MemStats deltas around them.
	const serial = 500
	for i, name := range callBindings {
		paths := map[string]string{"SOAP": "/soap/EchoSOAP", "JSON": "/json/EchoJSON", "H2B": "/h2b/EchoH2B"}
		var before float64
		if p, ok := paths[name]; ok {
			before = metricsCounter(b.mgr, "livedev_endpoint_requests_total", p)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 0; k < serial; k++ {
			b.call(arrival{binding: i, pool: k % poolSmall})
		}
		runtime.ReadMemStats(&m1)
		n := lower(name)
		res.layers["call.allocs."+n] = float64(m1.Mallocs-m0.Mallocs) / serial
		res.layers["call.bytes."+n] = float64(m1.TotalAlloc-m0.TotalAlloc) / serial
		if p, ok := paths[name]; ok {
			res.layers["core.requests_per_call."+n] = (metricsCounter(b.mgr, "livedev_endpoint_requests_total", p) - before) / serial
		}
	}
	codecLayers(append(append([]string(nil), b.small[:16]...), b.big[:2]...), res.layers)
	var descs []dyn.InterfaceDescriptor
	for _, c := range b.classes {
		descs = append(descs, c.Interface())
	}
	docLayers(descs, res.layers)
}
