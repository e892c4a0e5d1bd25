package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"livedev"
	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/workload"
)

// live-edit: the paper's scenario. Each of livePhases phases serves its own
// seeded class shape, over SOAP and CORBA alternately. In each phase a
// watching client calls back to back, picking methods from its current
// view, while a seeded developer trace edits the class and ends each burst
// in PublishNow. Config.Timeout is long, so stale calls meet an armed timer
// or a running generation and only forced or manual publication runs
// (Section 5.7). The store is in memory.
const (
	// liveCallSeq is the length of the seeded pick sequence a phase's
	// caller cycles through.
	liveCallSeq = 1 << 14
	livePhases  = 8
	liveTimeout = time.Hour
	// liveMaxRetries bounds one call's recovery: more stale replies in a
	// row than this is a failure.
	liveMaxRetries = 50
	// finalWait bounds how long a phase end waits for the watcher to see
	// the class's final interface.
	finalWait = 10 * time.Second
)

type liveEdit struct {
	r     *run
	mgr   *core.Manager
	sides []*liveSide
}

// liveSide is one served copy of the live class with its watching client.
type liveSide struct {
	tech   string
	key    string // binding and method count, e.g. SOAP.m12: the phase's samples
	class  *dyn.Class
	srv    core.Server
	ids    []dyn.MemberID
	state  []liveMethod // owned by the editor goroutine
	step   int          // edit counter, keeps generated names unique
	client *livedev.Client
	vis    visTracker
	stop   []func()
}

// liveMethod is the editor's record of one method's current shape.
type liveMethod struct {
	name        string
	arity       int
	ints        bool
	distributed bool
}

func newLiveEdit() bench { return &liveEdit{} }

// liveBody is the benchmark-owned body of every live method: it joins its
// arguments' text forms with commas, so the caller can check the result
// against the arguments it sent.
func liveBody() dyn.Body {
	return func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
		return dyn.StringValue(joinArgs(args)), nil
	}
}

func joinArgs(args []dyn.Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		if a.Type().Equal(dyn.Int32T) {
			parts[i] = strconv.Itoa(int(a.Int32()))
		} else {
			parts[i] = a.Str()
		}
	}
	return strings.Join(parts, ",")
}

// liveParams builds a parameter list whose names carry gen, so no
// signature the editor produces ever equals an earlier one.
func liveParams(m liveMethod, gen int) []dyn.Param {
	ps := make([]dyn.Param, m.arity)
	for k := range ps {
		t := dyn.StringT
		if m.ints {
			t = dyn.Int32T
		}
		ps[k] = dyn.Param{Name: fmt.Sprintf("p%d_%d", k, gen), Type: t}
	}
	return ps
}

func (b *liveEdit) setup(r *run, _ string) error {
	b.r = r
	mgr, err := core.NewManager(core.Config{Timeout: liveTimeout})
	if err != nil {
		return err
	}
	b.mgr = mgr
	shapes := liveShapes(r.o.seed, livePhases)
	for p := 0; p < livePhases; p++ {
		shape := shapes[p]
		tech := shape.tech
		s := &liveSide{tech: tech, key: fmt.Sprintf("%s.m%d", tech, len(shape.methods)), class: dyn.NewClass(shape.name)}
		for i, ms := range shape.methods {
			m := liveMethod{name: fmt.Sprintf("m%d", i), arity: ms.arity, ints: ms.ints, distributed: true}
			id, err := s.class.AddMethod(dyn.MethodSpec{
				Name: m.name, Params: liveParams(m, 0), Result: dyn.StringT, Distributed: true, Body: liveBody(),
			})
			if err != nil {
				return err
			}
			s.ids = append(s.ids, id)
			s.state = append(s.state, m)
		}
		if s.srv, err = mgr.Register(s.class, core.Technology(tech)); err != nil {
			return fmt.Errorf("register %s: %w", tech, err)
		}
		if _, err := s.srv.CreateInstance(); err != nil {
			return err
		}
		if r.tr != nil {
			path := docPath(s.srv.InterfaceURL())
			s.stop = append(s.stop, mgr.Store().Subscribe(func(ev core.StoreEvent) {
				if ev.Path == path {
					s.vis.committed(ev.Doc.DescriptorVersion, time.Now())
				}
			}))
		}
		if s.client, err = dialClient(r, s.srv.InterfaceURL(), true); err != nil {
			return err
		}
		s.stop = append(s.stop, s.vis.watch(s.client))
		b.sides = append(b.sides, s)
	}
	return mgr.Probe()
}

func (b *liveEdit) close() {
	for _, s := range b.sides {
		for _, f := range s.stop {
			f()
		}
		if s.client != nil {
			_ = s.client.Close()
		}
	}
	if b.mgr != nil {
		_ = b.mgr.Close()
	}
}

// liveTally collects one run's live-edit samples.
type liveTally struct {
	mu      sync.Mutex
	calls   byBinding            // first-try successes
	recover byBinding            // stale call start → successful retry return
	ok      int                  // successful calls, retries included
	rates   map[string][]float64 // per phase: each interval's calls/s
	stales  int
	races   int
	edits   int
}

func (b *liveEdit) measure(r *run, window time.Duration, fill bool) *result {
	res := newResult()
	t := &liveTally{calls: byBinding{}, recover: byBinding{}, rates: map[string][]float64{}}
	var stats0 []clientPub
	for _, s := range b.sides {
		stats0 = append(stats0, clientPub{s.client.Stats(), s.srv.Publisher().Stats()})
	}
	phases := livePhases
	if fill {
		phases = 2
	}
	phaseLen := window / time.Duration(phases)
	t0 := time.Now()
	for p := 0; p < phases; p++ {
		b.phase(b.sides[p], p, phaseLen, t)
	}
	elapsed := time.Since(t0)

	visible := byBinding{}
	for _, s := range b.sides {
		s.vis.mu.Lock()
		visible[s.key] = append(visible[s.key], s.vis.visible...)
		if s.vis.regress > 0 {
			r.fail("%s watcher's descriptor version regressed %d times", s.tech, s.vis.regress)
		}
		s.vis.mu.Unlock()
	}
	// Samples are kept per phase (binding and class size), and every
	// end-to-end figure is the mean over the phases of each phase's median:
	// a SOAP class of 16 methods takes about twice as long to recover and
	// publish as one of 4, and how many stale calls each phase draws moves
	// with the seed's trace, so a median over pooled phases moved with the
	// mix. Calls/s is likewise each phase's median interval rate.
	res.e2e["primary_p50_us"], res.e2e["primary_p90_us"] = res.tail("stale_recover", t.recover)
	res.e2e["secondary_p50_us"], res.e2e["secondary_p90_us"] = res.tail("publish_visible", visible)
	for _, rates := range t.rates {
		res.e2e["throughput_per_s"] += median(rates) / float64(len(t.rates))
	}
	res.add("mean_call_rps", float64(t.ok)/elapsed.Seconds(), "1/s")
	res.tail("call", t.calls)
	res.add("stale_calls", float64(t.stales), "count")
	res.add("edits", float64(t.edits), "count")
	res.layers["cde.view_races"] = float64(t.races)

	if r.tr != nil {
		b.layers(res, t, stats0)
	}
	return res
}

type clientPub struct {
	c cde.ClientStats
	p livedev.PublisherStats
}

// phase runs one phase on side: the editor replays a seeded trace while
// the client calls back to back; then the phase publishes and waits until
// the watcher holds the class's final interface. The trace runs open loop:
// each step is due at the phase start plus the delays before it, so a
// sleep that overruns, or a host that lends the process less CPU, delays
// the steps after it but does not thin the edits out.
func (b *liveEdit) phase(s *liveSide, p int, span time.Duration, t *liveTally) {
	r := b.r
	start := time.Now()
	end := start.Add(span)
	calls := callSequence(newRand(r.o.seed, fmt.Sprintf("live-calls-%d", p)), liveCallSeq, 1, 1, 1)
	trace := liveTrace(r.o.seed, p, len(s.ids), span)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		due := start
		for i, st := range trace {
			if st.burstStart && i > 0 {
				b.publish(s)
			}
			if due = due.Add(st.delay); due.After(end) {
				break
			}
			time.Sleep(time.Until(due))
			b.edit(s, st)
			t.mu.Lock()
			t.edits++
			t.mu.Unlock()
		}
	}()
	// The caller runs closed loop: one call after another, each picking
	// its method from the view it holds at that moment.
	var done []int64
	for k := 0; time.Now().Before(end); k++ {
		if b.call(s, calls[k%len(calls)], t) {
			done = append(done, int64(time.Since(start)))
		}
	}
	wg.Wait()
	t.mu.Lock()
	t.rates[s.key] = append(t.rates[s.key], bucketRates(done, span)...)
	t.mu.Unlock()

	// Phase end: publish what the trace left and require the watcher to
	// converge on the class's final interface (§6's view consistency).
	b.publish(s)
	final := s.class.InterfaceVersion()
	r.attempt()
	if !s.vis.waitSeen(final, finalWait) {
		r.fail("%s watcher did not reach interface version %d within %v (view %+v, client %+v)",
			s.tech, final, finalWait, s.client.Versions(), s.client.Stats())
	} else if got := s.client.Versions().Descriptor; got != final {
		r.fail("%s watcher ended at version %d, class is at %d", s.tech, got, final)
	}
}

// publish ends a burst: PublishNow, with the publication registered for
// the visibility measure first so a fast watcher cannot beat the
// registration.
func (b *liveEdit) publish(s *liveSide) {
	b.r.attempt()
	s.vis.published(s.class.InterfaceVersion(), time.Now())
	s.srv.Publisher().PublishNow()
}

// edit applies one trace step to the class. Every interface edit changes
// the published interface, and in a way the server's stale check sees
// (name, arity, parameter types or presence), so a call racing it is
// answered stale rather than with a reply of the wrong type. The trace's
// set-result steps therefore flip the parameter types: neither SOAP nor
// CORBA requests carry the result type.
func (b *liveEdit) edit(s *liveSide, st editStep) {
	r := b.r
	s.step++
	m := &s.state[st.method]
	id := s.ids[st.method]
	op := r.nextOp()
	t0 := r.tr.now()
	r.attempt()
	var err error
	kind := st.kind
	switch {
	case !m.distributed && kind != workload.EditBody:
		// An interface edit to a hidden method would change nothing a
		// client sees; the step brings the method back instead.
		kind = workload.EditToggleDistributed
	case kind == workload.EditToggleDistributed && visibleCount(s.state) <= 2:
		kind = workload.EditRename // keep at least two methods callable
	}
	switch kind {
	case workload.EditRename:
		m.name = fmt.Sprintf("m%d_%d", st.method, s.step)
		err = s.class.RenameMethod(id, m.name)
	case workload.EditSetParams:
		m.arity = m.arity%3 + 1
		err = s.class.SetParams(id, liveParams(*m, s.step))
	case workload.EditSetResult:
		m.ints = !m.ints
		err = s.class.SetParams(id, liveParams(*m, s.step))
	case workload.EditToggleDistributed:
		if !m.distributed {
			// A method comes back under a fresh name, so a signature
			// that left the interface never returns to it.
			m.name = fmt.Sprintf("m%d_%d", st.method, s.step)
			if err = s.class.RenameMethod(id, m.name); err != nil {
				break
			}
		}
		m.distributed = !m.distributed
		err = s.class.SetDistributed(id, m.distributed)
	case workload.EditBody:
		err = s.class.SetBody(id, liveBody())
	}
	r.tr.add("dyn.edit", "", op, t0, r.tr.now())
	if err != nil {
		r.fail("%s edit %s: %v", s.tech, st.kind, err)
	}
}

// liveArgs draws arguments for sig from pick: letters-only strings and
// int32 values too large to be read as a CDR string length.
func liveArgs(sig dyn.MethodSig, pick int) []dyn.Value {
	args := make([]dyn.Value, len(sig.Params))
	for k, p := range sig.Params {
		x := pick*7919 + k*104729
		if p.Type.Equal(dyn.Int32T) {
			args[k] = dyn.Int32Value(int32(1_000_000 + x%1_000_000_000))
		} else {
			b := make([]byte, 8)
			for i := range b {
				b[i] = byte('a' + (x>>(3*i))%26)
			}
			args[k] = dyn.StringValue(string(b))
		}
	}
	return args
}

// call makes one scheduled call and, if it is answered stale, keeps
// retrying against the refreshed view until a call succeeds: the paper's
// edit → fault → refresh → retry cycle.
func (b *liveEdit) call(s *liveSide, a arrival, t *liveTally) bool {
	r := b.r
	var staleStart time.Time
	first := time.Now()
	for attempt := 0; attempt <= liveMaxRetries; attempt++ {
		// The view's version is read before the view itself, so a view
		// installed after the method was chosen always shows as a change.
		docBefore := s.client.Versions().Doc
		methods := s.client.Interface().Methods
		if len(methods) == 0 {
			r.fail("%s client view has no methods", s.tech)
			return false
		}
		sig := methods[(a.pick+attempt)%len(methods)]
		args := liveArgs(sig, a.pick+attempt)
		op := r.nextOp()
		callStart := time.Now()
		ts := r.tr.now()
		r.attempt()
		v, err := s.client.CallContext(context.Background(), sig.Name, args...)
		var stale *livedev.StaleMethodError
		switch {
		case err == nil:
			if got, want := v.Str(), joinArgs(args); got != want {
				r.fail("%s %s returned %q, want %q", s.tech, sig.Name, got, want)
				return false
			}
			t.mu.Lock()
			t.ok++
			if staleStart.IsZero() {
				t.calls.add(s.key, int64(time.Since(first)))
			} else {
				t.recover.add(s.key, int64(time.Since(staleStart)))
			}
			t.mu.Unlock()
			if !staleStart.IsZero() {
				r.tr.add("stale.retry", "", op, ts, r.tr.now())
			}
			return true
		case errors.As(err, &stale):
			r.tr.add("stale.call", "", op, ts, r.tr.now())
			// §6: by delivery time the view has been refreshed past the
			// failed signature. Signatures never return once gone, so no
			// later view may hold it either.
			if cur, ok := s.client.Interface().Lookup(sig.Name); ok && cur.Equal(sig) {
				live, inLive := s.class.Interface().Lookup(sig.Name)
				r.fail("%s: refreshed view (descriptor %d) still holds stale %s; the live class holds it too: %v; error: %v",
					s.tech, stale.RefreshedDescriptorVersion, sig, inLive && live.Equal(sig), err)
			}
			t.mu.Lock()
			t.stales++
			t.mu.Unlock()
			if staleStart.IsZero() {
				staleStart = callStart
			}
		case s.client.Versions().Doc != docBefore:
			// The view moved between choosing the method and the call, so
			// the arguments no longer fit the stub: choose again.
			t.mu.Lock()
			t.races++
			t.mu.Unlock()
		default:
			r.fail("%s %s: %v", s.tech, sig.Name, err)
			return false
		}
	}
	r.fail("%s: no successful call after %d stale replies", s.tech, liveMaxRetries)
	return false
}

// layers derives live-edit's per-layer metrics.
func (b *liveEdit) layers(res *result, t *liveTally, before []clientPub) {
	r := b.r
	res.layers["dyn.edit_us"] = us(r.tr.durations("dyn.edit").quantile(0.5))
	res.layers["cde.stale_call_ms"] = ms(r.tr.durations("stale.call").quantile(0.5))
	res.layers["cde.retry_call_us"] = us(r.tr.durations("stale.retry").quantile(0.5))
	var refreshes, staleFaults, forced, gens float64
	var commit, deliver samples
	var descs []dyn.InterfaceDescriptor
	for i, s := range b.sides {
		c, p := s.client.Stats(), s.srv.Publisher().Stats()
		refreshes += float64(c.Refreshes - before[i].c.Refreshes)
		staleFaults += float64(c.StaleFaults - before[i].c.StaleFaults)
		forced += float64(p.Forced - before[i].p.Forced)
		gens += float64(p.Generations - before[i].p.Generations)
		s.vis.mu.Lock()
		commit = append(commit, s.vis.commit...)
		deliver = append(deliver, s.vis.deliver...)
		s.vis.mu.Unlock()
		descs = append(descs, s.class.Interface())
	}
	if staleFaults > 0 {
		res.layers["cde.refreshes_per_stale"] = refreshes / staleFaults
		res.layers["core.forced_per_stale"] = forced / staleFaults
	}
	if t.edits > 0 {
		res.layers["core.generations_per_edit"] = gens / float64(t.edits)
	}
	res.layers["core.publish_commit_ms"] = ms(commit.quantile(0.5))
	res.layers["ifsvr.deliver_ms"] = ms(deliver.quantile(0.5))
	storeLayers(b.mgr.Store(), res.layers)
	docLayers(descs, res.layers)
	var payloads []string
	for i := 0; i < 16; i++ {
		payloads = append(payloads, liveArgs(dyn.MethodSig{Params: []dyn.Param{{Type: dyn.StringT}}}, i)[0].Str())
	}
	codecLayers(payloads, res.layers)
}

// storeLayers reads a store's counters: fan-out batching, the
// backpressure valves and journal replay misses.
func storeLayers(store *core.Store, out map[string]float64) {
	st := store.Stats()
	if st.Fanout.Batches > 0 {
		out["ifsvr.events_per_flush"] = float64(st.Fanout.Events) / float64(st.Fanout.Batches)
	}
	if st.Publishes > 0 {
		out["ifsvr.coalesced_ratio"] = float64(st.Coalesced) / float64(st.Publishes)
	}
	out["ifsvr.evictions"] = float64(st.Fanout.Evictions)
	out["ifsvr.resets"] = float64(st.Fanout.Resets)
	out["ifsvr.replay_misses"] = float64(st.ReplayMisses)
}
