package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"livedev"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/repl"
	"livedev/internal/workload"
)

// edit-storm: writes only. stormClasses classes, half SOAP and half CORBA,
// are served by a leader with a durable store (DataDir, group-commit fsync,
// default shards) and replicated to an in-process follower (repl.Follower
// serving its own Interface Server; a Manager built with Config.FollowURL
// dereferences the follower's Interface Server before starting it, so the
// benchmark opens the follower directly). One editor
// (nproc − 1 on the two-CPU reference host) runs closed loop — edit, then
// EnsureCurrent — while watching clients on the follower follow a fixed
// subset of the classes. No calls are made.

// stormTraceLen is the length of the seeded step sequence the editor cycles
// through.
const stormTraceLen = 1 << 15

type editStorm struct {
	r        *run
	leader   *core.Manager
	follower *repl.Follower
	fbase    string // the follower's Interface Server base URL
	classes  []*stormClass
	stop     []func()

	// commits maps a leader commit epoch to its commit time, for the
	// replication lag of traced runs.
	mu      sync.Mutex
	commits map[uint64]time.Time
	replLag samples
}

// stormClass is one served class; vis and client are set on watched ones.
type stormClass struct {
	tech   string
	class  *dyn.Class
	srv    core.Server
	ids    []dyn.MemberID
	state  []liveMethod // owned by the editor
	step   int
	result int
	vis    *visTracker
	client *livedev.Client
}

func newEditStorm() bench { return &editStorm{commits: map[uint64]time.Time{}} }

func (b *editStorm) setup(r *run, dataDir string) error {
	b.r = r
	leader, err := core.NewManager(core.Config{
		DataDir: filepath.Join(dataDir, "leader"),
		Sync:    core.SyncGroupCommit,
		Timeout: liveTimeout,
	})
	if err != nil {
		return err
	}
	b.leader = leader
	byPath := map[string]*stormClass{}
	for i, shape := range stormShapes(r.o.seed) {
		c := &stormClass{tech: shape.tech, class: dyn.NewClass(shape.name)}
		for k, ms := range shape.methods {
			m := liveMethod{name: fmt.Sprintf("m%d", k), arity: ms.arity, ints: ms.ints, distributed: true}
			id, err := c.class.AddMethod(dyn.MethodSpec{
				Name: m.name, Params: liveParams(m, 0), Result: dyn.StringT, Distributed: true, Body: liveBody(),
			})
			if err != nil {
				return err
			}
			c.ids = append(c.ids, id)
			c.state = append(c.state, m)
		}
		if c.srv, err = leader.Register(c.class, core.Technology(shape.tech)); err != nil {
			return fmt.Errorf("register %s: %w", shape.name, err)
		}
		if _, err := c.srv.CreateInstance(); err != nil {
			return err
		}
		if watched(i) {
			c.vis = &visTracker{}
			byPath[docPath(c.srv.InterfaceURL())] = c
		}
		b.classes = append(b.classes, c)
	}
	if r.tr != nil {
		b.stop = append(b.stop, leader.Store().Subscribe(func(ev core.StoreEvent) {
			now := time.Now()
			if c := byPath[ev.Path]; c != nil {
				c.vis.committed(ev.Doc.DescriptorVersion, now)
			}
			b.mu.Lock()
			b.commits[ev.Doc.Epoch] = now
			b.mu.Unlock()
		}))
	}

	follower, err := repl.OpenFollower(repl.FollowerConfig{Leader: leader.InterfaceBaseURL()})
	if err != nil {
		return err
	}
	b.follower = follower
	if b.fbase, err = follower.Serve("127.0.0.1:0"); err != nil {
		return err
	}
	if err := b.waitCaughtUp(finalWait); err != nil {
		return err
	}
	if r.tr != nil {
		b.stop = append(b.stop, follower.Store().Subscribe(func(ev core.StoreEvent) {
			now := time.Now()
			b.mu.Lock()
			if at, ok := b.commits[ev.Doc.Epoch]; ok {
				b.replLag = append(b.replLag, int64(now.Sub(at)))
				delete(b.commits, ev.Doc.Epoch)
			}
			b.mu.Unlock()
		}))
	}
	for path, c := range byPath {
		if c.client, err = dialClient(r, b.fbase+path, true); err != nil {
			return err
		}
		b.stop = append(b.stop, c.vis.watch(c.client))
	}
	return nil
}

// waitCaughtUp waits until the follower holds every leader document at the
// leader's version and has reached the leader's epoch. (Shards replicate
// independently, so the epoch alone can arrive before another shard's
// documents.)
func (b *editStorm) waitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	ls, fs := b.leader.Store(), b.follower.Store()
	for {
		behind := ""
		for _, path := range ls.Paths() {
			if fs.Version(path) != ls.Version(path) {
				behind = path
				break
			}
		}
		if behind == "" && fs.Epoch() == ls.Epoch() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower behind the leader after %v (epoch %d vs %d, first lagging document %q)",
				timeout, fs.Epoch(), ls.Epoch(), behind)
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *editStorm) close() {
	for _, f := range b.stop {
		f()
	}
	for _, c := range b.classes {
		if c.client != nil {
			_ = c.client.Close()
		}
	}
	if b.follower != nil {
		b.follower.Close()
	}
	if b.leader != nil {
		_ = b.leader.Close()
	}
}

// stormResults are the result types a set-result step cycles through.
var stormResults = []*dyn.Type{dyn.StringT, dyn.Int32T, dyn.Int64T, dyn.Float64T}

// edit applies one step to method k of c. Every step changes the published
// interface, so the EnsureCurrent after it always publishes: a step aimed
// at a hidden method brings it back instead, and the last visible method
// is renamed instead of hidden.
func (b *editStorm) edit(c *stormClass, k int, kind workload.EditKind) error {
	c.step++
	m := &c.state[k]
	id := c.ids[k]
	if !m.distributed {
		kind = workload.EditToggleDistributed
	} else if kind == workload.EditToggleDistributed && visibleCount(c.state) <= 1 {
		kind = workload.EditRename
	}
	switch kind {
	case workload.EditRename:
		m.name = fmt.Sprintf("m%d_%d", k, c.step)
		return c.class.RenameMethod(id, m.name)
	case workload.EditSetParams:
		m.arity = m.arity%3 + 1
		return c.class.SetParams(id, liveParams(*m, c.step))
	case workload.EditSetResult:
		c.result = (c.result + 1) % len(stormResults)
		return c.class.SetResult(id, stormResults[c.result])
	case workload.EditToggleDistributed:
		m.distributed = !m.distributed
		return c.class.SetDistributed(id, m.distributed)
	}
	return fmt.Errorf("unexpected edit kind %v", kind)
}

func visibleCount(ms []liveMethod) int {
	n := 0
	for _, m := range ms {
		if m.distributed {
			n++
		}
	}
	return n
}

func (b *editStorm) measure(r *run, window time.Duration, _ bool) *result {
	res := newResult()
	trace := stormTrace(r.o.seed, stormTraceLen)
	var gens0 uint64
	for _, c := range b.classes {
		gens0 += c.srv.Publisher().Stats().Generations
	}
	ack := byBinding{}
	var done []int64
	edits := 0
	t0 := time.Now()
	end := t0.Add(window)
	for k := 0; time.Now().Before(end); k++ {
		p := trace[k%len(trace)]
		c := b.classes[p.class]
		m := p.method % len(c.ids)
		op := r.nextOp()
		ts := r.tr.now()
		start := time.Now()
		r.attempt()
		if err := b.edit(c, m, p.kind); err != nil {
			r.fail("edit %s: %v", c.class.Name(), err)
			continue
		}
		te := r.tr.now()
		r.tr.add("dyn.edit", "storm.step", op, ts, te)
		if c.vis != nil {
			c.vis.published(c.class.InterfaceVersion(), time.Now())
		}
		r.attempt()
		c.srv.Publisher().EnsureCurrent()
		now := time.Now()
		ack.add(c.tech, int64(now.Sub(start)))
		done = append(done, int64(now.Sub(t0)))
		tn := r.tr.now()
		r.tr.add("core.ensure_current", "storm.step", op, te, tn)
		r.tr.add("storm.step", "", op, ts, tn)
		edits++
	}
	elapsed := time.Since(t0)

	// Convergence: every watcher reaches its class's final interface, and
	// the follower's epoch and documents equal the leader's.
	visible := byBinding{}
	var commit, deliver samples
	for _, c := range b.classes {
		if c.vis == nil {
			continue
		}
		final := c.class.InterfaceVersion()
		r.attempt()
		if !c.vis.waitSeen(final, finalWait) {
			r.fail("watcher of %s did not reach interface version %d", c.class.Name(), final)
		} else if got := c.client.Versions().Descriptor; got != final {
			r.fail("watcher of %s ended at version %d, class is at %d", c.class.Name(), got, final)
		}
		c.vis.mu.Lock()
		if c.vis.regress > 0 {
			r.fail("watcher of %s saw its descriptor version regress %d times", c.class.Name(), c.vis.regress)
		}
		visible[c.tech] = append(visible[c.tech], c.vis.visible...)
		commit = append(commit, c.vis.commit...)
		deliver = append(deliver, c.vis.deliver...)
		c.vis.mu.Unlock()
	}
	b.checkReplica()

	res.e2e["primary_p50_us"], res.e2e["primary_p90_us"] = res.tail("publish_ack", ack)
	res.e2e["secondary_p50_us"], res.e2e["secondary_p90_us"] = res.tail("publish_visible", visible)
	res.e2e["throughput_per_s"] = median(bucketRates(done, window))
	res.add("edits", float64(edits), "count")
	res.add("mean_publish_rps", float64(edits)/elapsed.Seconds(), "1/s")

	if r.tr != nil {
		var gens uint64
		var descs []dyn.InterfaceDescriptor
		for _, c := range b.classes {
			gens += c.srv.Publisher().Stats().Generations
			descs = append(descs, c.class.Interface())
		}
		res.layers["dyn.edit_us"] = us(r.tr.durations("dyn.edit").quantile(0.5))
		if edits > 0 {
			res.layers["core.generations_per_edit"] = float64(gens-gens0) / float64(edits)
		}
		res.layers["core.publish_commit_ms"] = ms(commit.quantile(0.5))
		res.layers["ifsvr.deliver_ms"] = ms(deliver.quantile(0.5))
		b.mu.Lock()
		res.layers["repl.lag_ms"] = ms(b.replLag.quantile(0.5))
		b.mu.Unlock()
		st := b.leader.Store().Stats()
		if d := st.Durability; d != nil {
			res.layers["ifsvr.batches_per_fsync"] = d.GroupCommitMean()
			res.layers["ifsvr.sync_wait_ms"] = ms(float64(d.SyncWaitMean()))
		}
		storeLayers(b.follower.Store(), res.layers)
		if rs := b.follower.Store().Stats().Replication; rs != nil {
			res.layers["repl.reconnects"] = float64(rs.Reconnects)
			res.layers["repl.frame_errors"] = float64(rs.FrameErrors)
		}
		docLayers(descs, res.layers)
	}
	return res
}

// checkReplica requires the follower to converge on the leader: the same
// epoch, and every document with the same version and content.
func (b *editStorm) checkReplica() {
	r := b.r
	r.attempt()
	if err := b.waitCaughtUp(finalWait); err != nil {
		r.fail("replica: %v", err)
		return
	}
	ls, fs := b.leader.Store(), b.follower.Store()
	for _, path := range ls.Paths() {
		r.attempt()
		ld, lerr := ls.Get(path)
		fd, ferr := fs.Get(path)
		switch {
		case lerr != nil || ferr != nil:
			r.fail("replica: %s: leader %v, follower %v", path, lerr, ferr)
		case ld.Version != fd.Version || ld.Content != fd.Content:
			r.fail("replica: %s: follower at version %d, leader at %d", path, fd.Version, ld.Version)
		}
	}
}
