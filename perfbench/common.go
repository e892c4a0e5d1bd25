package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livedev"
	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/idl"
	"livedev/internal/soap"
	"livedev/internal/wsdl"
)

// run is the state one benchmark process shares across its workload: the
// options, the tracer (nil when untraced), operation ids, and the
// attempted/failed tally that becomes fail_ratio.
type run struct {
	o  options
	tr *tracer

	opSeq     atomic.Uint64
	attempted atomic.Int64
	failed    atomic.Int64

	mu         sync.Mutex
	violations []string
}

func (r *run) nextOp() uint64 { return r.opSeq.Add(1) }

// attempt counts one operation (call, edit, publication, dial, check).
func (r *run) attempt() { r.attempted.Add(1) }

// fail records a failed operation or a correctness violation. Both count in
// failed; the first few messages are kept for the report.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// bench is one workload: set up until ready, measure for a window, tear
// down. setup may be called on fresh values several times per process.
// measure's fill marks a short run that only completes the per-layer
// metrics of another workload's traced run.
type bench interface {
	setup(r *run, dataDir string) error
	measure(r *run, window time.Duration, fill bool) *result
	close()
}

// result is what a workload's measured window yields.
type result struct {
	// e2e holds the end-to-end metrics other than setup_s and
	// heap_live_mb, and the p90s of the same operations (reported per
	// layer, as traced.*).
	e2e map[string]float64
	// named holds the workload's own metrics under their descriptive
	// names (call_p50_us.soap, stale_recover_p99_ms, ...).
	named []namedValue
	// layers holds per-layer metrics (traced runs).
	layers map[string]float64
	// flags lists open-loop validity warnings.
	flags []string
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (res *result) add(name string, v float64, unit string) {
	res.named = append(res.named, namedValue{name, v, unit})
}

// byBinding holds one operation's latencies (ns) per binding (live-edit:
// per binding and class size, that is per phase).
type byBinding map[string]samples

func (bb byBinding) add(binding string, ns int64) { bb[binding] = append(bb[binding], ns) }

// tail reports one operation's latencies in µs and returns the mean over
// bindings of each binding's median, and the same for p90. Bindings differ
// by up to 3× (a WSDL costs more to build and parse than an IDL, SOAP more
// than CORBA on the wire), so a pooled median sits on the edge between
// their clusters and jumps between runs; the per-binding mean gives each
// binding the same weight every run. Also printed: per-binding medians and
// p90s, the pooled p99, the sample count and the samples beyond that p99
// (flagged under ten).
func (res *result) tail(name string, bb byBinding) (p50, p90 float64) {
	var pooled samples
	var names []string
	for b := range bb {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		s := bb[b]
		pooled = append(pooled, s...)
		b50, b90 := us(s.quantile(0.5)), us(s.quantile(0.9))
		res.add(name+"_p50_us."+lower(b), b50, "us")
		res.add(name+"_p90_us."+lower(b), b90, "us")
		p50 += b50 / float64(len(names))
		p90 += b90 / float64(len(names))
	}
	res.add(name+"_p50_us", p50, "us")
	res.add(name+"_p90_us", p90, "us")
	raw99 := pooled.quantile(0.99)
	res.add(name+"_p99_us", us(raw99), "us")
	res.add(name+".samples", float64(len(pooled)), "count")
	n := pooled.beyond(raw99)
	res.add(name+".beyond_p99", float64(n), "count")
	if n < 10 {
		res.flags = append(res.flags, fmt.Sprintf("%s: only %d samples beyond p99 (of %d)", name, n, len(pooled)))
	}
	return p50, p90
}

// registerBindings registers the two bindings that are not registered by
// default, JSON and H2B.
var registerOnce sync.Once

func registerBindings() {
	registerOnce.Do(func() {
		livedev.RegisterBinding(livedev.JSONBinding())
		livedev.RegisterBinding(livedev.H2BBinding())
	})
}

// callBindings are the four bindings call-steady spreads its calls over.
var callBindings = []string{"SOAP", "CORBA", "JSON", "H2B"}

func lower(b string) string { return strings.ToLower(b) }

// dialTimeout bounds every dial and every call of the benchmark's clients.
const dialTimeout = 10 * time.Second

// dialClient dials a published interface document, optionally watching it,
// and counts the dial as an operation.
func dialClient(r *run, url string, watch bool) (*livedev.Client, error) {
	r.attempt()
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	opts := []livedev.Option{livedev.WithTimeout(dialTimeout)}
	if watch {
		opts = append(opts, livedev.WithWatch())
	}
	c, err := livedev.Dial(ctx, url, opts...)
	if err != nil {
		r.fail("dial %s: %v", url, err)
		return nil, err
	}
	return c, nil
}

// docPath is the store path of a published document URL.
func docPath(docURL string) string {
	u, err := url.Parse(docURL)
	if err != nil {
		return docURL
	}
	return u.Path
}

// procStatusMB reads one memory field (VmRSS, VmHWM) of /proc/self/status
// in MiB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// settledMemory collects garbage, returns freed memory to the OS and reads
// the live heap and the resident set, in MiB. The live heap is the memory
// the running system holds for its state (the benchmark's own samples are
// garbage by then). The resident set adds the binary and the runtime's
// metadata, which follows the heap's peak: after the same collection it
// read 12.9 to 18.3 MiB on five call-steady runs whose live heap read
// 0.94 MiB in each.
func settledMemory() (heapMB, rssMB float64) {
	runtime.GC()
	debug.FreeOSMemory()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20), procStatusMB("VmRSS")
}

// metricsCounter sums the /metrics samples named name whose labels contain
// match (the endpoint path), from the manager's shared HTTP listener.
func metricsCounter(m *core.Manager, name, match string) float64 {
	resp, err := http.Get(m.HTTPBaseURL() + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	total := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+"{") || !strings.Contains(line, match) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			v, _ := strconv.ParseFloat(line[i+1:], 64)
			total += v
		}
	}
	return total
}

// timeOp returns the median per-call time in ns of fn, timed in batches of
// batch calls, and its allocations per call.
func timeOp(batches, batch int, fn func()) (ns, allocs float64) {
	var per samples
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, int64(time.Since(t0))/int64(batch))
	}
	return per.quantile(0.5), testing.AllocsPerRun(batch, fn)
}

// codecLayers times the public SOAP and CDR codec functions on the
// workload's own payloads: request build and parse, CDR value encode and
// decode.
func codecLayers(payloads []string, out map[string]float64) {
	const ns = "urn:livedev:bench"
	var reqs [][]byte
	var cdrs [][]byte
	for _, p := range payloads {
		env, err := soap.BuildRequest(ns, "echo", []soap.NamedValue{{Name: "s", Value: dyn.StringValue(p)}})
		if err == nil {
			reqs = append(reqs, []byte(env))
		}
		e := cdr.NewEncoder(cdr.BigEndian)
		if cdr.EncodeValue(e, dyn.StringValue(p)) == nil {
			cdrs = append(cdrs, append([]byte(nil), e.Bytes()...))
		}
	}
	if len(reqs) == 0 || len(cdrs) == 0 {
		return
	}
	i := 0
	next := func(n int) int { i++; return i % n }
	out["soap.build_us"], out["soap.build_allocs"] = scaleUS(timeOp(50, 40, func() {
		_, _ = soap.BuildRequest(ns, "echo", []soap.NamedValue{{Name: "s", Value: dyn.StringValue(payloads[next(len(payloads))])}})
	}))
	out["soap.parse_us"], out["soap.parse_allocs"] = scaleUS(timeOp(50, 40, func() {
		_, _ = soap.ParseRequest(reqs[next(len(reqs))])
	}))
	enc := cdr.NewEncoder(cdr.BigEndian)
	out["cdr.encode_us"], out["cdr.encode_allocs"] = scaleUS(timeOp(50, 200, func() {
		enc.Reset()
		_ = cdr.EncodeValue(enc, dyn.StringValue(payloads[next(len(payloads))]))
	}))
	out["cdr.decode_us"], out["cdr.decode_allocs"] = scaleUS(timeOp(50, 200, func() {
		_, _ = cdr.DecodeValue(cdr.NewDecoder(cdrs[next(len(cdrs))], cdr.BigEndian), dyn.StringT)
	}))
}

func scaleUS(ns, allocs float64) (float64, float64) { return us(ns), allocs }

// docLayers times the public WSDL and IDL generators and parsers on the
// workload's current interface descriptors.
func docLayers(descs []dyn.InterfaceDescriptor, out map[string]float64) {
	if len(descs) == 0 {
		return
	}
	var wsdls []string
	var idls []string
	for _, d := range descs {
		x, err := wsdl.Generate(d, "http://127.0.0.1/soap/"+d.ClassName).XML()
		if err == nil {
			wsdls = append(wsdls, x)
		}
		if doc, err := idl.Generate(d); err == nil {
			idls = append(idls, idl.Print(doc))
		}
	}
	i := 0
	next := func(n int) int { i++; return i % n }
	out["wsdl.generate_us"], _ = scaleUS(timeOp(20, 5, func() {
		d := descs[next(len(descs))]
		_, _ = wsdl.Generate(d, "http://127.0.0.1/soap/"+d.ClassName).XML()
	}))
	out["idl.generate_us"], _ = scaleUS(timeOp(20, 5, func() {
		if doc, err := idl.Generate(descs[next(len(descs))]); err == nil {
			_ = idl.Print(doc)
		}
	}))
	if len(wsdls) > 0 {
		out["wsdl.parse_us"], _ = scaleUS(timeOp(20, 5, func() {
			_, _ = wsdl.Parse([]byte(wsdls[next(len(wsdls))]))
		}))
	}
	if len(idls) > 0 {
		out["idl.parse_us"], _ = scaleUS(timeOp(20, 5, func() {
			k := next(len(idls))
			if doc, err := idl.Parse(idls[k]); err == nil {
				_, _ = idl.Resolve(doc, descs[k].ClassName)
			}
		}))
	}
}

// visTracker follows the publications of one class to the moment a
// watching client's view first holds them. The publisher side registers
// each publication (its descriptor version and start time); the leader's
// store subscription and the client's view listener resolve them.
type visTracker struct {
	mu       sync.Mutex
	pending  []pendingPub
	lastSeen uint64
	regress  int

	visible samples // publication start → view holds it
	commit  samples // publication start → leader commit callback
	deliver samples // leader commit callback → view holds it
}

type pendingPub struct {
	ver      uint64
	t0       time.Time
	commitAt time.Time
}

// published registers a publication of descriptor version ver started at
// t0, unless the client's view already holds it.
func (v *visTracker) published(ver uint64, t0 time.Time) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ver <= v.lastSeen {
		return false
	}
	v.pending = append(v.pending, pendingPub{ver: ver, t0: t0})
	return true
}

// committed is the leader store's commit callback for the class's document.
func (v *visTracker) committed(ver uint64, at time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range v.pending {
		p := &v.pending[i]
		if p.ver <= ver && p.commitAt.IsZero() {
			p.commitAt = at
			v.commit = append(v.commit, int64(at.Sub(p.t0)))
		}
	}
}

// viewed is the client's view listener: the view now holds descriptor
// version ver.
func (v *visTracker) viewed(ver uint64, at time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ver < v.lastSeen {
		v.regress++
		return
	}
	v.lastSeen = ver
	keep := v.pending[:0]
	for _, p := range v.pending {
		if p.ver > ver {
			keep = append(keep, p)
			continue
		}
		v.visible = append(v.visible, int64(at.Sub(p.t0)))
		if !p.commitAt.IsZero() {
			v.deliver = append(v.deliver, int64(at.Sub(p.commitAt)))
		}
	}
	v.pending = keep
}

// waitSeen waits until the view holds ver or the deadline passes.
func (v *visTracker) waitSeen(ver uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		v.mu.Lock()
		seen := v.lastSeen
		v.mu.Unlock()
		if seen >= ver {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// watch attaches the tracker to a watching client.
func (v *visTracker) watch(c *livedev.Client) (remove func()) {
	v.viewed(c.Versions().Descriptor, time.Now())
	return c.AddViewListener(func() { v.viewed(c.Versions().Descriptor, time.Now()) })
}
