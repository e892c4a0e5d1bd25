// Command livebench is the repository's benchmark: it drives the live
// development system through its public functions on one seeded workload
// per run and prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run) by name with its unit, as the last line of
// its standard output. See README.md in this directory.
//
// Usage:
//
//	livebench -workload call-steady|live-edit|edit-storm -seed N -seconds S -trace 0|1
//	livebench -workload all -repeat K [-seed N] [-seconds S]
//
// The second form runs every workload (or the one named) K times with
// seeds N..N+K-1 as child processes, then once traced, and prints the
// median and quartiles of each metric, the raw per-run values and the
// tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"livedev/internal/cde"
)

type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. What primary, secondary and throughput measure
// depends on the workload; README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"primary_p50_us", "us"},
	{"secondary_p50_us", "us"},
	{"throughput_per_s", "1/s"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the per-layer metrics every traced run reports.
var perLayer = []metricDef{
	{"wire.request_us.soap", "us"},
	{"wire.request_us.corba", "us"},
	{"wire.request_us.json", "us"},
	{"wire.request_us.h2b", "us"},
	{"wire.reply_us.soap", "us"},
	{"wire.reply_us.corba", "us"},
	{"wire.reply_us.json", "us"},
	{"wire.reply_us.h2b", "us"},
	{"dyn.body_us", "us"},
	{"soap.build_us", "us"},
	{"soap.parse_us", "us"},
	{"cdr.encode_us", "us"},
	{"cdr.decode_us", "us"},
	{"soap.build_allocs", "count"},
	{"soap.parse_allocs", "count"},
	{"cdr.encode_allocs", "count"},
	{"cdr.decode_allocs", "count"},
	{"call.allocs.soap", "count"},
	{"call.allocs.corba", "count"},
	{"call.allocs.json", "count"},
	{"call.allocs.h2b", "count"},
	{"call.bytes.soap", "B"},
	{"call.bytes.corba", "B"},
	{"call.bytes.json", "B"},
	{"call.bytes.h2b", "B"},
	{"runtime.gc_pause_us_per_kop", "us"},
	{"core.requests_per_call.soap", "ratio"},
	{"core.requests_per_call.json", "ratio"},
	{"core.requests_per_call.h2b", "ratio"},
	{"cde.conn_dials", "count"},
	{"dyn.edit_us", "us"},
	{"cde.stale_call_ms", "ms"},
	{"cde.retry_call_us", "us"},
	{"cde.refreshes_per_stale", "ratio"},
	{"cde.view_races", "count"},
	{"core.forced_per_stale", "ratio"},
	{"core.generations_per_edit", "ratio"},
	{"wsdl.generate_us", "us"},
	{"idl.generate_us", "us"},
	{"wsdl.parse_us", "us"},
	{"idl.parse_us", "us"},
	{"core.publish_commit_ms", "ms"},
	{"ifsvr.deliver_ms", "ms"},
	{"repl.lag_ms", "ms"},
	{"ifsvr.batches_per_fsync", "ratio"},
	{"ifsvr.sync_wait_ms", "ms"},
	{"ifsvr.coalesced_ratio", "ratio"},
	{"ifsvr.events_per_flush", "ratio"},
	{"ifsvr.evictions", "count"},
	{"ifsvr.resets", "count"},
	{"ifsvr.replay_misses", "count"},
	{"repl.reconnects", "count"},
	{"repl.frame_errors", "count"},
	{"gen.late_p99_us", "us"},
	{"fail_ratio", "ratio"},
	{"traced.primary_p50_us", "us"},
	{"traced.primary_p90_us", "us"},
	{"traced.secondary_p50_us", "us"},
	{"traced.secondary_p90_us", "us"},
	{"traced.throughput_per_s", "1/s"},
}

// workloads maps each workload name to its constructor, in run order.
var workloads = []struct {
	name string
	make func() bench
}{
	{"call-steady", newCallSteady},
	{"live-edit", newLiveEdit},
	{"edit-storm", newEditStorm},
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 9

// fillWindow is the window of the short runs of other workloads that a
// traced run adds for layers its own workload does not exercise.
const fillWindow = 2 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	var trace int
	flag.StringVar(&o.root, "root", ".", "checkout root; run data goes under <root>/.bench_build")
	flag.StringVar(&o.workload, "workload", "all", "call-steady, live-edit, edit-storm, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured window per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "with -workload all or >1: runs per workload")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "livebench: -seconds must be positive")
		return 2
	}
	if o.workload == "all" || o.repeat > 1 {
		return aggregate(o)
	}
	return single(o)
}

func findWorkload(name string) (func() bench, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.make, true
		}
	}
	return nil, false
}

// single runs one workload once and prints its metrics.
func single(o options) int {
	mk, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "livebench: unknown workload %q\n", o.workload)
		return 2
	}
	dataDir := filepath.Join(o.root, ".bench_build", "data", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(dataDir)

	r := &run{o: o}
	if o.trace {
		r.tr = newTracer()
	}
	wall := time.Now()
	res, setups, heap, err := runWorkload(r, mk, dataDir, time.Duration(o.seconds*float64(time.Second)), false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		fillLayers(r, res, dataDir)
	}
	res.layers["fail_ratio"] = float64(r.failed.Load()) / float64(max(r.attempted.Load(), 1))
	res.layers["cde.conn_dials"] = httpDials()
	for k, v := range res.e2e {
		res.layers["traced."+k] = v
	}
	res.e2e["setup_s"] = setups.quantile(0.5) / 1e9
	res.e2e["heap_live_mb"] = heap
	res.add("peak_rss_mb", procStatusMB("VmHWM"), "MiB")

	defs := endToEnd
	values := res.e2e
	if o.trace {
		defs, values = perLayer, res.layers
		printSpans(r.tr)
	}
	fmt.Printf("# livebench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "livebench: %s not measured on %s\n", d.name, o.workload)
		}
		fmt.Printf("metric %-32s %14.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, n := range res.named {
		fmt.Printf("named  %-32s %14.4f %s\n", n.name, n.value, n.unit)
	}
	for _, f := range res.flags {
		fmt.Printf("flag   %s\n", f)
	}
	for _, v := range r.violations {
		fmt.Printf("violation %s\n", v)
	}
	manifest := map[string]any{
		"host":        hostBlock(o.root, dataDir),
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"wall_s":      time.Since(wall).Seconds(),
		"setup_s_raw": scaleAll(setups, 1e-9),
		"named":       namedMap(res.named),
		"flags":       res.flags,
		"violations":  r.violations,
		"attempted":   r.attempted.Load(),
		"failed":      r.failed.Load(),
	}
	mj, _ := json.Marshal(manifest)
	fmt.Printf("manifest %s\n", mj)
	failed := r.failed.Load()
	line, _ := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": r.attempted.Load(),
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// runWorkload sets the workload up setupRepeats times (timing each, keeping
// the last), measures it for window and reads its live heap before tearing
// it down.
func runWorkload(r *run, mk func() bench, dataDir string, window time.Duration, fill bool) (*result, samples, float64, error) {
	var setups samples
	var b bench
	repeats := setupRepeats
	if fill {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		b = mk()
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		err := b.setup(r, filepath.Join(dataDir, fmt.Sprintf("setup-%d", i)))
		setups = append(setups, int64(time.Since(t0)))
		if err != nil {
			b.close()
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		if i < repeats-1 {
			b.close()
		}
	}
	runtime.GC()
	res := b.measure(r, window, fill)
	heap, rss := settledMemory()
	res.add("rss_mb", rss, "MiB")
	b.close()
	return res, setups, heap, nil
}

// fillLayers completes a traced run's per-layer metrics: layers the run's
// own workload does not exercise (calls on bindings it does not use, edits,
// durability, replication) are measured by short traced runs of the
// workloads that do. The run's own values always win.
func fillLayers(r *run, res *result, dataDir string) {
	for _, w := range workloads {
		if w.name == r.o.workload {
			continue
		}
		missing := false
		for _, d := range perLayer {
			if _, ok := res.layers[d.name]; !ok && !strings.HasPrefix(d.name, "traced.") {
				missing = true
			}
		}
		if !missing {
			return
		}
		fr := &run{o: r.o, tr: newTracer()}
		fr.o.workload = w.name
		fres, _, _, err := runWorkload(fr, w.make, filepath.Join(dataDir, "fill-"+w.name), fillWindow, true)
		r.attempted.Add(fr.attempted.Load())
		r.failed.Add(fr.failed.Load())
		r.mu.Lock()
		r.violations = append(r.violations, fr.violations...)
		r.mu.Unlock()
		if err != nil {
			r.fail("fill-in %s: %v", w.name, err)
			continue
		}
		for k, v := range fres.layers {
			if _, ok := res.layers[k]; !ok {
				res.layers[k] = v
			}
		}
	}
}

func httpDials() float64 {
	d, _ := cde.HTTPConnStats()
	conns, _ := cde.IIOPPoolStats()
	return float64(d + conns)
}

// printSpans prints the traced run's span table: count, median duration and
// median self time per span name.
func printSpans(t *tracer) {
	for _, s := range t.stats() {
		fmt.Printf("span   %-24s n=%-8d p50=%10.2fus self=%10.2fus\n", s.name, s.count, us(s.p50), us(s.self))
	}
}

func scaleAll(s samples, f float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v) * f
	}
	return out
}

func namedMap(ns []namedValue) map[string]float64 {
	m := map[string]float64{}
	for _, n := range ns {
		m[n.name] = n.value
	}
	return m
}

// quartiles returns the first quartile, median and third quartile of vs
// exactly as Python's statistics.quantiles(vs, n=4) computes them (its
// default "exclusive" method).
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var qs [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*n)
		qs[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return qs[0], qs[1], qs[2]
}
