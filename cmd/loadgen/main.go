// Command loadgen soaks a live SDE manager under mixed traffic and proves
// the graceful-lifecycle guarantee: calls across the SOAP, JSON, and h2b
// bindings (including a deliberately slow method so calls are genuinely
// in flight at every instant), an edit storm on a watched class, watcher
// churn (streaming cde clients connecting and disconnecting), and — unless
// -drain=false — one full Drain → Stop → restart cycle in the middle of
// the run, with every worker still firing.
//
// The soak asserts that no accepted call is dropped by the drain: a call
// that was in flight when Drain began must complete (http.Server.Shutdown
// waits for it), while calls arriving after the listener closed are
// *refused* — the expected signal that sends clients to another replica —
// and are reported separately, not counted as drops. It also scrapes the
// manager's /metrics endpoint and fails if the advertised gauges (calls,
// watcher counts, journal depth, WAL fsync lag, replication lag) are
// missing.
//
// Per-binding latency histograms (p50/p99/p999) land in the artifact's
// loadgen_rows section with -json, diffed warn-only by benchdiff.
//
// Usage:
//
//	loadgen [-duration D] [-callers N] [-slow-callers N] [-watchers N]
//	        [-churners N] [-edit-interval D] [-drain] [-drain-timeout D]
//	        [-data-dir DIR] [-json PATH]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livedev/internal/benchfmt"
	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
	"livedev/internal/soap"
	"livedev/internal/workload"
)

func main() {
	os.Exit(run())
}

// Classification guards: a failed call that started within connectGuard of
// the drain beginning may have lost the listener between Now() and its TCP
// connect — that is a refusal, not a drop. settleWindow absorbs the first
// reconnects after the restarted server is back up.
const (
	connectGuard = 25 * time.Millisecond
	settleWindow = 250 * time.Millisecond
	slowCallTime = 150 * time.Millisecond
)

// drainClock is the shared drain timeline: begin is set (unix nanos) the
// instant before Manager.Drain is invoked, end once the restarted server
// has all classes re-registered. Zero means "hasn't happened".
type drainClock struct {
	begin atomic.Int64
	end   atomic.Int64
}

// classify buckets one failed call by when it started relative to the
// drain window.
func (d *drainClock) classify(start time.Time) string {
	b, e := d.begin.Load(), d.end.Load()
	if b == 0 {
		return "error"
	}
	s := start.UnixNano()
	switch {
	case s < b-int64(connectGuard):
		// Accepted before the drain began and failed anyway: the drain
		// dropped an in-flight call. This is the bug the soak exists to
		// catch.
		return "dropped"
	case e == 0 || s <= e+int64(settleWindow):
		return "refused"
	default:
		return "error"
	}
}

// recorder accumulates one binding's outcomes.
type recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	errors  int
	refused int
	dropped int
}

func (r *recorder) ok(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

func (r *recorder) fail(kind string) {
	r.mu.Lock()
	switch kind {
	case "dropped":
		r.dropped++
	case "refused":
		r.refused++
	default:
		r.errors++
	}
	r.mu.Unlock()
}

func (r *recorder) row(binding string, drains int) benchfmt.LoadgenRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := workload.Summarize(r.samples)
	return benchfmt.LoadgenRow{
		Binding: binding,
		Calls:   st.N + r.errors + r.refused + r.dropped,
		Errors:  r.errors,
		Dropped: r.dropped,
		MeanNs:  float64(st.Mean.Nanoseconds()),
		P50Ns:   float64(st.P50.Nanoseconds()),
		P99Ns:   float64(st.P99.Nanoseconds()),
		P999Ns:  float64(st.P999.Nanoseconds()),
		MaxNs:   float64(st.Max.Nanoseconds()),
		Drains:  drains,
	}
}

func echoClass(name string, slow time.Duration) *dyn.Class {
	c := dyn.NewClass(name)
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name:        "echo",
		Params:      []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result:      dyn.StringT,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			if slow > 0 {
				time.Sleep(slow)
			}
			return args[0], nil
		},
	})
	return c
}

// deployment is one running manager plus the registered soak classes and
// their endpoint strings. Restarting rebuilds it over the same addresses
// and data dir, so the endpoint strings — and every caller holding them —
// stay valid.
type deployment struct {
	mgr        *core.Manager
	soapSrv    core.Server
	evolveSrv  core.Server
	evolveID   dyn.MemberID
	soapEP     string
	slowEP     string
	jsonEP     string
	h2bEP      string
	evolveURL  string
	httpBase   string
	ifaceAddr  string
	httpAddr   string
	corbaAddr  string
	classes    map[string]*dyn.Class
	evolveStep int
}

func deploy(ifaceAddr, httpAddr, corbaAddr, dataDir string, classes map[string]*dyn.Class) (*deployment, error) {
	mgr, err := core.NewManager(core.Config{
		InterfaceAddr: ifaceAddr,
		HTTPAddr:      httpAddr,
		CORBAAddr:     corbaAddr,
		DataDir:       dataDir,
		Sync:          core.SyncGroupCommit,
		Timeout:       10 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{mgr: mgr, classes: classes, httpBase: mgr.HTTPBaseURL()}
	d.ifaceAddr = strings.TrimPrefix(mgr.InterfaceBaseURL(), "http://")
	d.httpAddr = strings.TrimPrefix(mgr.HTTPBaseURL(), "http://")
	d.corbaAddr = corbaAddr

	reg := func(name string, tech core.Technology) (core.Server, error) {
		srv, err := mgr.Register(classes[name], tech)
		if err != nil {
			return nil, fmt.Errorf("registering %s: %w", name, err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			return nil, fmt.Errorf("instantiating %s: %w", name, err)
		}
		return srv, nil
	}
	if d.soapSrv, err = reg("LoadSOAP", core.TechSOAP); err != nil {
		_ = mgr.Close()
		return nil, err
	}
	d.soapEP = d.soapSrv.(*core.SOAPServer).Endpoint()
	slowSrv, err := reg("LoadSlow", core.TechSOAP)
	if err != nil {
		_ = mgr.Close()
		return nil, err
	}
	d.slowEP = slowSrv.(*core.SOAPServer).Endpoint()
	jsonSrv, err := reg("LoadJSON", core.Technology(jsonb.Name))
	if err != nil {
		_ = mgr.Close()
		return nil, err
	}
	d.jsonEP = jsonSrv.(*jsonb.Server).Endpoint()
	h2bSrv, err := reg("LoadH2B", core.Technology(h2b.Name))
	if err != nil {
		_ = mgr.Close()
		return nil, err
	}
	d.h2bEP = h2bSrv.(*h2b.Server).Endpoint()
	if d.evolveSrv, err = reg("Evolving", core.TechSOAP); err != nil {
		_ = mgr.Close()
		return nil, err
	}
	d.evolveURL = d.evolveSrv.InterfaceURL()
	return d, nil
}

func run() int {
	duration := flag.Duration("duration", 15*time.Second, "soak duration")
	callers := flag.Int("callers", 3, "concurrent callers per fast binding")
	slowCallers := flag.Int("slow-callers", 2, "concurrent callers of the slow SOAP method")
	watchers := flag.Int("watchers", 6, "persistent streaming watch clients")
	churners := flag.Int("churners", 3, "watcher-churn loops (connect, hold, disconnect)")
	editInterval := flag.Duration("edit-interval", 100*time.Millisecond, "edit-storm interval on the watched class")
	drain := flag.Bool("drain", true, "run one Drain→Stop→restart cycle mid-soak")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "deadline passed to Manager.Drain")
	dataDir := flag.String("data-dir", "", "durable store directory (empty = temp dir)")
	jsonPath := flag.String("json", "", "merge loadgen_rows into this artifact (preserving other sections)")
	flag.Parse()

	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())

	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "loadgen-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 2
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// The class objects persist across the restart (re-registered on the
	// new manager), so interface versions stay monotonic and reconnecting
	// watchers ride journal replay instead of seeing a version regression.
	classes := map[string]*dyn.Class{
		"LoadSOAP": echoClass("LoadSOAP", 0),
		"LoadSlow": echoClass("LoadSlow", slowCallTime),
		"LoadJSON": echoClass("LoadJSON", 0),
		"LoadH2B":  echoClass("LoadH2B", 0),
	}
	evolving := dyn.NewClass("Evolving")
	evolveID, err := evolving.AddMethod(dyn.MethodSpec{Name: "op0", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 2
	}
	classes["Evolving"] = evolving

	d, err := deploy("127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", dir, classes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 2
	}
	d.evolveID = evolveID
	defer func() { _ = d.mgr.Close() }()
	fmt.Printf("loadgen: soaking %s (endpoints %s, iface http://%s)\n", *duration, d.httpBase, d.ifaceAddr)

	var (
		clock   drainClock
		editMu  sync.Mutex // held across the restart so the edit storm never publishes into a stopped store
		wg      sync.WaitGroup
		recs    = map[string]*recorder{}
		dialRec = &recorder{}
	)
	for _, b := range []string{"soap", "soap-slow", "json", "h2b"} {
		recs[b] = &recorder{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	worker := func(binding string, call func(context.Context) error) {
		defer wg.Done()
		rec := recs[binding]
		for ctx.Err() == nil {
			start := time.Now()
			cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := call(cctx)
			ccancel()
			if err != nil {
				rec.fail(clock.classify(start))
				time.Sleep(20 * time.Millisecond)
				continue
			}
			rec.ok(time.Since(start))
		}
	}

	payload := strings.Repeat("x", 64)
	soapCall := func(ep, ns string) func(context.Context) error {
		client := &soap.Client{Endpoint: ep, ServiceNS: ns, HTTPClient: &http.Client{}}
		args := []soap.NamedValue{{Name: "s", Value: dyn.StringValue(payload)}}
		return func(ctx context.Context) error {
			_, err := client.CallContext(ctx, "echo", args, dyn.StringT)
			return err
		}
	}
	sig := dyn.MethodSig{Name: "echo", Params: []dyn.Param{{Name: "s", Type: dyn.StringT}}, Result: dyn.StringT}
	args := []dyn.Value{dyn.StringValue(payload)}
	jsonCall := func() func(context.Context) error {
		caller := &jsonb.Caller{Endpoint: d.jsonEP, HTTPClient: &http.Client{}}
		return func(ctx context.Context) error { _, err := caller.Call(ctx, sig, args); return err }
	}
	h2bCall := func() func(context.Context) error {
		// h2b calls ride h2x on the shared endpoint port, which Drain
		// drains with GOAWAY and the restart rebinds on the same address.
		caller := &h2b.Caller{Endpoint: d.h2bEP}
		return func(ctx context.Context) error { _, err := caller.Call(ctx, sig, args); return err }
	}
	for i := 0; i < *callers; i++ {
		wg.Add(3)
		go worker("soap", soapCall(d.soapEP, "urn:LoadSOAP"))
		go worker("json", jsonCall())
		go worker("h2b", h2bCall())
	}
	for i := 0; i < *slowCallers; i++ {
		wg.Add(1)
		go worker("soap-slow", soapCall(d.slowEP, "urn:LoadSlow"))
	}

	// Persistent streaming watchers: they should survive the drain via the
	// terminal draining frame and reconnect once the server is back.
	var watchClients []*cde.Client
	for i := 0; i < *watchers; i++ {
		c, err := cde.Dial(ctx, d.evolveURL, &cde.DialOptions{Watch: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: watcher dial:", err)
			return 2
		}
		watchClients = append(watchClients, c)
	}
	defer func() {
		for _, c := range watchClients {
			_ = c.Close()
		}
	}()

	// Watcher churn: connect, hold, disconnect — the reconnect-storm half
	// of the mixed traffic. Dial latency is its histogram.
	for i := 0; i < *churners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				start := time.Now()
				dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
				c, err := cde.Dial(dctx, d.evolveURL, &cde.DialOptions{Watch: true})
				dcancel()
				if err != nil {
					dialRec.fail(clock.classify(start))
					time.Sleep(50 * time.Millisecond)
					continue
				}
				dialRec.ok(time.Since(start))
				time.Sleep(200 * time.Millisecond)
				_ = c.Close()
			}
		}()
	}

	// Edit storm on the watched class: rename + forced publication each
	// tick, serialized with the restart under editMu.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(*editInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			editMu.Lock()
			d.evolveStep++
			if err := evolving.RenameMethod(d.evolveID, fmt.Sprintf("op%d", d.evolveStep)); err == nil {
				d.evolveSrv.Publisher().PublishNow()
			}
			editMu.Unlock()
		}
	}()

	drains := 0
	if *drain {
		// Mid-soak drain cycle: scrape /metrics while healthy, then Drain →
		// Stop → redeploy on the same addresses and data dir.
		time.Sleep(*duration * 2 / 5)
		if err := checkMetrics(d.httpBase); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: metrics before drain:", err)
			return 1
		}
		editMu.Lock()
		clock.begin.Store(time.Now().UnixNano())
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		derr := d.mgr.Drain(dctx)
		dcancel()
		serr := d.mgr.Stop()
		nd, err := deploy(d.ifaceAddr, d.httpAddr, d.corbaAddr, dir, classes)
		if err != nil {
			editMu.Unlock()
			fmt.Fprintln(os.Stderr, "loadgen: restart after drain:", err)
			return 1
		}
		nd.evolveID = d.evolveID
		nd.evolveStep = d.evolveStep
		if nd.soapEP != d.soapEP || nd.jsonEP != d.jsonEP || nd.h2bEP != d.h2bEP {
			editMu.Unlock()
			fmt.Fprintln(os.Stderr, "loadgen: restarted endpoints moved; callers would dial a dead address")
			return 1
		}
		*d = *nd
		clock.end.Store(time.Now().UnixNano())
		editMu.Unlock()
		drains++
		fmt.Printf("loadgen: drain cycle done (drain err=%v, stop err=%v)\n", derr, serr)
	}

	<-ctx.Done()
	wg.Wait()

	if err := checkMetrics(d.httpBase); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: metrics after soak:", err)
		return 1
	}

	var totalDrainFrames, totalBackoffs uint64
	for _, c := range watchClients {
		st := c.Stats()
		totalDrainFrames += st.Drains
		totalBackoffs += st.Backoffs
	}

	rows := []benchfmt.LoadgenRow{
		recs["soap"].row("soap", drains),
		recs["soap-slow"].row("soap-slow", drains),
		recs["json"].row("json", drains),
		recs["h2b"].row("h2b", drains),
	}
	dialRow := dialRec.row("watch-dial", drains)
	dialRow.Watchers = *watchers + *churners
	rows = append(rows, dialRow)

	fmt.Printf("\n%-12s %8s %7s %7s %7s %10s %10s %10s\n",
		"binding", "calls", "errs", "refused", "dropped", "p50", "p99", "p999")
	exit := 0
	for i, r := range rows {
		refused := 0
		switch r.Binding {
		case "watch-dial":
			refused = dialRec.refused
		default:
			refused = recs[r.Binding].refused
		}
		fmt.Printf("%-12s %8d %7d %7d %7d %10s %10s %10s\n",
			r.Binding, r.Calls, r.Errors, refused, r.Dropped,
			time.Duration(r.P50Ns), time.Duration(r.P99Ns), time.Duration(r.P999Ns))
		if r.Dropped > 0 {
			exit = 1
		}
		_ = i
	}
	fmt.Printf("\nwatchers: %d persistent, drain frames seen %d, backoff waits %d\n",
		*watchers, totalDrainFrames, totalBackoffs)
	if exit != 0 {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL — in-flight calls were dropped during drain")
	} else if *drain {
		fmt.Println("loadgen: drain cycle dropped zero in-flight calls")
	}

	if *jsonPath != "" {
		if err := mergeRows(*jsonPath, rows); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		fmt.Printf("merged loadgen_rows into %s\n", *jsonPath)
	}
	return exit
}

// requiredMetrics are the gauges docs/ops.md advertises; the soak fails if
// a scrape is missing any of them.
var requiredMetrics = []string{
	"livedev_endpoint_requests_total",
	"livedev_store_commits_total",
	"livedev_store_journal_depth",
	"livedev_watchers",
	"livedev_wal_fsync_lag",
	"livedev_wal_fsyncs_total",
	"livedev_repl_lag",
}

func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %s", resp.Status)
	}
	for _, name := range requiredMetrics {
		if !strings.Contains(string(body), name) {
			return fmt.Errorf("/metrics missing %s", name)
		}
	}
	return nil
}

// mergeRows writes the loadgen_rows section into the artifact at path,
// preserving every other section byte-for-byte (including ones this tool
// does not know about).
func mergeRows(path string, rows []benchfmt.LoadgenRow) error {
	raw := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &raw); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else {
		schema, _ := json.Marshal(benchfmt.Schema)
		command, _ := json.Marshal("loadgen")
		raw["schema"], raw["command"] = schema, command
	}
	enc, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	raw["loadgen_rows"] = enc
	out, err := json.MarshalIndent(raw, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
