package core_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	neturl "net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/soap"
)

// slowEchoClass serves one echo method that blocks for d before replying —
// the probe for "in-flight calls survive the drain".
func slowEchoClass(t *testing.T, name string, d time.Duration) *dyn.Class {
	t.Helper()
	c := dyn.NewClass(name)
	if _, err := c.AddMethod(dyn.MethodSpec{
		Name:        "echo",
		Params:      []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result:      dyn.StringT,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			time.Sleep(d)
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDrainCompletesInFlightCall is the heart of the lifecycle contract: a
// call accepted before Drain runs to completion while the drain is in
// progress, and a connection arriving after the drain began is refused.
func TestDrainCompletesInFlightCall(t *testing.T) {
	m := newManager(t)
	srv, err := m.Register(slowEchoClass(t, "SlowDrain", 300*time.Millisecond), core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	ep := srv.(*core.SOAPServer).Endpoint()

	client := &soap.Client{Endpoint: ep, ServiceNS: "urn:SlowDrain", HTTPClient: &http.Client{}}
	args := []soap.NamedValue{{Name: "s", Value: dyn.StringValue("survives")}}

	type result struct {
		val dyn.Value
		err error
	}
	inflight := make(chan result, 1)
	go func() {
		v, err := client.CallContext(context.Background(), "echo", args, dyn.StringT)
		inflight <- result{v, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the (sleeping) handler

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(ctx) }()

	// While the drain is waiting on the slow call, new work is refused:
	// registrations immediately, new HTTP dials once the listener closes.
	time.Sleep(50 * time.Millisecond)
	if !m.Draining() {
		t.Fatal("Draining() = false during Drain")
	}
	if _, err := m.Register(slowEchoClass(t, "LateClass", 0), core.TechSOAP); err == nil {
		t.Fatal("Register succeeded on a draining manager")
	}
	if err := m.Probe(); !errors.Is(err, core.ErrDraining) {
		t.Fatalf("Probe during drain = %v, want ErrDraining", err)
	}

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight call dropped by drain: %v", r.err)
	}
	if r.val.Str() != "survives" {
		t.Fatalf("in-flight call corrupted: %q", r.val.Str())
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The listener is closed now: a fresh dial must fail.
	if _, err := http.Get(m.HTTPBaseURL() + "/metrics"); err == nil {
		t.Fatal("new HTTP connection accepted after drain")
	}
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func TestProbeLifecycle(t *testing.T) {
	m := newManager(t)
	if err := m.Probe(); err != nil {
		t.Fatalf("Probe on a healthy manager: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := m.Probe(); !errors.Is(err, core.ErrDraining) {
		t.Fatalf("Probe after Drain = %v, want ErrDraining", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
	if err := m.Probe(); err == nil {
		t.Fatal("Probe succeeded on a closed manager")
	}
	// Idempotent teardown: Drain and Close on a closed manager are no-ops.
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMetricsEndpoint asserts the ops-plane gauges docs/ops.md advertises
// are present on the shared endpoint mux.
func TestMetricsEndpoint(t *testing.T) {
	m := newManager(t)
	srv, err := m.Register(slowEchoClass(t, "Metered", 0), core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	client := &soap.Client{Endpoint: srv.(*core.SOAPServer).Endpoint(), ServiceNS: "urn:Metered", HTTPClient: &http.Client{}}
	if _, err := client.CallContext(context.Background(), "echo",
		[]soap.NamedValue{{Name: "s", Value: dyn.StringValue("hi")}}, dyn.StringT); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(m.HTTPBaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"livedev_up 1",
		"livedev_draining 0",
		"livedev_endpoint_requests_total",
		"livedev_store_commits_total",
		"livedev_store_journal_depth",
		"livedev_watchers",
		"livedev_repl_lag",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The echo call above must show up on its endpoint's request counter.
	if !strings.Contains(string(body), `livedev_endpoint_requests_total{path="/soap/Metered"} 1`) {
		t.Errorf("endpoint counter did not record the call:\n%s", body)
	}
}

// TestLifecycleGoroutineChurn registers and unregisters classes, churns
// watch clients, and asserts the goroutine count settles back near the
// baseline — the leak test for every lifecycle path this PR touches.
func TestLifecycleGoroutineChurn(t *testing.T) {
	m := newManager(t)
	baseline := runtime.NumGoroutine()

	// A dedicated transport for the churned clients: the process-wide
	// shared pools (sharedDocClient, the soap/jsonb call transports) hold
	// keep-alive connections by design, which would read as leaks here.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	hc := &http.Client{Transport: tr}

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("Churn%d", i)
		srv, err := m.Register(slowEchoClass(t, name, 0), core.TechSOAP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		c, err := cde.Dial(context.Background(), srv.InterfaceURL(), &cde.DialOptions{Watch: true, HTTPClient: hc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CallContext(context.Background(), "echo", dyn.StringValue("x")); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		m.Unregister(name)
	}

	// Goroutines wind down asynchronously (stream teardown, publisher
	// stop); poll instead of sleeping a fixed eternity.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Pooled keep-alive connections (this test's transport and their
		// server-side peers) park goroutines that are reclaimed, not
		// leaked: drop them before counting.
		tr.CloseIdleConnections()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainEndsHeldStreams: a streaming watch client connected through the
// Interface Server observes the terminal draining frame (counted in its
// ClientStats) instead of waiting out a timeout, and keeps its view.
func TestDrainEndsHeldStreams(t *testing.T) {
	m := newManager(t)
	class := slowEchoClass(t, "DrainWatch", 0)
	renameID, err := class.AddMethod(dyn.MethodSpec{Name: "v0", Result: dyn.Int32T, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.Register(class, core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	c, err := cde.Dial(context.Background(), srv.InterfaceURL(), &cde.DialOptions{Watch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Watching() only means the watch loop started; prove the SSE stream is
	// actually established by pushing an edit through it and waiting for
	// the client to observe it.
	if err := class.RenameMethod(renameID, "v1"); err != nil {
		t.Fatal(err)
	}
	srv.Publisher().PublishNow()
	deadline := time.Now().Add(3 * time.Second)
	for c.Stats().StreamEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream never delivered the warm-up edit: stats %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Drain blocked %v on a held stream — the terminal frame did not end it", elapsed)
	}
	// The client turned the terminal frame into a drain-count and a
	// reconnect attempt (which will back off against the closed listener).
	deadline = time.Now().Add(3 * time.Second)
	for c.Stats().Drains == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client never observed the draining frame: stats %+v", c.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShortHTTP1RequestAnsweredPromptly pins the shared listener's
// protocol sniff: a bare 18-octet HTTP/1.1 request is shorter than the
// 24-octet HTTP/2 preface, so it must be routed to net/http on its first
// octet instead of waiting out the sniff deadline.
func TestShortHTTP1RequestAnsweredPromptly(t *testing.T) {
	m := newManager(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(m.HTTPBaseURL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status := make([]byte, len("HTTP/1.1 400"))
	if _, err := io.ReadFull(conn, status); err != nil {
		t.Fatalf("short request not answered: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("short request answered after %v", elapsed)
	}
	if !strings.HasPrefix(string(status), "HTTP/1.1 ") {
		t.Errorf("answered %q", status)
	}
}

// TestFollowURLManager runs a manager in follower mode against a leader
// manager: it starts (its Interface Server configured from Config),
// converges on the leader's documents, passes Probe, and refuses
// Register.
func TestFollowURLManager(t *testing.T) {
	leader := newManager(t)
	srv, err := leader.Register(slowEchoClass(t, "Followed", 0), core.TechSOAP)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := core.NewManager(core.Config{
		FollowURL:     leader.InterfaceBaseURL(),
		MaxWatcherLag: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if got := follower.InterfaceServer().MaxWatcherLag; got != 64 {
		t.Errorf("follower view MaxWatcherLag = %d, want 64", got)
	}

	want, err := leader.Store().Get(docPath(t, srv.InterfaceURL()))
	if err != nil {
		t.Fatal(err)
	}
	url := follower.InterfaceBaseURL() + docPath(t, srv.InterfaceURL())
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && string(body) == want.Content {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served the leader's WSDL at %s", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for err := follower.Probe(); err != nil; err = follower.Probe() {
		if time.Now().After(deadline) {
			t.Fatalf("follower Probe: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := follower.Register(slowEchoClass(t, "Refused", 0), core.TechSOAP); err == nil {
		t.Error("Register succeeded on a follower")
	}
}

// docPath is the Interface Server path of a published document URL.
func docPath(t *testing.T, docURL string) string {
	t.Helper()
	u, err := neturl.Parse(docURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Path
}
