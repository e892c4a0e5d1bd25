package h2b

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/jsonb"
)

func init() {
	// Wire the binding exactly the way livedev.RegisterBinding does —
	// through the public registries, no core edits.
	core.RegisterBinding(New())
	cde.RegisterConnector(Connector())
}

func calcClass(t *testing.T) *dyn.Class { return namedCalcClass(t, "HCalc") }

func namedCalcClass(t *testing.T, name string) *dyn.Class {
	t.Helper()
	c := dyn.NewClass(name)
	_, err := c.AddMethod(dyn.MethodSpec{
		Name:        "add",
		Params:      []dyn.Param{{Name: "a", Type: dyn.Int32T}, {Name: "b", Type: dyn.Int32T}},
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(args[0].Int32() + args[1].Int32()), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stdHTTP2Client is a stock net/http client speaking prior-knowledge
// cleartext HTTP/2: how a caller outside livedev reaches an h2b endpoint.
func stdHTTP2Client(t *testing.T) *http.Client {
	t.Helper()
	var protocols http.Protocols
	protocols.SetUnencryptedHTTP2(true)
	client := &http.Client{Transport: &http.Transport{Protocols: &protocols}}
	t.Cleanup(client.CloseIdleConnections)
	return client
}

// wireError is an h2b error reply as a net/http client sees it.
type wireError struct {
	status int
	code   string
	msg    string
}

func (e *wireError) Error() string { return fmt.Sprintf("HTTP %d %s: %s", e.status, e.code, e.msg) }

// stdCall performs one h2b call with a stock net/http client, following
// the wire contract in docs/h2b-protocol.md.
func stdCall(ctx context.Context, client *http.Client, endpoint string, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	e := cdr.GetEncoder(cdr.BigEndian)
	for _, a := range args {
		if err := cdr.EncodeValue(e, a); err != nil {
			cdr.PutEncoder(e)
			return dyn.Value{}, err
		}
	}
	// The transport may still read the body after a cancelled Do returns,
	// so it gets its own copy rather than the pooled encoder's buffer.
	body := bytes.Clone(e.Bytes())
	cdr.PutEncoder(e)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(body))
	if err != nil {
		return dyn.Value{}, err
	}
	req.Header.Set("Content-Type", CallContentType)
	req.Header.Set(MethodHeader, sig.Name)
	req.Header.Set(OrderHeader, OrderBig)
	resp, err := client.Do(req)
	if err != nil {
		return dyn.Value{}, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return dyn.Value{}, err
	}
	if resp.Proto != "HTTP/2.0" {
		return dyn.Value{}, fmt.Errorf("call answered over %s, want HTTP/2.0", resp.Proto)
	}
	if code := resp.Header.Get(ErrorHeader); code != "" || resp.StatusCode != http.StatusOK {
		return dyn.Value{}, &wireError{status: resp.StatusCode, code: code, msg: string(reply)}
	}
	return cdr.DecodeValue(cdr.NewDecoder(reply, cdr.BigEndian), sig.Result)
}

func TestDocRoundTrip(t *testing.T) {
	point := dyn.MustStructOf("Point",
		dyn.StructField{Name: "x", Type: dyn.Float64T},
		dyn.StructField{Name: "y", Type: dyn.Float64T})
	c := dyn.NewClass("HGeo")
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name:        "mid",
		Params:      []dyn.Param{{Name: "a", Type: point}, {Name: "b", Type: point}},
		Result:      dyn.SequenceOf(point),
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return dyn.SequenceValue(point, args[0], args[1])
		},
	})
	desc := c.Interface()
	text, err := GenerateDoc(desc, "http://example/h2b/HGeo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, DocFormat) {
		t.Errorf("document does not carry its format tag:\n%s", text)
	}
	got, endpoint, err := ParseDoc(text)
	if err != nil {
		t.Fatal(err)
	}
	if endpoint != "http://example/h2b/HGeo" {
		t.Errorf("endpoint = %q", endpoint)
	}
	if !got.Equal(desc) {
		t.Errorf("descriptor round trip mismatch:\n got %v\nwant %v", got.Methods, desc.Methods)
	}

	// The two bindings share a document grammar but not a format tag: each
	// parser must reject the other's documents, or Dial sniffing would be
	// ambiguous.
	jsonText, err := jsonb.GenerateDoc(desc, "http://example/json/HGeo")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseDoc(jsonText); err == nil {
		t.Error("h2b.ParseDoc accepted a JSON-binding document")
	}
	if _, _, err := jsonb.ParseDoc(text); err == nil {
		t.Error("jsonb.ParseDoc accepted an h2b document")
	}
}

func TestServeRegisterAndCall(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	srv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Technology() != core.Technology("H2B") {
		t.Errorf("technology = %s", srv.Technology())
	}

	// Calls before CreateInstance must be refused.
	ctx := context.Background()
	client, err := cde.Dial(ctx, srv.InterfaceURL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.CallContext(ctx, "add", dyn.Int32Value(1), dyn.Int32Value(2)); err == nil {
		t.Fatal("call before CreateInstance should fail")
	}

	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	got, err := client.CallContext(ctx, "add", dyn.Int32Value(20), dyn.Int32Value(22))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int32() != 42 {
		t.Errorf("add = %d", got.Int32())
	}
	if client.Technology() != "H2B" {
		t.Errorf("client technology = %s", client.Technology())
	}
}

// TestCallsRideHTTP2 pins the transport claim the interface document
// makes: the advertised endpoint, on the manager's shared port, answers
// prior-knowledge cleartext HTTP/2 from any client, here a stock
// net/http one.
func TestCallsRideHTTP2(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	h2bSrv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2bSrv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	srv := h2bSrv.(*Server)
	if want := mgr.HTTPBaseURL() + "/h2b/HCalc"; srv.Endpoint() != want {
		t.Fatalf("endpoint = %s, want %s on the shared listener", srv.Endpoint(), want)
	}

	client := stdHTTP2Client(t)
	e := cdr.GetEncoder(cdr.BigEndian)
	defer cdr.PutEncoder(e)
	e.WriteLong(20)
	e.WriteLong(22)
	post := func(body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.Endpoint(), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", CallContentType)
		req.Header.Set(MethodHeader, "add")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("POST to the h2b endpoint: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.Proto != "HTTP/2.0" {
			t.Errorf("call answered over %s, the h2b endpoint must speak HTTP/2", resp.Proto)
		}
		return resp
	}

	resp := post(e.Bytes())
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(OrderHeader) != OrderBig {
		t.Fatalf("add(20, 22): HTTP %d, order %q: %s", resp.StatusCode, resp.Header.Get(OrderHeader), body)
	}
	if got, err := cdr.DecodeValue(cdr.NewDecoder(body, cdr.BigEndian), dyn.Int32T); err != nil || got.Int32() != 42 {
		t.Errorf("add(20, 22) = %v, %v", got, err)
	}
	// An empty body for a two-argument method is a stale-encoded call.
	if code := post(nil).Header.Get(ErrorHeader); code != CodeNonExistentMethod {
		t.Errorf("error code = %q, want %q", code, CodeNonExistentMethod)
	}
}

// TestParallelCallsShareOneConn pins the binding's transport design:
// many concurrent calls against one endpoint multiplex as HTTP/2 streams
// of one pooled, single-flight dialed TCP connection instead of opening
// one connection each.
func TestParallelCallsShareOneConn(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	u, err := url.Parse(srv.(*Server).Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	before := Dials(u.Host)

	sig, ok := srv.Class().Interface().Lookup("add")
	if !ok {
		t.Fatal("no signature for add")
	}
	caller := &Caller{Endpoint: srv.(*Server).Endpoint()}
	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int32) {
			defer wg.Done()
			got, err := caller.Call(context.Background(), sig, []dyn.Value{dyn.Int32Value(i), dyn.Int32Value(1)})
			if err == nil && got.Int32() != i+1 {
				err = fmt.Errorf("add(%d, 1) = %d", i, got.Int32())
			}
			errs <- err
		}(int32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if dials := Dials(u.Host) - before; dials > 1 {
		t.Errorf("%d parallel calls dialed %d TCP connections; HTTP/2 multiplexing should need 1", callers, dials)
	}
}

// TestMuxParallelCallsShareOneConn is the shared-port version of the
// conn-sharing pin: every h2b class on a manager is served from the one
// endpoint listener, so parallel calls to two classes, through two
// Callers, ride streams of one pooled, single-flight dialed h2x
// connection.
func TestMuxParallelCallsShareOneConn(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	var callers []*Caller
	var sigs []dyn.MethodSig
	for _, name := range []string{"HCalcA", "HCalcB"} {
		srv, err := mgr.Register(namedCalcClass(t, name), core.Technology(Name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		sig, ok := srv.Class().Interface().Lookup("add")
		if !ok {
			t.Fatal("no signature for add")
		}
		callers = append(callers, &Caller{Endpoint: srv.(*Server).Endpoint()})
		sigs = append(sigs, sig)
	}
	u, err := url.Parse(callers[0].Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	if other, _ := url.Parse(callers[1].Endpoint); other.Host != u.Host {
		t.Fatalf("h2b classes on one manager serve from %s and %s, want one shared port", u.Host, other.Host)
	}
	before := Dials(u.Host)

	const callsPerClass = 16
	var wg sync.WaitGroup
	errs := make(chan error, len(callers)*callsPerClass)
	for k, caller := range callers {
		for i := 0; i < callsPerClass; i++ {
			wg.Add(1)
			go func(caller *Caller, sig dyn.MethodSig, i int32) {
				defer wg.Done()
				got, err := caller.Call(context.Background(), sig, []dyn.Value{dyn.Int32Value(i), dyn.Int32Value(1)})
				if err == nil && got.Int32() != i+1 {
					err = fmt.Errorf("%s add(%d, 1) = %d", caller.Endpoint, i, got.Int32())
				}
				errs <- err
			}(caller, sigs[k], int32(i))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if dials := Dials(u.Host) - before; dials > 1 {
		t.Errorf("%d parallel calls to two classes dialed %d TCP connections; the pool should need 1",
			len(callers)*callsPerClass, dials)
	}
}

// TestMuxStaleCallMatchesHTTPPath pins wire-contract parity: the h2b
// Caller (the pooled h2x client) and a stock net/http HTTP/2 client
// calling the same endpoint get the same stale-call answer, so the CDE's
// Section 5.7 reaction does not depend on the client stack.
func TestMuxStaleCallMatchesHTTPPath(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(calcClass(t), core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	endpoint := srv.(*Server).Endpoint()
	sig := dyn.MethodSig{Name: "vanished", Result: dyn.Int32T}

	caller := &Caller{Endpoint: endpoint}
	if _, err := caller.Call(context.Background(), sig, nil); !errors.Is(err, ErrNonExistentMethod) {
		t.Fatalf("want ErrNonExistentMethod from the h2b Caller, got %v", err)
	}
	_, err = stdCall(context.Background(), stdHTTP2Client(t), endpoint, sig, nil)
	var werr *wireError
	if !errors.As(err, &werr) {
		t.Fatalf("want a wire error from the net/http client, got %v", err)
	}
	if werr.code != CodeNonExistentMethod || werr.status != http.StatusNotFound {
		t.Errorf("net/http client got HTTP %d code %q, want HTTP %d code %q",
			werr.status, werr.code, http.StatusNotFound, CodeNonExistentMethod)
	}
}

// TestDeadlineExceededUnderConcurrentStreams is the h2b face of the IIOP
// deadline-storm test: many concurrent streams on one connection, half
// with deadlines shorter than the server's work. Expired calls must
// surface context.DeadlineExceeded; their stream resets must not disturb
// the replies of the surviving streams.
func TestDeadlineExceededUnderConcurrentStreams(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	c := dyn.NewClass("HWork")
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name:        "work",
		Params:      []dyn.Param{{Name: "n", Type: dyn.Int32T}},
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			time.Sleep(30 * time.Millisecond)
			return dyn.Int32Value(args[0].Int32() * 2), nil
		},
	})
	srv, err := mgr.Register(c, core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	sig, ok := c.Interface().Lookup("work")
	if !ok {
		t.Fatal("no signature for work")
	}

	// The same storm from two client stacks: the h2b Caller's pooled h2x
	// connection ("mux") and a stock net/http HTTP/2 client ("http").
	// Deadline semantics are part of the wire contract, not a property of
	// one stack, and both reach the one h2x engine on the shared port.
	endpoint := srv.(*Server).Endpoint()
	caller := &Caller{Endpoint: endpoint}
	client := stdHTTP2Client(t)
	for _, tc := range []struct {
		name string
		call func(context.Context, dyn.MethodSig, []dyn.Value) (dyn.Value, error)
	}{
		{"http", func(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
			return stdCall(ctx, client, endpoint, sig, args)
		}},
		{"mux", caller.Call},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const calls = 64
			var wg sync.WaitGroup
			errs := make(chan error, calls)
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx := context.Background()
					if i%2 == 0 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
						defer cancel()
					}
					got, err := tc.call(ctx, sig, []dyn.Value{dyn.Int32Value(int32(i))})
					switch {
					case i%2 == 0:
						if !errors.Is(err, context.DeadlineExceeded) {
							errs <- fmt.Errorf("call %d: want DeadlineExceeded, got %v", i, err)
							return
						}
					case err != nil:
						errs <- fmt.Errorf("call %d: %v", i, err)
						return
					case got.Int32() != int32(i)*2:
						errs <- fmt.Errorf("call %d: work = %d, want %d", i, got.Int32(), i*2)
						return
					}
					errs <- nil
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestStaleCallRunsReactiveProtocol(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 30 * time.Minute}) // timer effectively never fires
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	class := calcClass(t)
	srv, err := mgr.Register(class, core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client, err := cde.Dial(ctx, srv.InterfaceURL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Rename the method; with a huge stability timeout the document stays
	// stale until a client call forces it current (Section 5.7).
	id, ok := class.MethodIDByName("add")
	if !ok {
		t.Fatal("no method id for add")
	}
	if err := class.RenameMethod(id, "plus"); err != nil {
		t.Fatal(err)
	}

	_, err = client.CallContext(ctx, "add", dyn.Int32Value(1), dyn.Int32Value(2))
	var stale *cde.StaleMethodError
	if !errors.As(err, &stale) {
		t.Fatalf("want StaleMethodError, got %v", err)
	}
	// The client's view must already contain the rename.
	if _, ok := client.Interface().Lookup("plus"); !ok {
		t.Error("client view should have been reactively refreshed to contain plus")
	}
	got, err := client.CallContext(ctx, "plus", dyn.Int32Value(40), dyn.Int32Value(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int32() != 42 {
		t.Errorf("plus = %d", got.Int32())
	}
}

func TestCancellationAbortsInFlightCall(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	block := make(chan struct{})
	defer close(block)
	c := dyn.NewClass("HSlow")
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name: "hang", Result: dyn.StringT, Distributed: true,
		Body: func(_ *dyn.Instance, _ []dyn.Value) (dyn.Value, error) {
			<-block
			return dyn.StringValue("late"), nil
		},
	})
	srv, err := mgr.Register(c, core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	client, err := cde.Dial(context.Background(), srv.InterfaceURL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = client.CallContext(ctx, "hang")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, should be prompt", elapsed)
	}
}

// TestSOAPAndH2BShareOnePort registers a SOAP class and an h2b class on
// one manager: both call paths are served from the shared endpoint port
// (SOAP over HTTP/1.1, h2b over HTTP/2), registering h2b opens no port of
// its own, and the per-path request counters include the h2b calls.
func TestSOAPAndH2BShareOnePort(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ctx := context.Background()
	for _, reg := range []struct {
		class *dyn.Class
		tech  core.Technology
	}{{namedCalcClass(t, "SCalc"), core.TechSOAP}, {calcClass(t), core.Technology(Name)}} {
		srv, err := mgr.Register(reg.class, reg.tech)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.CreateInstance(); err != nil {
			t.Fatal(err)
		}
		client, err := cde.Dial(ctx, srv.InterfaceURL(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for i := int32(0); i < 3; i++ {
			got, err := client.CallContext(ctx, "add", dyn.Int32Value(i), dyn.Int32Value(40))
			if err != nil || got.Int32() != i+40 {
				t.Fatalf("%s add = %v, %v", reg.tech, got, err)
			}
		}
	}
	h2bSrv, _ := mgr.Server("HCalc")
	if ep := h2bSrv.(*Server).Endpoint(); !strings.HasPrefix(ep, mgr.HTTPBaseURL()+"/") {
		t.Errorf("h2b endpoint %s is not on the shared listener %s", ep, mgr.HTTPBaseURL())
	}

	resp, err := http.Get(mgr.HTTPBaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`livedev_endpoint_requests_total{path="/soap/SCalc"} 3`,
		`livedev_endpoint_requests_total{path="/h2b/HCalc"} 3`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %s:\n%s", want, metrics)
		}
	}
}

// TestDrainCompletesInFlightH2BCall is the lifecycle contract on the h2b
// path: a call in flight when Drain begins completes, and new
// connections to the shared port are refused once the drain is under
// way.
func TestDrainCompletesInFlightH2BCall(t *testing.T) {
	mgr, err := core.NewManager(core.Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	c := dyn.NewClass("HDrain")
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name: "slow", Params: []dyn.Param{{Name: "s", Type: dyn.StringT}}, Result: dyn.StringT, Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			close(entered)
			<-release
			return args[0], nil
		},
	})
	srv, err := mgr.Register(c, core.Technology(Name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}
	sig, _ := c.Interface().Lookup("slow")
	caller := &Caller{Endpoint: srv.(*Server).Endpoint()}
	inFlight := make(chan error, 1)
	go func() {
		got, err := caller.Call(context.Background(), sig, []dyn.Value{dyn.StringValue("kept")})
		if err == nil && got.Str() != "kept" {
			err = fmt.Errorf("slow = %q", got.Str())
		}
		inFlight <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- mgr.Drain(ctx) }()

	addr := strings.TrimPrefix(mgr.HTTPBaseURL(), "http://")
	refused := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			refused = true
			break
		}
		nc.Close()
	}
	if !refused {
		t.Error("the shared port still accepts connections during Drain")
	}
	if _, err := caller.Call(context.Background(), sig, []dyn.Value{dyn.StringValue("late")}); err == nil {
		t.Error("a call started after Drain began was served")
	}

	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight h2b call dropped by Drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
