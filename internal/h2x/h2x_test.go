package h2x

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// startStdlibH2C starts a net/http server speaking prior-knowledge
// cleartext HTTP/2 (the same stack the manager's listener runs).
func startStdlibH2C(t *testing.T, h http.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var protocols http.Protocols
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	srv := &http.Server{Handler: h, Protocols: &protocols}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

// serve starts srv on an ephemeral loopback listener and returns its
// address and the fallback listener for non-HTTP/2 connections.
func serve(t *testing.T, srv *Server) (string, net.Listener) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l.Addr().String(), srv.Start(l, 2*time.Second)
}

// stdlibH2Client returns an http.Client speaking prior-knowledge h2c.
func stdlibH2Client() *http.Client {
	var protocols http.Protocols
	protocols.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{Protocols: &protocols}}
}

// TestClientAgainstStdlibServer is the client half's conformance test:
// the engine's frames, HPACK, and flow control must interoperate with
// the standard library's HTTP/2 server — including Huffman-coded and
// dynamic-table-free response headers.
func TestClientAgainstStdlibServer(t *testing.T) {
	addr := startStdlibH2C(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Proto != "HTTP/2.0" {
			http.Error(w, "not http/2", http.StatusBadRequest)
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo-Method", r.Header.Get("X-Test-Method"))
		w.Header().Set("Content-Type", "application/x-livedev-cdr")
		_, _ = w.Write(bytes.ToUpper(body))
	}))

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Do(context.Background(), &Request{
		Method:    "POST",
		Authority: addr,
		Path:      "/echo",
		Header:    [][2]string{{"x-test-method", "add"}, {"content-type", "application/x-livedev-cdr"}},
		Body:      []byte("hello h2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if got := string(resp.Body); got != "HELLO H2" {
		t.Fatalf("body = %q", got)
	}
	if got := resp.HeaderValue("x-echo-method"); got != "add" {
		t.Fatalf("x-echo-method = %q (Huffman-coded header decode)", got)
	}
}

// TestStdlibClientAgainstServer is the server half's conformance test:
// the standard library's HTTP/2 client (the same stack as the shared
// doc transport) calls the engine.
func TestStdlibClientAgainstServer(t *testing.T) {
	srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
		return &Response{
			Status: 200,
			Header: [][2]string{{"content-type", "text/plain"}, {"x-path", req.Path}},
			Body:   append([]byte("got: "), req.Body...),
		}
	}))
	addr, _ := serve(t, srv)
	defer srv.Close()

	client := stdlibH2Client()
	resp, err := client.Post("http://"+addr+"/call/X", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Proto != "HTTP/2.0" {
		t.Fatalf("proto = %s", resp.Proto)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "got: payload" {
		t.Fatalf("body = %q", body)
	}
	if got := resp.Header.Get("X-Path"); got != "/call/X" {
		t.Fatalf("x-path = %q", got)
	}

	// GET (END_STREAM on HEADERS) exercises the no-body dispatch path.
	resp2, err := client.Get("http://" + addr + "/probe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if string(body2) != "got: " {
		t.Fatalf("GET body = %q", body2)
	}
}

// TestEngineRoundTrip pins the fast path end to end: our client against
// our server, concurrent calls multiplexed on one connection.
func TestEngineRoundTrip(t *testing.T) {
	srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
		return &Response{Status: 200, Body: append([]byte("r:"), req.Body...)}
	}))
	addr, _ := serve(t, srv)
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("call-%d", i))
			resp, err := c.Do(context.Background(), &Request{
				Method: "POST", Authority: addr, Path: "/x", Body: payload,
			})
			if err != nil {
				errs <- err
				return
			}
			if want := "r:" + string(payload); string(resp.Body) != want {
				errs <- fmt.Errorf("call %d: body %q, want %q", i, resp.Body, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLargeBodiesFlowControlled pushes bodies past the initial stream
// window in both directions, so DATA chunking, WINDOW_UPDATE crediting,
// and send-window blocking all engage.
func TestLargeBodiesFlowControlled(t *testing.T) {
	srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
		return &Response{Status: 200, Body: req.Body}
	}))
	addr, _ := serve(t, srv)
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	big := make([]byte, 4<<20) // 4 MiB > the 1 MiB stream window
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp, err := c.Do(context.Background(), &Request{Method: "POST", Authority: addr, Path: "/big", Body: big})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, big) {
		t.Fatalf("4 MiB round trip corrupted: got %d bytes", len(resp.Body))
	}
}

// TestCancellationResetsStream proves a cancelled call returns promptly
// with ctx.Err() and the server observes the reset as a cancelled
// handler context.
func TestCancellationResetsStream(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	serverSawCancel := make(chan struct{}, 1)
	srv := NewServer(HandlerFunc(func(ctx context.Context, req *Request) *Response {
		if req.Path != "/hang" {
			return &Response{Status: 200}
		}
		select {
		case <-ctx.Done():
			serverSawCancel <- struct{}{}
			return nil
		case <-block:
			return &Response{Status: 200}
		}
	}))
	addr, _ := serve(t, srv)
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Do(ctx, &Request{Method: "POST", Authority: addr, Path: "/hang", Body: []byte("x")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	select {
	case <-serverSawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("server handler never observed the RST_STREAM cancellation")
	}

	// The connection survives the reset: a fresh call still works.
	resp, err := c.Do(context.Background(), &Request{Method: "GET", Authority: addr, Path: "/ok"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("call after cancellation: %v (status %d)", err, resp.Status)
	}
}

// TestConnDeathFailsInFlightCalls kills the server mid-call and checks
// every waiter is released with ErrConnClosed.
func TestConnDeathFailsInFlightCalls(t *testing.T) {
	block := make(chan struct{})
	srv := NewServer(HandlerFunc(func(ctx context.Context, _ *Request) *Response {
		<-ctx.Done()
		return nil
	}))
	addr, _ := serve(t, srv)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-block
			_, err := c.Do(context.Background(), &Request{Method: "POST", Authority: addr, Path: "/hang", Body: []byte("x")})
			if !errors.Is(err, ErrConnClosed) {
				t.Errorf("want ErrConnClosed, got %v", err)
			}
		}()
	}
	close(block)
	time.Sleep(50 * time.Millisecond) // let the calls reach the server
	_ = srv.Close()
	wg.Wait()
	if c.Alive() {
		t.Error("conn should be dead after the server closed it")
	}
}

// TestHuffmanDecode pins the decoder against strings encoded with the
// RFC 7541 example codes.
func TestHuffmanDecode(t *testing.T) {
	// RFC 7541 C.4.1: "www.example.com" huffman-encodes to these octets.
	enc := []byte{0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff}
	got, err := huffmanDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "www.example.com" {
		t.Fatalf("decoded %q", got)
	}
	// C.6.1: "302" -> 0x64 0x02
	got, err = huffmanDecode([]byte{0x64, 0x02})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "302" {
		t.Fatalf("decoded %q", got)
	}
	// An EOS-coded string is invalid.
	if _, err := huffmanDecode([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("EOS should be rejected")
	}
}

// TestHPACKDynamicTable decodes the RFC 7541 C.3 request sequence, whose
// later blocks reference dynamic entries the earlier ones added, then
// checks that a table-size update to zero evicts them.
func TestHPACKDynamicTable(t *testing.T) {
	d := newHPACKDecoder()
	for i, tc := range []struct {
		block []byte
		want  string
	}{
		{[]byte("\x82\x86\x84\x41\x0fwww.example.com"),
			":method=GET :scheme=http :path=/ :authority=www.example.com"},
		{[]byte("\x82\x86\x84\xbe\x58\x08no-cache"),
			":method=GET :scheme=http :path=/ :authority=www.example.com cache-control=no-cache"},
		{[]byte("\x82\x87\x85\xbf\x40\x0acustom-key\x0ccustom-value"),
			":method=GET :scheme=https :path=/index.html :authority=www.example.com custom-key=custom-value"},
	} {
		fields, err := d.decode(tc.block)
		if err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		var got []string
		for _, f := range fields {
			got = append(got, f[0]+"="+f[1])
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("request %d = %q, want %q", i+1, strings.Join(got, " "), tc.want)
		}
	}
	if d.size != 164 {
		t.Errorf("dynamic table size = %d, want 164 (RFC 7541 C.3.3)", d.size)
	}
	if _, err := d.decode([]byte{0x20, 0xbe}); err == nil {
		t.Error("index 62 resolved after a table-size update to 0 evicted every entry")
	}
}

// TestStdlibClientConcurrentOnFreshConn sends a burst of parallel
// requests from the standard library's client on a new connection: the
// requests written before the client reads the engine's SETTINGS use
// HPACK's default dynamic table, which the server must decode.
func TestStdlibClientConcurrentOnFreshConn(t *testing.T) {
	srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
		return &Response{Status: 200, Body: append([]byte(req.Path), req.Body...)}
	}))
	addr, _ := serve(t, srv)
	defer srv.Close()

	client := stdlibH2Client()
	defer client.CloseIdleConnections()
	const calls = 32
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/call/%d", i)
			resp, err := client.Post("http://"+addr+path, "text/plain", strings.NewReader(":x"))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if string(body) != path+":x" {
				err = fmt.Errorf("%s answered %q", path, body)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestStartSplitsProtocols serves HTTP/2 and HTTP/1.1 from one listener:
// the engine takes preface connections, net/http the rest.
func TestStartSplitsProtocols(t *testing.T) {
	srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
		return &Response{Status: 200, Body: []byte("h2 " + req.Path)}
	}))
	defer srv.Close()
	addr, fallback := serve(t, srv)
	h1 := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, r.Proto+" "+r.URL.Path)
	})}
	go func() { _ = h1.Serve(fallback) }()
	defer h1.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(context.Background(), &Request{Method: "GET", Authority: addr, Path: "/a"})
	if err != nil || string(resp.Body) != "h2 /a" {
		t.Fatalf("HTTP/2 call: %v %q", err, resp.Body)
	}

	hr, err := http.Get("http://" + addr + "/b")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if string(body) != "HTTP/1.1 /b" {
		t.Fatalf("HTTP/1.1 call answered %q", body)
	}

}

// TestShutdownDrainsStreams pins the graceful close: a call in flight
// when Shutdown begins completes, the client stops using the connection
// on GOAWAY, and new connections are refused.
func TestShutdownDrainsStreams(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := NewServer(HandlerFunc(func(_ context.Context, req *Request) *Response {
		if req.Path == "/slow" {
			close(entered)
			<-release
		}
		return &Response{Status: 200, Body: []byte("done")}
	}))
	defer srv.Close()
	addr, _ := serve(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inFlight := make(chan error, 1)
	go func() {
		resp, err := c.Do(context.Background(), &Request{Method: "POST", Authority: addr, Path: "/slow", Body: []byte("x")})
		if err == nil && string(resp.Body) != "done" {
			err = fmt.Errorf("body %q", resp.Body)
		}
		inFlight <- err
	}()
	<-entered
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(context.Background()) }()

	deadline := time.Now().Add(2 * time.Second)
	for c.Alive() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Alive() {
		t.Fatal("client still treats the connection as alive after GOAWAY")
	}
	if _, err := c.Do(context.Background(), &Request{Method: "GET", Authority: addr, Path: "/new"}); !errors.Is(err, ErrConnClosed) {
		t.Errorf("new call on a going-away connection: want ErrConnClosed, got %v", err)
	}
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.Close()
		t.Error("a new connection was accepted after Shutdown began")
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) before the in-flight call finished", err)
	default:
	}
	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight call dropped by Shutdown: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
