package h2b

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"livedev/internal/cde"
	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2x"
	"livedev/internal/ifsvr"
)

// ErrNonExistentMethod is the client-visible form of the binding's
// "non-existent method" error code. Receiving it guarantees the published
// interface document is already current (Section 5.7), so the CDE reacts
// by re-fetching it.
var ErrNonExistentMethod = errors.New("h2b: non-existent method")

// AppError is a server-side application error delivered to the client.
type AppError struct {
	Message string
}

// Error implements error.
func (e *AppError) Error() string { return "server application error: " + e.Message }

// The binding's connection pool: one long-lived h2x connection per
// endpoint address, shared by every caller in the process, with
// concurrent calls multiplexed as streams rather than racing dials.
// Dials are single-flighted — under a parallel burst the first caller
// dials while the rest wait on ready — and counted per address, so "N
// parallel callers share one connection" is test-assertable (Dials).
var (
	connMu    sync.Mutex
	conns     = make(map[string]*connEntry)
	dialCount = make(map[string]int)
)

type connEntry struct {
	ready chan struct{} // closed once conn/err are set
	conn  *h2x.ClientConn
	err   error
}

// Dials reports how many TCP connections the binding has dialed to addr
// (a "host:port") over the process lifetime. With HTTP/2 multiplexing, N
// parallel callers against one endpoint should move this by one, not by
// N.
func Dials(addr string) int {
	connMu.Lock()
	defer connMu.Unlock()
	return dialCount[addr]
}

// pooledConn returns the live pooled connection to addr, dialing one if
// there is none (or the pooled one died or is going away).
func pooledConn(addr string) (*h2x.ClientConn, error) {
	for {
		connMu.Lock()
		e := conns[addr]
		stale := false
		if e != nil {
			select {
			case <-e.ready:
				if e.err == nil && e.conn.Alive() {
					connMu.Unlock()
					return e.conn, nil
				}
				stale = true // dead conn (or failed dial left behind); replace
			default:
				// A dial is in flight; wait for it outside the lock.
			}
		}
		if e == nil || stale {
			ne := &connEntry{ready: make(chan struct{})}
			conns[addr] = ne
			connMu.Unlock()
			ne.conn, ne.err = h2x.Dial(addr)
			connMu.Lock()
			if ne.err == nil {
				dialCount[addr]++
			} else if conns[addr] == ne {
				delete(conns, addr)
			}
			connMu.Unlock()
			close(ne.ready)
			return ne.conn, ne.err
		}
		connMu.Unlock()
		<-e.ready
		if e.err == nil && e.conn.Alive() {
			return e.conn, nil
		}
		if e.err != nil {
			return nil, e.err
		}
		// The awaited conn died immediately; loop and redial.
	}
}

// Caller posts CDR calls to one endpoint URL — the transport half of an
// h2b client stub (the analogue of jsonb.Caller). Calls ride the pooled
// h2x connection to the endpoint's host:port, with the URL path as
// :path. A caller-supplied HTTP client applies to document traffic only.
type Caller struct {
	// Endpoint is the CDR-POST endpoint URL ("http://host:port/h2b/Class").
	Endpoint string
}

// Call performs one RPC against sig. Cancelling ctx resets the in-flight
// HTTP/2 stream and returns an error wrapping ctx.Err().
func (c *Caller) Call(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	if len(args) != len(sig.Params) {
		return dyn.Value{}, fmt.Errorf("h2b: %s takes %d arguments, got %d", sig.Name, len(sig.Params), len(args))
	}
	rest, ok := strings.CutPrefix(c.Endpoint, "http://")
	slash := strings.IndexByte(rest, '/')
	if !ok || slash <= 0 {
		return dyn.Value{}, fmt.Errorf("h2b: endpoint %q is not an http://host:port/path URL", c.Endpoint)
	}
	addr := rest[:slash]
	e := cdr.GetEncoder(cdr.BigEndian)
	for i, a := range args {
		if !a.Type().Equal(sig.Params[i].Type) {
			cdr.PutEncoder(e)
			return dyn.Value{}, fmt.Errorf("h2b: %s parameter %s wants %s, got %s",
				sig.Name, sig.Params[i].Name, sig.Params[i].Type, a.Type())
		}
		if err := cdr.EncodeValue(e, a); err != nil {
			cdr.PutEncoder(e)
			return dyn.Value{}, err
		}
	}
	req := &h2x.Request{
		Method:    "POST",
		Authority: addr,
		Path:      rest[slash:],
		Header: [][2]string{
			{"content-type", CallContentType},
			{MethodHeader, sig.Name},
			{OrderHeader, OrderBig},
		},
		Body: e.Bytes(),
	}
	var resp *h2x.Response
	for attempt := 0; ; attempt++ {
		conn, err := pooledConn(addr)
		if err != nil {
			cdr.PutEncoder(e)
			return dyn.Value{}, fmt.Errorf("h2b: dialing %s: %w", addr, err)
		}
		resp, err = conn.Do(ctx, req)
		if err == nil {
			break
		}
		// A pooled connection can die or go away between calls (server
		// drain or restart); one redial covers that without masking a
		// live failure.
		if errors.Is(err, h2x.ErrConnClosed) && attempt == 0 && ctx.Err() == nil {
			continue
		}
		cdr.PutEncoder(e)
		return dyn.Value{}, fmt.Errorf("h2b: calling %s: %w", c.Endpoint, err)
	}
	// The engine copies the body into the connection's write buffer
	// before Do returns, so the pooled encoder is safe to recycle here.
	cdr.PutEncoder(e)

	if code := resp.HeaderValue(ErrorHeader); code != "" || resp.Status != http.StatusOK {
		msg := resp.Body
		if len(msg) > 1<<16 {
			msg = msg[:1<<16]
		}
		switch code {
		case CodeNonExistentMethod:
			return dyn.Value{}, fmt.Errorf("%w: %s", ErrNonExistentMethod, msg)
		case CodeApplication:
			return dyn.Value{}, &AppError{Message: string(msg)}
		default:
			return dyn.Value{}, fmt.Errorf("h2b: server error %s (HTTP %d): %s", code, resp.Status, msg)
		}
	}
	if sig.Result == nil || sig.Result.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	order, err := parseOrder(resp.HeaderValue(OrderHeader))
	if err != nil {
		return dyn.Value{}, err
	}
	// The reply body is this call's own buffer (the engine never recycles
	// received frames into other streams), so the zero-copy decode may
	// alias it; the result value keeps it alive.
	d := cdr.NewDecoder(resp.Body, order)
	d.SetZeroCopy(true)
	v, err := cdr.DecodeValue(d, sig.Result)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("h2b: decoding %s result: %w", sig.Name, err)
	}
	return v, nil
}

// backend implements cde.Backend over the h2b wire protocol.
type backend struct {
	docs *cde.DocSource

	mu     sync.RWMutex
	caller *Caller
}

var _ cde.Backend = (*backend)(nil)
var _ cde.WatchableBackend = (*backend)(nil)
var _ cde.StreamingBackend = (*backend)(nil)

// NewBackend returns a cde.Backend reading the interface document at
// docURL. httpClient may be nil; it applies to document traffic only.
func NewBackend(docURL string, httpClient *http.Client) cde.Backend {
	return &backend{docs: cde.NewDocSource(docURL, httpClient, nil)}
}

// Technology implements cde.Backend.
func (b *backend) Technology() string { return Name }

// compile turns a fetched (or pushed) interface document into the
// descriptor and (re)targets the caller at the advertised endpoint.
func (b *backend) compile(doc ifsvr.Document) (dyn.InterfaceDescriptor, cde.DocVersions, error) {
	desc, endpoint, err := ParseDoc(doc.Content)
	if err != nil {
		return dyn.InterfaceDescriptor{}, cde.DocVersions{}, err
	}
	desc.Version = doc.DescriptorVersion
	b.mu.Lock()
	b.caller = &Caller{Endpoint: endpoint}
	b.mu.Unlock()
	return desc, cde.DocVersions{Doc: doc.Version, Descriptor: doc.DescriptorVersion, Epoch: doc.Epoch, Generation: doc.Generation}, nil
}

// FetchInterface implements cde.Backend: fetch the h2b interface document
// and compile it.
func (b *backend) FetchInterface(ctx context.Context) (dyn.InterfaceDescriptor, cde.DocVersions, error) {
	doc, err := b.docs.Fetch(ctx)
	if err != nil {
		return dyn.InterfaceDescriptor{}, cde.DocVersions{}, err
	}
	return b.compile(doc)
}

// WatchInterface implements cde.WatchableBackend over the Interface
// Server's long-poll watch protocol.
func (b *backend) WatchInterface(ctx context.Context, after uint64) (dyn.InterfaceDescriptor, cde.DocVersions, error) {
	doc, err := b.docs.Watch(ctx, after)
	if err != nil {
		return dyn.InterfaceDescriptor{}, cde.DocVersions{}, err
	}
	return b.compile(doc)
}

// StreamInterface implements cde.StreamingBackend over the Interface
// Server's SSE watch transport.
func (b *backend) StreamInterface(ctx context.Context, afterEpoch uint64, deliver func(cde.InterfaceEvent)) error {
	return b.docs.Stream(ctx, afterEpoch, func(ev ifsvr.StreamEvent) {
		desc, vers, err := b.compile(ev.Doc)
		if err != nil {
			return // a malformed intermediate version; the next event supersedes it
		}
		deliver(cde.InterfaceEvent{Desc: desc, Versions: vers, Replayed: ev.Replayed, Snapshot: ev.Snapshot})
	})
}

// Invoke implements cde.Backend.
func (b *backend) Invoke(ctx context.Context, sig dyn.MethodSig, args []dyn.Value) (dyn.Value, error) {
	b.mu.RLock()
	caller := b.caller
	b.mu.RUnlock()
	if caller == nil {
		return dyn.Value{}, errors.New("h2b: backend not initialized")
	}
	return caller.Call(ctx, sig, args)
}

// IsStale implements cde.Backend.
func (b *backend) IsStale(err error) bool { return errors.Is(err, ErrNonExistentMethod) }

// Close implements cde.Backend.
func (b *backend) Close() error { return nil }

// Binding is the complete CDR-over-HTTP/2 RMI technology: the server half
// (core.Binding: Name + Serve) and the client half (Describe + Connect,
// the cde.Connector shape). livedev.RegisterBinding accepts it directly.
type Binding struct{}

// New returns the binding.
func New() Binding { return Binding{} }

// Name implements core.Binding.
func (Binding) Name() string { return Name }

// Serve implements core.Binding.
func (Binding) Serve(m *core.Manager, class *dyn.Class) (core.Server, error) {
	return newServer(m, class), nil
}

// Describe reports how the binding's interface documents are recognized.
func (Binding) Describe() cde.DocMatch {
	return cde.DocMatch{
		ContentTypes: []string{DocContentType},
		PathSuffixes: []string{".h2b"},
		Content:      func(doc string) bool { return strings.Contains(doc, DocFormat) },
	}
}

// Connect builds a live CDE client from the interface-document URL.
func (Binding) Connect(ctx context.Context, url string, opts *cde.DialOptions) (*cde.Client, error) {
	var hc *http.Client
	var seed *ifsvr.Document
	if opts != nil {
		hc = opts.HTTPClient
		seed = opts.Prefetched
	}
	docs := cde.NewDocSource(url, hc, seed)
	if opts != nil {
		docs.SetEndpoints(opts.Endpoints)
	}
	b := &backend{docs: docs}
	return cde.NewClientContext(ctx, b, opts)
}

// Connector returns the client half as a cde.Connector, for callers wiring
// the registries directly rather than through livedev.RegisterBinding.
func Connector() cde.Connector {
	b := Binding{}
	return cde.Connector{Name: Name, Match: b.Describe(), Connect: b.Connect}
}
