package h2b

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"livedev/internal/cdr"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2x"
)

// maxBodyBytes bounds one call's argument (or reply) stream.
const maxBodyBytes = 16 << 20

// Server is the h2b subsystem bundle for one managed class — the same
// Figure 4/5 shape as the other bindings: a document generator feeding
// the shared Interface Server via a DL Publisher, and a call handler
// mounted (MountH2) on the manager's shared endpoint listener, whose h2x
// engine takes the connections that open with the HTTP/2 preface. It is
// built entirely from the Manager's public binding surface.
type Server struct {
	mgr      *core.Manager
	class    *dyn.Class
	pub      *core.DLPublisher
	handler  *callHandler
	endpoint string
	path     string
	docPath  string

	mu       sync.Mutex
	instance *dyn.Instance
	closed   bool
}

var _ core.Server = (*Server)(nil)

func newServer(m *core.Manager, class *dyn.Class) *Server {
	s := &Server{
		mgr:     m,
		class:   class,
		path:    "/h2b/" + class.Name(),
		docPath: "/h2bif/" + class.Name() + ".h2b",
	}
	s.endpoint = m.HTTPBaseURL() + s.path
	s.handler = &callHandler{class: class}
	s.pub = m.PublishInterface(class, s.docPath, DocContentType,
		func(desc dyn.InterfaceDescriptor) (string, error) {
			return GenerateDoc(desc, s.endpoint)
		})
	s.handler.pub = s.pub
	s.handler.reactive = m.ReactivePublication()

	m.MountH2(s.path, s.handler)
	return s
}

// Class implements core.Server.
func (s *Server) Class() *dyn.Class { return s.class }

// Technology implements core.Server.
func (s *Server) Technology() core.Technology { return core.Technology(Name) }

// Publisher implements core.Server.
func (s *Server) Publisher() *core.DLPublisher { return s.pub }

// Endpoint returns the CDR-POST endpoint URL.
func (s *Server) Endpoint() string { return s.endpoint }

// InterfaceURL implements core.Server: the h2b interface document URL.
func (s *Server) InterfaceURL() string {
	return s.mgr.InterfaceBaseURL() + s.docPath
}

// CreateInstance implements core.Server.
func (s *Server) CreateInstance() (*dyn.Instance, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("h2b: server closed")
	}
	if s.instance != nil {
		return nil, fmt.Errorf("h2b: class %s already has its instance (single-instance rule, Section 5.4)", s.class.Name())
	}
	in := s.class.NewInstance()
	s.instance = in
	s.handler.Activate(in)
	return in, nil
}

// Instance implements core.Server.
func (s *Server) Instance() *dyn.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instance
}

// Close implements core.Server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.mgr.UnmountH2(s.path)
	s.pub.Close()
	s.mgr.Store().Remove(s.docPath)
	s.mgr.Unregister(s.class.Name())
	return nil
}

// callHandler is the binding's Call Handler, with the same concurrency
// design as the built-in bindings: concurrent requests under a read gate,
// the stale path under the write gate with forced publication (Section
// 5.7). The concurrent requests are streams of one HTTP/2 connection, so
// the read gate is what lets them actually dispatch in parallel.
type callHandler struct {
	class    *dyn.Class
	pub      *core.DLPublisher
	reactive bool

	gate     sync.RWMutex
	instance *dyn.Instance
}

var _ core.CallHandler = (*callHandler)(nil)
var _ h2x.Handler = (*callHandler)(nil)

// Activate implements core.CallHandler.
func (h *callHandler) Activate(in *dyn.Instance) {
	h.gate.Lock()
	h.instance = in
	h.gate.Unlock()
}

// Active implements core.CallHandler.
func (h *callHandler) Active() bool {
	h.gate.RLock()
	defer h.gate.RUnlock()
	return h.instance != nil
}

// ServeH2 handles one call (one HTTP/2 stream): CDR argument decode under
// the read gate, dispatch, CDR result encode. r.Body is the stream's own
// buffer, so the zero-copy decode may alias it; argument values keep it
// alive. ctx ends when the client resets the stream, and a nil response
// then just drops it. The engine invokes Done after the response octets
// leave, which is when the pooled encoder backing the body goes back to
// its pool.
func (h *callHandler) ServeH2(ctx context.Context, r *h2x.Request) *h2x.Response {
	if r.Method != "POST" {
		return &h2x.Response{
			Status: http.StatusMethodNotAllowed,
			Header: [][2]string{{"content-type", "text/plain; charset=utf-8"}},
			Body:   []byte("h2b endpoint: POST only"),
		}
	}
	if len(r.Body) > maxBodyBytes {
		return errorResponse(http.StatusBadRequest, CodeMalformed, "request body exceeds the call size limit")
	}
	method := r.HeaderValue(MethodHeader)
	if method == "" {
		return errorResponse(http.StatusBadRequest, CodeMalformed, "missing "+MethodHeader+" header")
	}
	order, err := parseOrder(r.HeaderValue(OrderHeader))
	if err != nil {
		return errorResponse(http.StatusBadRequest, CodeMalformed, err.Error())
	}

	h.gate.RLock()
	in := h.instance
	if in == nil {
		h.gate.RUnlock()
		return errorResponse(http.StatusServiceUnavailable, CodeNotInitialized, "server not initialized")
	}

	// Resolve against the live interface, not any cached view.
	sig, ok := h.class.Interface().Lookup(method)
	if !ok {
		h.gate.RUnlock()
		return h.staleCall(method)
	}
	d := cdr.NewDecoder(r.Body, order)
	d.SetZeroCopy(true)
	args := make([]dyn.Value, len(sig.Params))
	for i, p := range sig.Params {
		v, derr := cdr.DecodeValue(d, p.Type)
		if derr != nil {
			// Encoded against a stale signature: same protocol as a
			// missing method (Section 5.6).
			h.gate.RUnlock()
			return h.staleCall(method)
		}
		args[i] = v
	}
	if d.Remaining() != 0 {
		// Trailing octets mean the client encoded more arguments than the
		// current signature takes — a stale stub, not a framing error.
		h.gate.RUnlock()
		return h.staleCall(method)
	}

	if ctx.Err() != nil {
		// The stream was reset; skip work nobody will observe.
		h.gate.RUnlock()
		return nil
	}
	result, err := in.InvokeDistributed(method, args...)
	h.gate.RUnlock()

	switch {
	case err == nil:
		e := cdr.GetEncoder(cdr.BigEndian)
		if encErr := cdr.EncodeValue(e, result); encErr != nil {
			cdr.PutEncoder(e)
			return errorResponse(http.StatusInternalServerError, CodeApplication, encErr.Error())
		}
		return &h2x.Response{
			Status: http.StatusOK,
			Header: [][2]string{
				{"content-type", CallContentType},
				{OrderHeader, OrderBig},
			},
			Body: e.Bytes(),
			Done: func() { cdr.PutEncoder(e) },
		}
	case errors.Is(err, dyn.ErrNoSuchMethod), errors.Is(err, dyn.ErrSignatureMismatch):
		// Interface changed between lookup and dispatch.
		return h.staleCall(method)
	default:
		return errorResponse(http.StatusInternalServerError, CodeApplication, err.Error())
	}
}

// errorResponse renders an error reply: the code in ErrorHeader, the
// message as plain text.
func errorResponse(status int, code, msg string) *h2x.Response {
	return &h2x.Response{
		Status: status,
		Header: [][2]string{
			{"content-type", "text/plain; charset=utf-8"},
			{ErrorHeader, code},
		},
		Body: []byte(msg),
	}
}

// staleCall implements the Section 5.7 server algorithm: stall incoming
// processing (write gate), force the published interface document current,
// then report "non-existent method" and resume.
func (h *callHandler) staleCall(method string) *h2x.Response {
	h.gate.Lock()
	if h.pub != nil && h.reactive {
		h.pub.EnsureCurrent()
	}
	h.gate.Unlock()
	return errorResponse(http.StatusNotFound, CodeNonExistentMethod,
		"method "+method+" is not part of the current server interface")
}
