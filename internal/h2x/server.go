package h2x

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// Handler serves one complete call. It runs on its own goroutine per
// stream; ctx is cancelled when the client resets the stream or the
// connection dies. The returned response is written directly from that
// goroutine — no frame-scheduler handoff.
type Handler interface {
	ServeH2(ctx context.Context, req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, req *Request) *Response

// ServeH2 implements Handler.
func (f HandlerFunc) ServeH2(ctx context.Context, req *Request) *Response { return f(ctx, req) }

// maxServerBody caps one request body; the binding enforces its own
// (smaller) limit, this one just bounds engine memory.
const maxServerBody = 32 << 20

// Server serves calls through a Handler on connections that open with
// the prior-knowledge cleartext HTTP/2 preface. It shares its listener
// with net/http: Start routes every other connection to a fallback
// listener.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	draining bool // Shutdown began: new connections are refused
	closed   bool
}

// NewServer returns a server dispatching to h.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[*serverConn]struct{})}
}

// Start serves l in the background and returns the listener net/http
// should serve: a connection that opens with the HTTP/2 client preface
// is the engine's, every other one is handed to the fallback with the
// octets read so far replayed. The decision falls on the first octet
// that differs from the preface, so a short HTTP/1.1 request is routed
// without waiting for 24 octets; sniffTimeout bounds a peer that sends
// a partial preface (or nothing) and then stalls.
func (s *Server) Start(l net.Listener, sniffTimeout time.Duration) net.Listener {
	fb := &fallbackListener{addr: l.Addr(), conns: make(chan net.Conn), done: make(chan struct{})}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		_ = l.Close()
		_ = fb.Close()
		return fb
	}
	s.listener = l
	s.mu.Unlock()
	go s.acceptLoop(l, fb, sniffTimeout)
	return fb
}

func (s *Server) acceptLoop(l net.Listener, fb *fallbackListener, sniffTimeout time.Duration) {
	defer fb.Close()
	var pause time.Duration
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of descriptors or a similar transient failure: back
			// off instead of spinning (net/http's accept policy).
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			time.Sleep(pause)
			continue
		}
		pause = 0
		go s.route(nc, fb, sniffTimeout)
	}
}

// route sniffs one accepted connection and hands it to the engine or
// the fallback listener.
func (s *Server) route(nc net.Conn, fb *fallbackListener, sniffTimeout time.Duration) {
	var buf [len(clientPreface)]byte
	_ = nc.SetReadDeadline(time.Now().Add(sniffTimeout))
	for n := 0; n < len(buf); {
		m, err := nc.Read(buf[n:])
		n += m
		if string(buf[:n]) != clientPreface[:n] {
			_ = nc.SetReadDeadline(time.Time{})
			fb.deliver(&replayConn{Conn: nc, prefix: buf[:n]})
			return
		}
		if err != nil {
			_ = nc.Close()
			return
		}
	}
	_ = nc.SetReadDeadline(time.Time{})
	c := &serverConn{
		srv:     s,
		conn:    nc,
		br:      bufio.NewReaderSize(nc, 1<<16),
		streams: make(map[uint32]*serverStream),
		flow:    newFlowState(),
		hdec:    newHPACKDecoder(),
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		_ = nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	c.serve()
}

// Shutdown drains the server: the listener closes, every connection is
// sent GOAWAY naming the last stream it accepted, later streams are
// refused, and Shutdown waits — bounded by ctx — for the accepted
// streams to finish. A drained connection is half-closed, so its client
// reads the last replies and then EOF.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	l := s.listener
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		c.sendGoAway()
	}
	pause := time.Millisecond
	for {
		busy := conns[:0]
		for _, c := range conns {
			if !c.closeIfIdle() {
				busy = append(busy, c)
			}
		}
		conns = busy
		if len(conns) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pause):
		}
		pause = min(2*pause, 50*time.Millisecond)
	}
}

// Close stops the listener and tears down every connection. Handler
// goroutines are not joined: a handler blocked in application code
// observes its cancelled context, and its response write fails
// harmlessly on the closed connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.conn.Close()
	}
	return nil
}

// fallbackListener hands net/http the connections that are not HTTP/2.
type fallbackListener struct {
	addr  net.Addr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *fallbackListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *fallbackListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *fallbackListener) Addr() net.Addr { return l.addr }

func (l *fallbackListener) deliver(c net.Conn) {
	select {
	case l.conns <- c:
	case <-l.done:
		_ = c.Close()
	}
}

// replayConn returns the sniffed octets before reading on.
type replayConn struct {
	net.Conn
	prefix []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.prefix) > 0 {
		n := copy(p, c.prefix)
		c.prefix = c.prefix[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// CloseWrite passes net/http's graceful half-close through the wrapper.
func (c *replayConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return errors.ErrUnsupported
}

// serverConn is one accepted connection.
type serverConn struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte

	mu        sync.Mutex
	streams   map[uint32]*serverStream // open: accepted, reply not yet sent
	lastID    uint32                   // highest stream ID accepted
	goingAway bool                     // GOAWAY sent: later streams are refused

	flow *flowState

	recvMu   sync.Mutex
	recvDebt uint32
	hdec     hpackDecoder // read loop only
}

// serverStream is one request being assembled (or served).
type serverStream struct {
	id         uint32
	req        Request
	cancel     context.CancelFunc
	dispatched bool
}

func (c *serverConn) serve() {
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.teardown()
	}()

	// Start consumed the connection preface; send our settings.
	b := appendSettings(nil,
		[2]uint32{settingHeaderTableSize, 0},
		[2]uint32{settingMaxConcurrentStreams, maxConcurrentStream},
		[2]uint32{settingInitialWindowSize, streamWindow},
		[2]uint32{settingMaxFrameSize, maxFrameSize},
	)
	b = appendWindowUpdate(b, 0, connWindow-initialWindow)
	if _, err := c.conn.Write(b); err != nil {
		return
	}

	connCtx, cancelConn := context.WithCancel(context.Background())
	defer cancelConn()

	var hbuf [9]byte
	payload := make([]byte, 0, 1<<16)
	for {
		hdr, err := readFrameHeader(c.br, &hbuf)
		if err != nil {
			return
		}
		if hdr.length > maxFrameSize {
			c.goAway(errCodeProtocol)
			return
		}
		if cap(payload) < int(hdr.length) {
			payload = make([]byte, hdr.length)
		}
		payload = payload[:hdr.length]
		if _, err := readFull(c.br, payload); err != nil {
			return
		}

		switch hdr.typ {
		case frameHeaders:
			if err := c.handleHeaders(connCtx, hdr, payload); err != nil {
				c.goAway(errCodeProtocol)
				return
			}
		case frameData:
			if err := c.handleData(hdr, payload); err != nil {
				c.goAway(errCodeFlowControl)
				return
			}
		case frameRSTStream:
			c.mu.Lock()
			s := c.streams[hdr.streamID]
			delete(c.streams, hdr.streamID)
			c.mu.Unlock()
			if s != nil && s.cancel != nil {
				s.cancel()
			}
			c.flow.forget(hdr.streamID)
		case frameSettings:
			if hdr.flags&flagAck != 0 {
				continue
			}
			c.applySettings(payload)
			c.wmu.Lock()
			buf := appendSettingsAck(c.wbuf[:0])
			_, _ = c.conn.Write(buf)
			c.wbuf = buf
			c.wmu.Unlock()
		case framePing:
			if hdr.flags&flagAck == 0 && len(payload) == 8 {
				c.wmu.Lock()
				buf := appendPingAck(c.wbuf[:0], payload)
				_, _ = c.conn.Write(buf)
				c.wbuf = buf
				c.wmu.Unlock()
			}
		case frameWindowUpdate:
			if len(payload) == 4 {
				delta := int64(uint32(payload[0])<<24|uint32(payload[1])<<16|uint32(payload[2])<<8|uint32(payload[3])) & 0x7fffffff
				c.flow.credit(hdr.streamID, delta)
			}
		case frameGoAway:
			return
		case frameContinuation:
			c.goAway(errCodeProtocol)
			return
		case framePriority:
			// Deprecated; ignored.
		}
	}
}

// teardown cancels every in-flight stream and unblocks writers.
func (c *serverConn) teardown() {
	_ = c.conn.Close()
	c.mu.Lock()
	streams := c.streams
	c.streams = make(map[uint32]*serverStream)
	c.mu.Unlock()
	for _, s := range streams {
		if s.cancel != nil {
			s.cancel()
		}
	}
	c.flow.mu.Lock()
	c.flow.dead = true
	c.flow.cond.Broadcast()
	c.flow.mu.Unlock()
}

func (c *serverConn) goAway(code uint32) {
	c.wmu.Lock()
	buf := appendGoAway(c.wbuf[:0], 0, code)
	_, _ = c.conn.Write(buf)
	c.wbuf = buf
	c.wmu.Unlock()
}

// sendGoAway starts a graceful close: GOAWAY names the last accepted
// stream, and every stream the peer opens after it is refused.
func (c *serverConn) sendGoAway() {
	c.mu.Lock()
	if c.goingAway {
		c.mu.Unlock()
		return
	}
	c.goingAway = true
	last := c.lastID
	c.mu.Unlock()
	c.wmu.Lock()
	buf := appendGoAway(c.wbuf[:0], last, errCodeNo)
	_, _ = c.conn.Write(buf)
	c.wbuf = buf
	c.wmu.Unlock()
}

// closeIfIdle half-closes a draining connection once its accepted
// streams are answered, reporting whether it did.
func (c *serverConn) closeIfIdle() bool {
	c.mu.Lock()
	idle := len(c.streams) == 0
	c.mu.Unlock()
	if !idle {
		return false
	}
	if cw, ok := c.conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	} else {
		_ = c.conn.Close()
	}
	return true
}

// writeRST resets one stream.
func (c *serverConn) writeRST(id, code uint32) {
	c.wmu.Lock()
	buf := appendRSTStream(c.wbuf[:0], id, code)
	_, _ = c.conn.Write(buf)
	c.wbuf = buf
	c.wmu.Unlock()
}

// handleHeaders assembles a request's header block (reading
// CONTINUATIONs inline if the peer splits it) and either dispatches the
// request (END_STREAM set) or parks the stream awaiting DATA.
func (c *serverConn) handleHeaders(connCtx context.Context, hdr frameHeader, payload []byte) error {
	fragment := payload
	if hdr.flags&flagPadded != 0 {
		b, err := stripPadding(payload)
		if err != nil {
			return err
		}
		fragment = b
	}
	if hdr.flags&flagPriority != 0 {
		if len(fragment) < 5 {
			return fmt.Errorf("h2x: HEADERS priority block too short")
		}
		fragment = fragment[5:]
	}
	block := append([]byte(nil), fragment...)
	endHeaders := hdr.flags&flagEndHeaders != 0
	var hbuf [9]byte
	for !endHeaders {
		ch, err := readFrameHeader(c.br, &hbuf)
		if err != nil {
			return err
		}
		if ch.typ != frameContinuation || ch.streamID != hdr.streamID || ch.length > maxFrameSize {
			return fmt.Errorf("h2x: bad CONTINUATION")
		}
		cont := make([]byte, ch.length)
		if _, err := readFull(c.br, cont); err != nil {
			return err
		}
		block = append(block, cont...)
		endHeaders = ch.flags&flagEndHeaders != 0
	}

	fields, err := c.hdec.decode(block)
	if err != nil {
		return err
	}
	s := &serverStream{id: hdr.streamID}
	for _, f := range fields {
		switch f[0] {
		case ":method":
			s.req.Method = f[1]
		case ":scheme":
			s.req.Scheme = f[1]
		case ":path":
			s.req.Path = f[1]
		case ":authority":
			s.req.Authority = f[1]
		default:
			if len(f[0]) > 0 && f[0][0] != ':' {
				s.req.Header = append(s.req.Header, f)
			}
		}
	}

	c.mu.Lock()
	if c.goingAway {
		c.mu.Unlock()
		c.writeRST(hdr.streamID, errCodeRefusedStream)
		return nil
	}
	c.lastID = hdr.streamID
	c.streams[hdr.streamID] = s
	c.mu.Unlock()
	if hdr.flags&flagEndStream != 0 {
		c.dispatch(connCtx, s)
		return nil
	}
	c.flow.mu.Lock()
	c.flow.streamWindow[hdr.streamID] = c.flow.initialWindow
	c.flow.mu.Unlock()
	return nil
}

// handleData appends a DATA frame to its stream's body, credits receive
// windows, and dispatches on END_STREAM.
func (c *serverConn) handleData(hdr frameHeader, payload []byte) error {
	body := payload
	if hdr.flags&flagPadded != 0 {
		b, err := stripPadding(payload)
		if err != nil {
			return err
		}
		body = b
	}
	c.mu.Lock()
	s := c.streams[hdr.streamID]
	if s != nil && s.dispatched {
		s = nil // DATA after END_STREAM; the handler owns the body now
	}
	if s != nil {
		s.req.Body = append(s.req.Body, body...)
		if len(s.req.Body) > maxServerBody {
			delete(c.streams, hdr.streamID)
			c.mu.Unlock()
			c.flow.forget(hdr.streamID)
			c.writeRST(hdr.streamID, errCodeEnhanceYourCalm)
			return nil
		}
	}
	c.mu.Unlock()
	c.creditReceive(hdr.streamID, hdr.length, s != nil && hdr.flags&flagEndStream == 0)
	if s != nil && hdr.flags&flagEndStream != 0 {
		c.flow.mu.Lock()
		// Keep the stream's send window registered for the response.
		if _, ok := c.flow.streamWindow[hdr.streamID]; !ok {
			c.flow.streamWindow[hdr.streamID] = c.flow.initialWindow
		}
		c.flow.mu.Unlock()
		c.dispatch(context.Background(), s)
	}
	return nil
}

// dispatch runs the handler on its own goroutine and writes the
// response directly from it. The stream stays registered (open, and
// cancellable by RST_STREAM) until its response is written.
func (c *serverConn) dispatch(connCtx context.Context, s *serverStream) {
	c.flow.mu.Lock()
	if _, ok := c.flow.streamWindow[s.id]; !ok {
		c.flow.streamWindow[s.id] = c.flow.initialWindow
	}
	c.flow.mu.Unlock()
	ctx, cancel := context.WithCancel(connCtx)
	s.cancel = cancel
	s.dispatched = true
	go func() {
		defer func() {
			cancel()
			c.flow.forget(s.id)
			c.mu.Lock()
			delete(c.streams, s.id)
			c.mu.Unlock()
		}()
		resp := c.srv.handler.ServeH2(ctx, &s.req)
		if resp != nil && resp.Done != nil {
			// The response octets are copied into the connection's write
			// buffer before writeResponse returns, so the handler's
			// pooled Body buffer is released either way.
			defer resp.Done()
		}
		if resp != nil && ctx.Err() == nil {
			c.writeResponse(ctx, s.id, resp)
		}
	}()
}

// writeResponse encodes and sends one response; like the client's
// request path, a small response is a single conn.Write.
func (c *serverConn) writeResponse(ctx context.Context, id uint32, resp *Response) {
	var block []byte
	switch resp.Status {
	case 200:
		block = appendIndexed(block, 8)
	case 204:
		block = appendIndexed(block, 9)
	case 304:
		block = appendIndexed(block, 11)
	case 400:
		block = appendIndexed(block, 12)
	case 404:
		block = appendIndexed(block, 13)
	case 500:
		block = appendIndexed(block, 14)
	default:
		block = appendLiteral(block, 8, "", strconv.Itoa(resp.Status))
	}
	for _, f := range resp.Header {
		block = appendLiteral(block, 0, f[0], f[1])
	}

	c.flow.mu.Lock()
	maxFrame := int(c.flow.maxFrame)
	c.flow.mu.Unlock()

	endStream := uint8(0)
	if len(resp.Body) == 0 {
		endStream = flagEndStream
	}
	if len(resp.Body) <= maxFrame {
		if len(resp.Body) > 0 {
			if err := c.flow.take(ctx, id, int64(len(resp.Body))); err != nil {
				return
			}
		}
		c.wmu.Lock()
		buf := appendFrameHeader(c.wbuf[:0], len(block), frameHeaders, flagEndHeaders|endStream, id)
		buf = append(buf, block...)
		if len(resp.Body) > 0 {
			buf = appendFrameHeader(buf, len(resp.Body), frameData, flagEndStream, id)
			buf = append(buf, resp.Body...)
		}
		_, _ = c.conn.Write(buf)
		c.wbuf = buf
		c.wmu.Unlock()
		return
	}

	c.wmu.Lock()
	buf := appendFrameHeader(c.wbuf[:0], len(block), frameHeaders, flagEndHeaders, id)
	buf = append(buf, block...)
	_, err := c.conn.Write(buf)
	c.wbuf = buf
	c.wmu.Unlock()
	if err != nil {
		return
	}
	body := resp.Body
	for len(body) > 0 {
		c.flow.mu.Lock()
		maxFrame = int(c.flow.maxFrame)
		c.flow.mu.Unlock()
		n := min(len(body), maxFrame)
		if err := c.flow.take(ctx, id, int64(n)); err != nil {
			return
		}
		flags := uint8(0)
		if n == len(body) {
			flags = flagEndStream
		}
		c.wmu.Lock()
		buf = appendFrameHeader(c.wbuf[:0], n, frameData, flags, id)
		buf = append(buf, body[:n]...)
		_, err = c.conn.Write(buf)
		c.wbuf = buf
		c.wmu.Unlock()
		if err != nil {
			return
		}
		body = body[n:]
	}
}

// applySettings applies peer SETTINGS to the send direction.
func (c *serverConn) applySettings(payload []byte) {
	c.flow.mu.Lock()
	for i := 0; i+6 <= len(payload); i += 6 {
		id := uint16(payload[i])<<8 | uint16(payload[i+1])
		v := uint32(payload[i+2])<<24 | uint32(payload[i+3])<<16 | uint32(payload[i+4])<<8 | uint32(payload[i+5])
		switch id {
		case settingInitialWindowSize:
			delta := int64(v) - c.flow.initialWindow
			c.flow.initialWindow = int64(v)
			for sid := range c.flow.streamWindow {
				c.flow.streamWindow[sid] += delta
			}
		case settingMaxFrameSize:
			if v >= minMaxFrameSize {
				c.flow.maxFrame = v
			}
		}
	}
	c.flow.cond.Broadcast()
	c.flow.mu.Unlock()
}

// creditReceive mirrors the client's receive-credit policy.
func (c *serverConn) creditReceive(streamID uint32, n uint32, streamOpen bool) {
	if n == 0 {
		return
	}
	c.recvMu.Lock()
	c.recvDebt += n
	connCredit := uint32(0)
	if c.recvDebt >= connWindow/4 {
		connCredit = c.recvDebt
		c.recvDebt = 0
	}
	c.recvMu.Unlock()
	if connCredit == 0 && !streamOpen {
		return
	}
	c.wmu.Lock()
	buf := c.wbuf[:0]
	if streamOpen {
		buf = appendWindowUpdate(buf, streamID, n)
	}
	if connCredit > 0 {
		buf = appendWindowUpdate(buf, 0, connCredit)
	}
	_, _ = c.conn.Write(buf)
	c.wbuf = buf
	c.wmu.Unlock()
}
