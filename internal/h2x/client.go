package h2x

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
)

// Request is one call as the engine sees it: pseudo-header components
// plus regular header fields (names must be lowercase, per HTTP/2) and
// an optional body.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    [][2]string
	Body      []byte
}

// Response is one reply: the status code, the regular header fields, and
// the complete body. A server handler may set Done; the engine invokes
// it once the response octets have been copied out (or the response is
// dropped), which is what lets handlers hand over pooled buffers as
// Body.
type Response struct {
	Status int
	Header [][2]string
	Body   []byte
	Done   func()
}

// HeaderValue returns the first value of the named (lowercase) field.
func (r *Request) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f[0] == name {
			return f[1]
		}
	}
	return ""
}

// HeaderValue returns the first value of the named (lowercase) field.
func (r *Response) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f[0] == name {
			return f[1]
		}
	}
	return ""
}

// ErrConnClosed reports a call attempted on (or interrupted by) a dead
// connection; callers holding a pooled conn redial on it.
var ErrConnClosed = errors.New("h2x: connection closed")

// errRefused fails a stream the server refused unprocessed (past its
// GOAWAY, or reset with REFUSED_STREAM), so a retry is safe.
var errRefused = fmt.Errorf("%w: stream refused by the server", ErrConnClosed)

// ClientConn is one cleartext prior-knowledge HTTP/2 client connection
// multiplexing concurrent calls as streams. A call is one write syscall
// (HEADERS and DATA leave in a single buffer) plus a channel receive;
// the connection's read loop parses reply frames and completes calls.
type ClientConn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu  sync.Mutex // serializes writes; wbuf is its scratch
	wbuf []byte

	mu        sync.Mutex // streams registry + conn liveness
	streams   map[uint32]*clientStream
	nextID    uint32
	dead      error
	goingAway bool // GOAWAY received: no new streams

	flow *flowState

	recvMu   sync.Mutex // receive-window credit accounting
	recvDebt uint32
	hdec     hpackDecoder // read loop only
}

// clientStream is one in-flight call.
type clientStream struct {
	id   uint32
	resp Response
	body []byte
	done chan error // buffered; nil error = complete response
}

// flowState tracks send-direction flow control: the connection window
// plus the peer's initial stream window, guarded by one mutex with a
// broadcast when credit arrives.
type flowState struct {
	mu            sync.Mutex
	cond          *sync.Cond
	connWindow    int64
	initialWindow int64            // peer SETTINGS_INITIAL_WINDOW_SIZE
	streamWindow  map[uint32]int64 // per open stream
	maxFrame      uint32           // peer SETTINGS_MAX_FRAME_SIZE
	dead          bool
}

func newFlowState() *flowState {
	f := &flowState{
		connWindow:    initialWindow,
		initialWindow: initialWindow,
		streamWindow:  make(map[uint32]int64),
		maxFrame:      minMaxFrameSize,
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Dial opens a prior-knowledge h2c connection to addr and performs the
// client half of the HTTP/2 connection setup.
func Dial(addr string) (*ClientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(nc), nil
}

// NewClientConn runs the HTTP/2 client preface over an established
// connection and returns the multiplexing conn.
func NewClientConn(nc net.Conn) *ClientConn {
	c := &ClientConn{
		conn:    nc,
		br:      bufio.NewReaderSize(nc, 1<<16),
		streams: make(map[uint32]*clientStream),
		nextID:  1,
		hdec:    newHPACKDecoder(),
	}
	c.flow = newFlowState()
	b := append([]byte(nil), clientPreface...)
	b = appendSettings(b,
		[2]uint32{settingHeaderTableSize, 0},
		[2]uint32{settingEnablePush, 0},
		[2]uint32{settingMaxConcurrentStreams, maxConcurrentStream},
		[2]uint32{settingInitialWindowSize, streamWindow},
		[2]uint32{settingMaxFrameSize, maxFrameSize},
	)
	b = appendWindowUpdate(b, 0, connWindow-initialWindow)
	_, _ = nc.Write(b)
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail with
// ErrConnClosed.
func (c *ClientConn) Close() error { return c.conn.Close() }

// Alive reports whether the connection can still carry new calls: it
// is neither dead nor going away.
func (c *ClientConn) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead == nil && !c.goingAway
}

// goAway applies a GOAWAY: streams up to last still complete, later ones
// fail as refused, and the connection takes no new calls.
func (c *ClientConn) goAway(last uint32) {
	c.mu.Lock()
	c.goingAway = true
	var refused []*clientStream
	for id, s := range c.streams {
		if id > last {
			refused = append(refused, s)
			delete(c.streams, id)
		}
	}
	c.mu.Unlock()
	for _, s := range refused {
		s.done <- errRefused
	}
}

// fail marks the connection dead and completes every in-flight call.
func (c *ClientConn) fail(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	streams := c.streams
	c.streams = make(map[uint32]*clientStream)
	c.mu.Unlock()
	c.flow.mu.Lock()
	c.flow.dead = true
	c.flow.cond.Broadcast()
	c.flow.mu.Unlock()
	_ = c.conn.Close()
	for _, s := range streams {
		s.done <- err
	}
}

// Do performs one call. Cancelling ctx resets the stream (RST_STREAM
// with CANCEL) and returns ctx.Err().
func (c *ClientConn) Do(ctx context.Context, req *Request) (*Response, error) {
	s := &clientStream{done: make(chan error, 1)}
	c.mu.Lock()
	if c.dead != nil || c.goingAway {
		err := c.dead
		c.mu.Unlock()
		if err == nil {
			err = errRefused
		}
		return nil, err
	}
	s.id = c.nextID
	c.nextID += 2
	c.streams[s.id] = s
	c.mu.Unlock()

	c.flow.mu.Lock()
	c.flow.streamWindow[s.id] = c.flow.initialWindow
	c.flow.mu.Unlock()

	if err := c.writeRequest(ctx, s.id, req); err != nil {
		c.forget(s.id)
		c.flow.forget(s.id)
		return nil, err
	}

	select {
	case err := <-s.done:
		c.flow.forget(s.id)
		if err != nil {
			return nil, err
		}
		s.resp.Body = s.body
		return &s.resp, nil
	case <-ctx.Done():
		if c.forget(s.id) {
			c.wmu.Lock()
			buf := appendRSTStream(c.wbuf[:0], s.id, errCodeCancel)
			_, _ = c.conn.Write(buf)
			c.wbuf = buf
			c.wmu.Unlock()
		}
		c.flow.forget(s.id)
		return nil, ctx.Err()
	}
}

// forget removes the stream from the registry, reporting whether it was
// still registered (false means the read loop already completed it).
func (c *ClientConn) forget(id uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.streams[id]; !ok {
		return false
	}
	delete(c.streams, id)
	return true
}

func (f *flowState) forget(id uint32) {
	f.mu.Lock()
	delete(f.streamWindow, id)
	f.mu.Unlock()
}

// take blocks until n octets of both connection and stream send window
// are available, then consumes them. It fails when the conn dies, the
// stream is forgotten (reset), or ctx ends. n must fit the windows'
// maximums; callers chunk by maxFrame first.
func (f *flowState) take(ctx context.Context, id uint32, n int64) error {
	stop := context.AfterFunc(ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.dead {
			return ErrConnClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		w, ok := f.streamWindow[id]
		if !ok {
			return ErrConnClosed
		}
		if f.connWindow >= n && w >= n {
			f.connWindow -= n
			f.streamWindow[id] -= n
			return nil
		}
		f.cond.Wait()
	}
}

// writeRequest encodes and sends HEADERS (+DATA) for one call. The
// whole request leaves in one conn.Write when flow control permits,
// which for the binding's small bodies is always.
func (c *ClientConn) writeRequest(ctx context.Context, id uint32, req *Request) error {
	// Header block: pseudo-headers first, stateless HPACK.
	var block []byte
	switch req.Method {
	case "GET":
		block = appendIndexed(block, 2)
	case "POST":
		block = appendIndexed(block, 3)
	default:
		block = appendLiteral(block, 2, "", req.Method)
	}
	if req.Scheme == "" || req.Scheme == "http" {
		block = appendIndexed(block, 6)
	} else {
		block = appendLiteral(block, 6, "", req.Scheme)
	}
	block = appendLiteral(block, 4, "", req.Path)
	block = appendLiteral(block, 1, "", req.Authority)
	for _, f := range req.Header {
		block = appendLiteral(block, 0, f[0], f[1])
	}

	c.flow.mu.Lock()
	maxFrame := int(c.flow.maxFrame)
	c.flow.mu.Unlock()
	if len(block) > maxFrame {
		return fmt.Errorf("h2x: header block of %d octets exceeds the peer's frame limit", len(block))
	}

	endStream := uint8(0)
	if len(req.Body) == 0 {
		endStream = flagEndStream
	}

	// Fast path: body fits one frame and the windows have room.
	if len(req.Body) <= maxFrame {
		if len(req.Body) > 0 {
			if err := c.flow.take(ctx, id, int64(len(req.Body))); err != nil {
				return err
			}
		}
		c.wmu.Lock()
		buf := appendFrameHeader(c.wbuf[:0], len(block), frameHeaders, flagEndHeaders|endStream, id)
		buf = append(buf, block...)
		if len(req.Body) > 0 {
			buf = appendFrameHeader(buf, len(req.Body), frameData, flagEndStream, id)
			buf = append(buf, req.Body...)
		}
		_, err := c.conn.Write(buf)
		c.wbuf = buf
		c.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrConnClosed, err)
		}
		return nil
	}

	// Large body: HEADERS first, then window-gated DATA chunks.
	c.wmu.Lock()
	buf := appendFrameHeader(c.wbuf[:0], len(block), frameHeaders, flagEndHeaders, id)
	buf = append(buf, block...)
	_, err := c.conn.Write(buf)
	c.wbuf = buf
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	body := req.Body
	for len(body) > 0 {
		c.flow.mu.Lock()
		maxFrame = int(c.flow.maxFrame)
		c.flow.mu.Unlock()
		n := min(len(body), maxFrame)
		if err := c.flow.take(ctx, id, int64(n)); err != nil {
			// HEADERS already left; reset the half-sent stream so the
			// peer can release it.
			if !errors.Is(err, ErrConnClosed) {
				c.wmu.Lock()
				buf := appendRSTStream(c.wbuf[:0], id, errCodeCancel)
				_, _ = c.conn.Write(buf)
				c.wbuf = buf
				c.wmu.Unlock()
			}
			return err
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
			return fmt.Errorf("%w: %v", ErrConnClosed, err)
		}
		body = body[n:]
	}
	return nil
}

// creditReceive returns receive-window credit to the peer: the stream's
// immediately (so multi-frame bodies keep flowing), the connection's in
// batches.
func (c *ClientConn) creditReceive(streamID uint32, n uint32, streamOpen bool) {
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

// lookup finds a registered stream.
func (c *ClientConn) lookup(id uint32) *clientStream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[id]
}

// complete finishes a stream: removes it and delivers err (nil = done).
func (c *ClientConn) complete(id uint32, err error) {
	c.mu.Lock()
	s := c.streams[id]
	delete(c.streams, id)
	c.mu.Unlock()
	if s != nil {
		s.done <- err
	}
}

// readLoop parses reply frames until the connection dies.
func (c *ClientConn) readLoop() {
	var hbuf [9]byte
	payload := make([]byte, 0, 1<<16)
	for {
		hdr, err := readFrameHeader(c.br, &hbuf)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		if hdr.length > maxFrameSize {
			c.fail(errFrameTooLarge)
			return
		}
		if cap(payload) < int(hdr.length) {
			payload = make([]byte, hdr.length)
		}
		payload = payload[:hdr.length]
		if _, err := readFull(c.br, payload); err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}

		switch hdr.typ {
		case frameHeaders:
			if err := c.handleHeaders(hdr, payload); err != nil {
				c.fail(err)
				return
			}
		case frameData:
			body := payload
			if hdr.flags&flagPadded != 0 {
				b, err := stripPadding(payload)
				if err != nil {
					c.fail(&connError{errCodeProtocol, err.Error()})
					return
				}
				body = b
			}
			s := c.lookup(hdr.streamID)
			if s != nil {
				s.body = append(s.body, body...)
			}
			// Flow control counts the whole payload, padding included.
			c.creditReceive(hdr.streamID, hdr.length, s != nil && hdr.flags&flagEndStream == 0)
			if s != nil && hdr.flags&flagEndStream != 0 {
				c.complete(hdr.streamID, nil)
			}
		case frameRSTStream:
			if len(payload) == 4 {
				code := binary.BigEndian.Uint32(payload)
				err := fmt.Errorf("h2x: stream reset by peer (code %d)", code)
				if code == errCodeRefusedStream {
					err = errRefused
				}
				c.complete(hdr.streamID, err)
			}
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
			if len(payload) < 8 {
				c.fail(&connError{errCodeProtocol, "short GOAWAY"})
				return
			}
			// Replies to streams up to the last accepted one still
			// arrive; the server closes the connection after them.
			c.goAway(binary.BigEndian.Uint32(payload) & 0x7fffffff)
		case framePriority, framePushPromise, frameContinuation:
			// PRIORITY is ignored (RFC 9113 deprecates it); push is
			// disabled via SETTINGS; CONTINUATION outside handleHeaders
			// means an interleaved header block, which is a protocol
			// error.
			if hdr.typ == frameContinuation {
				c.fail(&connError{errCodeProtocol, "unexpected CONTINUATION"})
				return
			}
		}
	}
}

// handleHeaders decodes a HEADERS frame (reading CONTINUATIONs as
// needed) and applies it to the stream.
func (c *ClientConn) handleHeaders(hdr frameHeader, payload []byte) error {
	fragment := payload
	if hdr.flags&flagPadded != 0 {
		b, err := stripPadding(payload)
		if err != nil {
			return &connError{errCodeProtocol, err.Error()}
		}
		fragment = b
	}
	if hdr.flags&flagPriority != 0 {
		if len(fragment) < 5 {
			return &connError{errCodeProtocol, "HEADERS priority block too short"}
		}
		fragment = fragment[5:]
	}
	block := append([]byte(nil), fragment...)
	endHeaders := hdr.flags&flagEndHeaders != 0
	var hbuf [9]byte
	for !endHeaders {
		ch, err := readFrameHeader(c.br, &hbuf)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrConnClosed, err)
		}
		if ch.typ != frameContinuation || ch.streamID != hdr.streamID || ch.length > maxFrameSize {
			return &connError{errCodeProtocol, "bad CONTINUATION"}
		}
		cont := make([]byte, ch.length)
		if _, err := readFull(c.br, cont); err != nil {
			return fmt.Errorf("%w: %v", ErrConnClosed, err)
		}
		block = append(block, cont...)
		endHeaders = ch.flags&flagEndHeaders != 0
	}

	fields, err := c.hdec.decode(block)
	if err != nil {
		return &connError{errCodeProtocol, err.Error()}
	}
	s := c.lookup(hdr.streamID)
	if s == nil {
		return nil // cancelled stream; ignore
	}
	for _, f := range fields {
		if f[0] == ":status" {
			s.resp.Status, _ = strconv.Atoi(f[1])
		} else if len(f[0]) > 0 && f[0][0] != ':' {
			s.resp.Header = append(s.resp.Header, f)
		}
	}
	if hdr.flags&flagEndStream != 0 {
		c.complete(hdr.streamID, nil)
	}
	return nil
}

// applySettings applies a peer SETTINGS frame to the send direction.
func (c *ClientConn) applySettings(payload []byte) {
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

// credit adds send-window credit (streamID 0 = connection) and wakes
// blocked writers.
func (f *flowState) credit(streamID uint32, delta int64) {
	f.mu.Lock()
	if streamID == 0 {
		f.connWindow += delta
	} else if _, ok := f.streamWindow[streamID]; ok {
		f.streamWindow[streamID] += delta
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// readFull is io.ReadFull without the interface indirection cost on the
// hot loop.
func readFull(br *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
