// Package h2x is a purpose-built cleartext HTTP/2 engine for the h2b
// binding's multiplexed calls. The standard library's HTTP/2
// stack is a general server: every call crosses a frame-scheduling
// goroutine on the server and a write-coalescing mutex plus read-loop
// handoff on the client, which on the echo workload costs several times
// a GIOP round trip. This engine speaks genuine HTTP/2 on the wire —
// conformance-tested against the net/http h2c stack in both directions —
// but specializes for the call pattern the binding needs: small
// request/reply bodies, headers encoded without a dynamic HPACK table,
// responses written directly from the handler goroutine, and one
// long-lived TCP connection multiplexing concurrent calls as streams. A
// Server shares its listener with net/http (Start) and drains with
// GOAWAY (Shutdown).
//
// What is deliberately not implemented: server push (disabled via
// SETTINGS), priorities (frames are ignored, as RFC 9113 deprecates
// them), trailers, and padding emission (received padding is handled).
// HPACK encoding never uses the dynamic table or Huffman coding — both
// are optional for encoders — and both connection halves advertise
// SETTINGS_HEADER_TABLE_SIZE = 0, which moves the peer's encoder into
// the same stateless subset once it has read that setting; the decoder
// still handles Huffman-coded strings, table-size updates and the
// dynamic entries a peer may add before then.
package h2x

import (
	"errors"
	"fmt"
)

// hpack static table, RFC 7541 Appendix A. Index 0 is unused (HPACK
// indices are 1-based).
var staticTable = [62][2]string{
	{},
	{":authority", ""},
	{":method", "GET"},
	{":method", "POST"},
	{":path", "/"},
	{":path", "/index.html"},
	{":scheme", "http"},
	{":scheme", "https"},
	{":status", "200"},
	{":status", "204"},
	{":status", "206"},
	{":status", "304"},
	{":status", "400"},
	{":status", "404"},
	{":status", "500"},
	{"accept-charset", ""},
	{"accept-encoding", "gzip, deflate"},
	{"accept-language", ""},
	{"accept-ranges", ""},
	{"accept", ""},
	{"access-control-allow-origin", ""},
	{"age", ""},
	{"allow", ""},
	{"authorization", ""},
	{"cache-control", ""},
	{"content-disposition", ""},
	{"content-encoding", ""},
	{"content-language", ""},
	{"content-length", ""},
	{"content-location", ""},
	{"content-range", ""},
	{"content-type", ""},
	{"cookie", ""},
	{"date", ""},
	{"etag", ""},
	{"expect", ""},
	{"expires", ""},
	{"from", ""},
	{"host", ""},
	{"if-match", ""},
	{"if-modified-since", ""},
	{"if-none-match", ""},
	{"if-range", ""},
	{"if-unmodified-since", ""},
	{"last-modified", ""},
	{"link", ""},
	{"location", ""},
	{"max-forwards", ""},
	{"proxy-authenticate", ""},
	{"proxy-authorization", ""},
	{"range", ""},
	{"referer", ""},
	{"refresh", ""},
	{"retry-after", ""},
	{"server", ""},
	{"set-cookie", ""},
	{"strict-transport-security", ""},
	{"transfer-encoding", ""},
	{"user-agent", ""},
	{"vary", ""},
	{"via", ""},
	{"www-authenticate", ""},
}

// appendVarint appends an HPACK integer with the given prefix bits and
// leading flag byte (RFC 7541 §5.1).
func appendVarint(b []byte, flags byte, prefixBits uint8, v uint64) []byte {
	max := uint64(1)<<prefixBits - 1
	if v < max {
		return append(b, flags|byte(v))
	}
	b = append(b, flags|byte(max))
	v -= max
	for v >= 128 {
		b = append(b, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendIndexed appends an indexed header field (static table hit).
func appendIndexed(b []byte, idx uint64) []byte {
	return appendVarint(b, 0x80, 7, idx)
}

// appendLiteral appends a literal header field without indexing, using a
// static-table name index when nameIdx > 0. Strings are written raw —
// Huffman coding is optional for encoders and skipping it keeps the
// encoder allocation-free and the peer's decode cheap.
func appendLiteral(b []byte, nameIdx uint64, name, value string) []byte {
	b = appendVarint(b, 0x00, 4, nameIdx)
	if nameIdx == 0 {
		b = appendVarint(b, 0x00, 7, uint64(len(name)))
		b = append(b, name...)
	}
	b = appendVarint(b, 0x00, 7, uint64(len(value)))
	return append(b, value...)
}

// huffman decoding: a flat binary tree built once from the RFC 7541
// code table. Node i's children are at transitions[i][bit]; leaves carry
// the decoded symbol. 8-bit-at-a-time tables would be faster, but the
// fast path never receives Huffman-coded strings (our own encoders do
// not emit them) — only stdlib peers in the interop paths do.
type huffNode struct {
	children [2]*huffNode
	sym      byte
	leaf     bool
}

var huffRoot = buildHuffTree()

func buildHuffTree() *huffNode {
	root := &huffNode{}
	for sym := 0; sym < 256; sym++ {
		code := huffmanCodes[sym]
		n := root
		for bit := int(huffmanCodeLen[sym]) - 1; bit >= 0; bit-- {
			b := (code >> uint(bit)) & 1
			if n.children[b] == nil {
				n.children[b] = &huffNode{}
			}
			n = n.children[b]
		}
		n.sym = byte(sym)
		n.leaf = true
	}
	return root
}

var errHuffman = errors.New("h2x: invalid huffman-coded string")

// huffmanDecode decodes an HPACK Huffman-coded string.
func huffmanDecode(in []byte) ([]byte, error) {
	out := make([]byte, 0, len(in)*8/5)
	n := huffRoot
	depth := 0      // bits consumed since the last complete symbol
	allOnes := true // whether those bits are all 1 (a valid EOS-prefix pad)
	for _, b := range in {
		for bit := 7; bit >= 0; bit-- {
			v := (b >> uint(bit)) & 1
			n = n.children[v]
			if n == nil {
				return nil, errHuffman
			}
			depth++
			if v == 0 {
				allOnes = false
			}
			if n.leaf {
				out = append(out, n.sym)
				n = huffRoot
				depth = 0
				allOnes = true
			}
		}
	}
	// Trailing bits must be a prefix of the EOS code (all ones), at most
	// 7 bits (RFC 7541 §5.2).
	if depth > 7 || !allOnes {
		return nil, errHuffman
	}
	return out, nil
}

// hpackDecoder decodes the header blocks one peer sends on a
// connection, in arrival order. Both halves of this engine advertise
// SETTINGS_HEADER_TABLE_SIZE = 0, but a peer may encode with the
// protocol's default 4096-octet dynamic table until it has read that
// setting (RFC 9113 §6.5.3): net/http's client does so for the requests
// it sends right behind its preface. The decoder therefore keeps the
// dynamic table of RFC 7541 §2.3.2, bounded by that default.
type hpackDecoder struct {
	buf     []byte
	dynamic [][2]string // oldest first; HPACK index 62 is the newest
	size    uint64      // RFC 7541 §4.1 size of dynamic
	maxSize uint64      // the limit the last table-size update set
}

// hpackDefaultTableSize is SETTINGS_HEADER_TABLE_SIZE's initial value.
const hpackDefaultTableSize = 4096

func newHPACKDecoder() hpackDecoder { return hpackDecoder{maxSize: hpackDefaultTableSize} }

var errHPACK = errors.New("h2x: malformed header block")

func (d *hpackDecoder) readVarint(prefixBits uint8) (uint64, byte, error) {
	if len(d.buf) == 0 {
		return 0, 0, errHPACK
	}
	first := d.buf[0]
	d.buf = d.buf[1:]
	max := uint64(1)<<prefixBits - 1
	v := uint64(first) & max
	if v < max {
		return v, first, nil
	}
	for shift := uint(0); ; shift += 7 {
		if len(d.buf) == 0 || shift > 56 {
			return 0, 0, errHPACK
		}
		b := d.buf[0]
		d.buf = d.buf[1:]
		v += uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, first, nil
		}
	}
}

func (d *hpackDecoder) readString() (string, error) {
	n, first, err := d.readVarint(7)
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)) < n {
		return "", errHPACK
	}
	raw := d.buf[:n]
	d.buf = d.buf[n:]
	if first&0x80 != 0 {
		dec, err := huffmanDecode(raw)
		if err != nil {
			return "", err
		}
		return string(dec), nil
	}
	return string(raw), nil
}

// next returns the next decoded field, or done=true at end of block.
func (d *hpackDecoder) next() (name, value string, done bool, err error) {
	if len(d.buf) == 0 {
		return "", "", true, nil
	}
	b := d.buf[0]
	switch {
	case b&0x80 != 0: // indexed field
		idx, _, err := d.readVarint(7)
		if err != nil {
			return "", "", false, err
		}
		e, err := d.entry(idx)
		if err != nil {
			return "", "", false, err
		}
		return e[0], e[1], false, nil
	case b&0xe0 == 0x20: // dynamic table size update
		size, _, err := d.readVarint(5)
		if err != nil {
			return "", "", false, err
		}
		if size > hpackDefaultTableSize {
			return "", "", false, fmt.Errorf("%w: table size %d exceeds %d", errHPACK, size, hpackDefaultTableSize)
		}
		d.maxSize = size
		d.evict(0)
		return d.next()
	default: // literal: with incremental indexing (0x40), without (0x00), never-indexed (0x10)
		prefix := uint8(4)
		if b&0x40 != 0 {
			prefix = 6
		}
		nameIdx, _, err := d.readVarint(prefix)
		if err != nil {
			return "", "", false, err
		}
		if nameIdx > 0 {
			e, err := d.entry(nameIdx)
			if err != nil {
				return "", "", false, err
			}
			name = e[0]
		} else if name, err = d.readString(); err != nil {
			return "", "", false, err
		}
		if value, err = d.readString(); err != nil {
			return "", "", false, err
		}
		if b&0x40 != 0 {
			d.add(name, value)
		}
		return name, value, false, nil
	}
}

// entry resolves an HPACK index against the static, then the dynamic
// table.
func (d *hpackDecoder) entry(idx uint64) ([2]string, error) {
	if idx > 0 && idx < uint64(len(staticTable)) {
		return staticTable[idx], nil
	}
	if n := uint64(len(staticTable)); idx >= n && idx-n < uint64(len(d.dynamic)) {
		return d.dynamic[uint64(len(d.dynamic))-1-(idx-n)], nil
	}
	return [2]string{}, fmt.Errorf("%w: index %d outside the header tables", errHPACK, idx)
}

// add inserts a field into the dynamic table, evicting the oldest
// entries to make room; a field larger than the table empties it
// (RFC 7541 §4.4).
func (d *hpackDecoder) add(name, value string) {
	n := uint64(len(name) + len(value) + 32)
	if n > d.maxSize {
		d.dynamic, d.size = d.dynamic[:0], 0
		return
	}
	d.evict(n)
	d.dynamic = append(d.dynamic, [2]string{name, value})
	d.size += n
}

// evict drops the oldest entries until room more octets fit.
func (d *hpackDecoder) evict(room uint64) {
	drop := 0
	for d.size+room > d.maxSize && drop < len(d.dynamic) {
		e := d.dynamic[drop]
		d.size -= uint64(len(e[0]) + len(e[1]) + 32)
		drop++
	}
	if drop > 0 {
		d.dynamic = append(d.dynamic[:0], d.dynamic[drop:]...)
	}
}

// decode decodes a complete header block into field pairs.
func (d *hpackDecoder) decode(block []byte) ([][2]string, error) {
	d.buf = block
	var out [][2]string
	for {
		name, value, done, err := d.next()
		if err != nil {
			return nil, err
		}
		if done {
			return out, nil
		}
		out = append(out, [2]string{name, value})
	}
}
