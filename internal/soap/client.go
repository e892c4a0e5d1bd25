package soap

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"livedev/internal/dyn"
)

// Client posts SOAP requests to one endpoint URL — the transport half of a
// SOAP client stub (paper Figure 1, steps 2 and 3).
type Client struct {
	// Endpoint is the SOAP endpoint URL.
	Endpoint string
	// ServiceNS is the XML namespace RPC calls are made in.
	ServiceNS string
	// HTTPClient is used for transport; a default client with a timeout
	// is used when nil.
	HTTPClient *http.Client
}

// defaultTransport is shared by every Client without an explicit
// HTTPClient: a clone of http.DefaultTransport (keeping its proxy
// environment support and dial/TLS timeouts) with a deep idle pool, so
// repeated RPCs to the same endpoint reuse TCP connections instead of
// re-dialling — the transport half of the invocation hot path.
var defaultTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	return t
}()

var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// bodyPool holds reusable buffers for HTTP bodies (responses here, requests
// on the server side): reading a body per call was the largest remaining
// per-call allocation after the envelope work moved to pooled buffers.
var bodyPool = sync.Pool{
	New: func() any { return bytes.NewBuffer(make([]byte, 0, 4<<10)) },
}

// GetBodyBuffer returns a pooled buffer for reading an HTTP body into.
func GetBodyBuffer() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBodyBuffer recycles a buffer obtained from GetBodyBuffer. The caller
// must be done with every sub-slice of its contents: decoded dyn values are
// copies and safe, parsed xmltree nodes are not.
func PutBodyBuffer(b *bytes.Buffer) {
	// Oversized one-off bodies would pin their memory in the pool forever.
	if b.Cap() > 1<<20 {
		return
	}
	bodyPool.Put(b)
}

// CallContext performs one RPC: it builds the request envelope, POSTs it,
// parses the response, and decodes the result against resultType. SOAP
// faults are returned as *Fault errors. Cancelling ctx aborts the in-flight
// HTTP round-trip and returns an error wrapping ctx.Err().
func (c *Client) CallContext(ctx context.Context, method string, params []NamedValue, resultType *dyn.Type) (dyn.Value, error) {
	reqXML, err := BuildRequest(c.ServiceNS, method, params)
	if err != nil {
		return dyn.Value{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, strings.NewReader(reqXML))
	if err != nil {
		return dyn.Value{}, fmt.Errorf("soap: building HTTP request: %w", err)
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	req.Header.Set("SOAPAction", fmt.Sprintf("%q", c.ServiceNS+"#"+method))

	resp, err := c.httpClient().Do(req)
	if err != nil {
		return dyn.Value{}, fmt.Errorf("soap: posting to %s: %w", c.Endpoint, err)
	}
	defer func() { _ = resp.Body.Close() }()
	buf := GetBodyBuffer()
	defer PutBodyBuffer(buf)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 16<<20)); err != nil {
		return dyn.Value{}, fmt.Errorf("soap: reading response: %w", err)
	}
	// SOAP 1.1 faults come back with HTTP 500; parse the envelope either way.
	// Everything extracted below (the decoded result value, fault strings)
	// is copied out of the pooled buffer before it is recycled.
	parsed, err := ParseResponse(buf.Bytes())
	if err != nil {
		if resp.StatusCode != http.StatusOK {
			return dyn.Value{}, fmt.Errorf("soap: HTTP %d from %s", resp.StatusCode, c.Endpoint)
		}
		return dyn.Value{}, err
	}
	if parsed.Fault != nil {
		return dyn.Value{}, parsed.Fault
	}
	if resultType == nil || resultType.Kind() == dyn.KindVoid {
		return dyn.VoidValue(), nil
	}
	if parsed.Return == nil {
		return dyn.Value{}, fmt.Errorf("soap: response for %s carries no return element", method)
	}
	return DecodeValue(parsed.Return, resultType)
}
