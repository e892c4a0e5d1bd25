// Package h2b is the multiplexed binary binding for the SDE/CDE: dynamic
// classes called with CDR-encoded bodies over cleartext HTTP/2. It is the
// performance-motivated fourth binding — where jsonb proves the binding
// seam is real, h2b proves it is fast: calls reuse the CORBA binding's
// pooled CDR encoders and zero-copy decoder reads (no per-call JSON/XML
// boxing), and the transport is one long-lived TCP connection per
// endpoint with concurrent calls riding concurrent HTTP/2 streams, so a
// parallel caller never queues behind a connection the way HTTP/1.1
// keep-alive forces.
//
// Wire protocol: over prior-knowledge cleartext HTTP/2, POST the
// CDR-encoded arguments (in signature order, jointly forming one CDR
// stream) to the endpoint with content-type "application/x-livedev-cdr",
// the method name in x-h2b-method, and the byte order in x-h2b-order
// ("big" or "little"). A 200 reply carries the CDR-encoded result with its
// own x-h2b-order; an error reply carries the code in x-h2b-error and a
// plain-text message, using the same codes and statuses as the JSON
// binding. There is no binding-level framing beyond this: HTTP/2's own
// stream framing delimits calls, flow-controls bodies, and maps
// cancellation onto RST_STREAM (the server observes it as the request
// context ending). Both halves speak it through the internal/h2x engine;
// the server half is reached on the manager's shared endpoint listener.
//
// The error code "non-existent-method" carries the Section 5.7 guarantee:
// by the time the client sees it, the published interface document is
// current.
//
// The interface document is the JSON binding's machine-readable document
// grammar with this binding's format tag, so `cde.Dial` sniffing
// distinguishes the two by content type, path suffix, and format string
// without either binding scoring on the other's documents.
package h2b

import (
	"encoding/json"
	"fmt"

	"livedev/internal/cdr"
	"livedev/internal/dyn"
	"livedev/internal/jsonb"
)

// Name is the binding's registered technology name.
const Name = "H2B"

// DocFormat identifies the interface-document format (and its version).
const DocFormat = "livedev-h2b-binding/v1"

// DocContentType is the MIME type interface documents are served with.
// The +json suffix keeps them readable by generic tooling while the
// vendor tree keeps Dial sniffing unambiguous against the JSON binding.
const DocContentType = "application/vnd.livedev.h2b+json"

// CallContentType is the MIME type of request and reply bodies.
const CallContentType = "application/x-livedev-cdr"

// Wire headers, in the lowercase form HTTP/2 field names take.
const (
	// MethodHeader names the invoked method on a call request.
	MethodHeader = "x-h2b-method"
	// OrderHeader declares the CDR byte order of the attached body.
	OrderHeader = "x-h2b-order"
	// ErrorHeader carries the error code on a failed call's reply.
	ErrorHeader = "x-h2b-error"
)

// OrderHeader values.
const (
	OrderBig    = "big"
	OrderLittle = "little"
)

// Wire-protocol error codes — the same vocabulary as the JSON binding.
const (
	// CodeNonExistentMethod is the binding's "Non Existent Method": the
	// Section 5.7 protocol guarantees the published interface document is
	// current by the time a client reads it.
	CodeNonExistentMethod = "non-existent-method"
	// CodeNotInitialized reports a call before the instance exists.
	CodeNotInitialized = "not-initialized"
	// CodeMalformed reports an unparseable request.
	CodeMalformed = "malformed-request"
	// CodeApplication wraps an error returned by the method body.
	CodeApplication = "application-error"
)

// parseOrder reads an OrderHeader value; the empty string means big-endian
// (CDR's flag-octet default).
func parseOrder(v string) (cdr.ByteOrder, error) {
	switch v {
	case OrderBig, "":
		return cdr.BigEndian, nil
	case OrderLittle:
		return cdr.LittleEndian, nil
	default:
		return cdr.BigEndian, fmt.Errorf("h2b: unknown byte order %q", v)
	}
}

// GenerateDoc renders the interface document for desc served at endpoint.
// The document is the JSON binding's grammar under this binding's format
// tag — the struct table, method list, and endpoint field are identical,
// so the two bindings share one stub compiler.
func GenerateDoc(desc dyn.InterfaceDescriptor, endpoint string) (string, error) {
	text, err := jsonb.GenerateDoc(desc, endpoint)
	if err != nil {
		return "", err
	}
	return retag(text, jsonb.DocFormat, DocFormat)
}

// ParseDoc compiles an interface document into a descriptor and the
// advertised call endpoint — the binding's stub compiler.
func ParseDoc(text string) (dyn.InterfaceDescriptor, string, error) {
	retagged, err := retag(text, DocFormat, jsonb.DocFormat)
	if err != nil {
		return dyn.InterfaceDescriptor{}, "", err
	}
	return jsonb.ParseDoc(retagged)
}

// retag swaps the document's format tag, preserving everything else.
func retag(text, from, to string) (string, error) {
	var d jsonb.Doc
	if err := json.Unmarshal([]byte(text), &d); err != nil {
		return "", fmt.Errorf("h2b: parsing interface document: %w", err)
	}
	if d.Format != from {
		return "", fmt.Errorf("h2b: unexpected document format %q", d.Format)
	}
	d.Format = to
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("h2b: encoding interface document: %w", err)
	}
	return string(out), nil
}
