// Request-scoped identity: every request through the serving tier gets
// one ID, adopted from the caller when it already has one (X-Request-Id,
// or the trace-id field of a W3C traceparent header) and generated
// otherwise, echoed back in the X-Request-Id response header, stamped on
// the access-log record, and used to name the request's trace spans. The
// ID is how an operator joins a client-side error to exactly one server
// log line.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"sync/atomic"
)

// RequestIDHeader is the canonical request-ID header, honoured inbound
// and always set outbound.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen caps adopted IDs so a hostile client cannot make the
// server log arbitrarily large lines.
const maxRequestIDLen = 128

// idCounter makes generated IDs unique within the process; the random
// prefix makes them unique across processes.
var idCounter atomic.Uint64

// idPrefix is the per-process random component of generated IDs.
var idPrefix = func() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a fixed prefix; uniqueness then rests on the
		// counter alone (still unique within the process).
		return "geosrv00"
	}
	return hex.EncodeToString(b[:])
}()

// RequestID extracts or mints the ID for an incoming request:
// X-Request-Id wins, then the trace-id of a valid traceparent header,
// then a generated "<random-prefix>-<seq>" ID, built in one allocation.
// The returned bool reports whether the ID was adopted from the client.
func RequestID(r *http.Request) (string, bool) {
	if id := sanitizeID(r.Header.Get(RequestIDHeader)); id != "" {
		return id, true
	}
	// The canonical spelling: Get canonicalizes any other into a new string.
	if tid := traceparentID(r.Header.Get("Traceparent")); tid != "" {
		return tid, true
	}
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], idCounter.Add(1))
	var buf [64]byte
	b := append(buf[:0], idPrefix...)
	b = append(b, '-')
	return string(hex.AppendEncode(b, seq[:])), false
}

// EchoRequestID settles r's ID (RequestID) and stores it as out's
// X-Request-Id. It returns the one-value slice it stored, so a caller that
// forwards the ID can store the same slice: the inbound header's own when
// that holds exactly the adopted ID — echoing a caller's ID allocates
// nothing — and a new one otherwise.
func EchoRequestID(out http.Header, r *http.Request) (ids []string, adopted bool) {
	id, adopted := RequestID(r)
	if in := r.Header[RequestIDHeader]; len(in) == 1 && in[0] == id {
		ids = in
	} else {
		ids = []string{id}
	}
	out[RequestIDHeader] = ids
	return ids, adopted
}

// sanitizeID keeps an adopted ID only when it is printable ASCII
// without spaces and within the length cap — anything else is treated
// as absent rather than propagated into logs and headers.
func sanitizeID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}

// traceparentID extracts the trace-id field from a W3C traceparent
// header (version-traceid-parentid-flags) when it is well-formed; ""
// otherwise.
func traceparentID(tp string) string {
	// 2 (version) + 1 + 32 (trace-id) + 1 + 16 (parent) + 1 + 2 (flags)
	if len(tp) < 55 || tp[2] != '-' || tp[35] != '-' || tp[52] != '-' {
		return ""
	}
	tid := tp[3:35]
	allZero := true
	for i := 0; i < len(tid); i++ {
		c := tid[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
		if c != '0' {
			allZero = false
		}
	}
	if allZero {
		return ""
	}
	return tid
}
