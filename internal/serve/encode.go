// Allocation-free response encoding for the serving hot path
// (DESIGN.md §3.10). The steady-state /lookup and /batch paths must not
// touch the heap per request: encoding/json's Encoder allocates for the
// encoder state, reflection scratch, and every string header, so the
// data plane renders its one response shape — LookupResult — by hand
// into a pooled buffer instead. The rendering is byte-for-byte
// compatible with what json.Encoder produced (same field order, same
// omitempty behaviour, same float format, same HTML-escaping rules),
// so clients and the geobench ledger cannot tell the difference.
//
// writeJSON and the encoding/json path remain for every cold endpoint
// (health, version, reload, admission errors) where clarity beats
// nanoseconds.
package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
)

// respBuf is a pooled response-rendering buffer. 512 bytes covers every
// single-lookup response; batch responses grow the slice once and the
// grown capacity is kept by the pool.
type respBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 512)} }}

func getBuf() *respBuf  { return bufPool.Get().(*respBuf) }
func putBuf(r *respBuf) { bufPool.Put(r) }

// QueryIP extracts the first "ip" parameter from a raw query string
// without materializing a url.Values map (two map allocations plus one
// string per pair on the url.Query path). Unescaping — and its
// allocation — happens only when the value actually contains '%' or
// '+', which well-formed dotted quads never do. The router validates
// /lookup with this same function, so a query it would read differently
// from the replica behind it cannot exist.
func QueryIP(rawQuery string) string {
	for rawQuery != "" {
		var seg string
		seg, rawQuery, _ = strings.Cut(rawQuery, "&")
		val, ok := strings.CutPrefix(seg, "ip=")
		if !ok {
			continue
		}
		if strings.IndexByte(val, '%') >= 0 || strings.IndexByte(val, '+') >= 0 {
			if dec, err := url.QueryUnescape(val); err == nil {
				return dec
			}
		}
		return val
	}
	return ""
}

// ctJSON is the shared Content-Type value; storing the same slice into
// every response header avoids the []string{...} allocation that
// Header().Set performs. Handlers never mutate it.
var ctJSON = []string{"application/json"}

// writeBytes writes a pre-rendered JSON body. The map-index store into
// the header (instead of Header().Set) reuses the shared value slice.
func (s *Server) writeBytes(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = ctJSON
	}
	SetBodyLength(h, len(body))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.writeErrs.Inc()
	}
}

// bufferBeforeChunking is net/http's response buffer: a handler that
// writes more than this many bytes without a Content-Length gets a chunked
// answer, one the client reads in more syscalls.
const bufferBeforeChunking = 2048

// SetBodyLength sets Content-Length to n for a whole body net/http would
// otherwise chunk. A shorter body is left alone: net/http measures it when
// the handler returns, and setting it here would allocate on every
// /lookup.
func SetBodyLength(h http.Header, n int) {
	if n > bufferBeforeChunking {
		h["Content-Length"] = []string{strconv.Itoa(n)}
	}
}

// appendLookupResult renders one LookupResult for a successfully parsed
// address, replicating the struct's JSON shape: field order ip, prefix,
// lat, lon, radius_km, method, sanitized, error with the same omitempty
// semantics encoding/json applied.
func appendLookupResult(dst []byte, a ipaddr.Addr, rec dataset.Record, kind resolveKind) []byte {
	dst = a.AppendText(append(dst, `{"ip":"`...))
	if kind != resolveOK {
		return appendFailure(dst, kind)
	}
	return appendRecord(rec.Prefix.AppendText(append(dst, `","prefix":"`...)), rec)
}

// appendItemResult is appendLookupResult for a /batch item whose text ip
// parsed. Parse accepts only the canonical text AppendText writes, and a
// found record is the address's own /24, so both strings are copied from
// ip: the address whole, the prefix as its first three octets and "0/24".
func appendItemResult(dst, ip []byte, rec dataset.Record, kind resolveKind) []byte {
	dst = append(append(dst, `{"ip":"`...), ip...)
	if kind != resolveOK {
		return appendFailure(dst, kind)
	}
	dst = append(dst, `","prefix":"`...)
	dst = append(dst, ip[:bytes.LastIndexByte(ip, '.')+1]...)
	return appendRecord(append(dst, "0/24"...), rec)
}

// appendFailure ends a result, its address written, with kind's error.
func appendFailure(dst []byte, kind resolveKind) []byte {
	dst = append(dst, `","error":`...)
	dst = appendJSONString(dst, kind.message())
	return append(dst, '}')
}

// appendRecord ends a result, its prefix written, with rec's fields.
func appendRecord(dst []byte, rec dataset.Record) []byte {
	dst = append(dst, '"')
	if rec.Centroid.Lat != 0 {
		dst = append(dst, `,"lat":`...)
		dst = appendJSONFloat(dst, rec.Centroid.Lat)
	}
	if rec.Centroid.Lon != 0 {
		dst = append(dst, `,"lon":`...)
		dst = appendJSONFloat(dst, rec.Centroid.Lon)
	}
	if rec.RadiusKm != 0 {
		dst = append(dst, `,"radius_km":`...)
		dst = appendJSONFloat(dst, rec.RadiusKm)
	}
	dst = append(dst, methodFields[rec.Method]...)
	if rec.Sanitized {
		dst = append(dst, `,"sanitized":true`...)
	}
	return append(dst, '}')
}

// methodFields[m] is the rendered `,"method":"…"` member for Method m. It
// covers every value the type can hold, so an unnamed one renders as its
// String ("method-N") would, through the same escaper.
var methodFields = func() (t [math.MaxUint8 + 1]string) {
	for m := range t {
		t[m] = string(appendJSONString([]byte(`,"method":`), dataset.Method(m).String()))
	}
	return
}()

// appendErrorResult renders the per-item failure shape for an input that
// never parsed into an address ({"ip": <raw>, "error": <msg>}); both
// texts carry client input, so both are escaped.
func appendErrorResult[R, M ~string | ~[]byte](dst []byte, rawIP R, msg M) []byte {
	dst = append(dst, `{"ip":`...)
	dst = appendJSONString(dst, rawIP)
	dst = append(dst, `,"error":`...)
	dst = appendJSONString(dst, msg)
	return append(dst, '}')
}

// appendJSONFloat appends a float the way encoding/json does: the
// shortest representation that reads back as f, %f for 0 and for
// magnitudes in [1e-6, 1e21), %e outside with the exponent's leading zero
// stripped ("e-09" → "e-9"). The %f window goes through appendShortestF;
// strconv renders only the %e window and the non-finite values.
func appendJSONFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs < 1e21 && (abs >= 1e-6 || abs == 0) {
		if math.Signbit(f) {
			dst = append(dst, '-')
		}
		if abs == 0 {
			return append(dst, '0')
		}
		return appendShortestF(dst, abs)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// jsonSafe marks the ASCII bytes encoding/json passes through verbatim
// under its default HTML-escaping: printable, minus the JSON
// metacharacters and the HTML-sensitive trio.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends a quoted JSON string, escaping exactly the
// set encoding/json escapes by default: quote, backslash, control
// characters (with the \b \f \n \r \t short forms), the HTML trio < > &, the
// line separators U+2028/U+2029, and invalid UTF-8 as U+FFFD.
func appendJSONString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// A rune is at most UTFMax bytes, so over bytes the conversion
		// stays on the stack.
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\u202`...)
			dst = append(dst, hexDigits[c&0xF])
			i += size
			start = i
		default:
			i += size
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
