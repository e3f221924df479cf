// The /batch request side (DESIGN.md §3.10): the body is read into a
// pooled buffer and split into its addresses without copying any of them
// out. A strict scanner accepts the one shape every producer in the repo
// emits — {"ips":["…",…]} — and parses each item as a dotted quad in the
// same pass; every body it does not accept is decoded by encoding/json from
// the same bytes, so the scanner decides only how fast a body is read,
// never what it means.
package serve

import (
	"bytes"
	"encoding/json"

	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
)

// maxPooledBody is the largest body buffer a scratch keeps between
// requests: a full default batch is 18 KB, and a few 4 MiB bodies must not
// pin that much in every pooled scratch.
const maxPooledBody = 64 << 10

// span locates one item's text in batchScratch.body and holds what the
// text parsed to: quad says it is a whole dotted quad, and addr is then
// its address.
type span struct {
	lo, hi int32
	addr   ipaddr.Addr
	quad   bool
}

// itemState says how a batch item gets its result.
type itemState uint8

const (
	itemQueried  itemState = iota // answered by the batch's one FindBatch
	itemBadAddr                   // never parsed: rendered from its text
	itemInjected                  // failed by the fault profile
)

// batchScratch is everything one /batch request needs besides the response
// buffer. A request owns its scratch from Get to Put; the slices grow to
// the largest batch seen, which MaxBatch bounds.
type batchScratch struct {
	body    bytes.Buffer     // the request body; after a fallback decode, the decoded strings too
	spans   []span           // item i's text is body.Bytes()[spans[i].lo:spans[i].hi]
	states  []itemState      // item i's state
	query   []ipaddr.Addr    // the itemQueried addresses, in item order
	answers []dataset.Answer // FindBatch's answers to query
	msg     []byte           // the error text of the itemBadAddr item being written
}

func (s *Server) getScratch() *batchScratch {
	if sc, ok := s.batchPool.Get().(*batchScratch); ok {
		sc.body.Reset()
		return sc
	}
	return new(batchScratch)
}

func (s *Server) putScratch(sc *batchScratch) {
	if sc.body.Cap() > maxPooledBody {
		sc.body = bytes.Buffer{}
	}
	s.batchPool.Put(sc)
}

// sized returns s with length n, allocating only when the pooled capacity
// is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// items splits the body into its items' spans and returns how many there
// are: by scanBatchBody where it accepts, by encoding/json otherwise, with
// the decoded strings appended to body and parsed there, so that either
// way leaves parsed spans into one buffer. Spans are recorded only for a
// batch of at most max items; a longer one is refused by its count alone.
func (sc *batchScratch) items(max int) (int, error) {
	var ok bool
	if sc.spans, ok = scanBatchBody(sc.body.Bytes(), sc.spans[:0], max); ok {
		return len(sc.spans), nil
	}
	var in batchRequest
	if err := json.NewDecoder(bytes.NewReader(sc.body.Bytes())).Decode(&in); err != nil {
		return 0, err
	}
	sc.spans = sc.spans[:0]
	if len(in.IPs) <= max {
		for _, ip := range in.IPs {
			lo := sc.body.Len()
			sc.body.WriteString(ip)
			a, n, ok := ipaddr.Scan(sc.body.Bytes()[lo:])
			sc.spans = append(sc.spans, span{int32(lo), int32(sc.body.Len()), a, ok && n == len(ip)})
		}
	}
	return len(in.IPs), nil
}

// scanBatchBody appends one span per address of a body of exactly the shape
//
//	ws { ws "ips" ws : ws [ ws ( string ( ws , ws string )* ws )? ] ws } ws
//
// where ws is JSON whitespace and a string holds only printable ASCII with
// no backslash, so its bytes are its value. Each string is parsed as a
// dotted quad as it is read: ipaddr.Scan stops at the first byte that
// breaks the grammar, so the item is an address exactly when that byte is
// the closing quote and what came before it is whole. It reports false — and the
// spans mean nothing — for anything else, more than max items included:
// another or a second key, a key in another case, an escape, a non-ASCII or
// control byte, a value that is not a string, bytes after the closing
// brace. All of those are encoding/json's to judge.
func scanBatchBody(body []byte, spans []span, max int) ([]span, bool) {
	i, ok := skipToken(body, 0, '{')
	if !ok || !bytes.HasPrefix(body[i:], ipsKey) {
		return spans, false
	}
	if i, ok = skipToken(body, i+len(ipsKey), ':'); !ok {
		return spans, false
	}
	if i, ok = skipToken(body, i, '['); !ok {
		return spans, false
	}
	if i < len(body) && body[i] == ']' {
		i++
	} else {
		for more := true; more; {
			if i >= len(body) || body[i] != '"' || len(spans) == max {
				return spans, false
			}
			i++
			lo := i
			a, n, quad := ipaddr.Scan(body[i:])
			for i += n; i < len(body) && body[i] >= 0x20 && body[i] < 0x7F && body[i] != '"' && body[i] != '\\'; i++ {
				quad = false
			}
			if i >= len(body) || body[i] != '"' {
				return spans, false
			}
			spans = append(spans, span{int32(lo), int32(i), a, quad})
			if i = skipSpace(body, i+1); i >= len(body) {
				return spans, false
			}
			switch body[i] {
			case ',':
				i = skipSpace(body, i+1)
			case ']':
				i, more = i+1, false
			default:
				return spans, false
			}
		}
	}
	i, ok = skipToken(body, i, '}')
	return spans, ok && i == len(body)
}

var ipsKey = []byte(`"ips"`)

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipToken skips whitespace, the byte c, and whitespace again, reporting
// whether c was there.
func skipToken(b []byte, i int, c byte) (int, bool) {
	if i = skipSpace(b, i); i >= len(b) || b[i] != c {
		return i, false
	}
	return skipSpace(b, i+1), true
}
