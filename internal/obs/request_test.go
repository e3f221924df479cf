package obs

import (
	"net/http"
	"strings"
	"testing"
)

// FuzzRequestID holds the two adoption paths to what an access log and a
// response header can safely carry. An adopted X-Request-Id is either
// refused ("") or the input unchanged: at most maxRequestIDLen bytes of
// printable ASCII with no space, '"' or '\'. A traceparent yields "" or
// its 32-digit lowercase-hex trace-id field, never all zeros. RequestID
// then adopts the first of the two that is usable, and mints an ID
// otherwise.
func FuzzRequestID(f *testing.F) {
	f.Add("req-42", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("has space", "00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add(`quote"d`, "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add(`back\slash`, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7")
	f.Add(strings.Repeat("x", maxRequestIDLen+1), "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	f.Add("\x7f\x00é", "--------------------------------------------------------")
	f.Fuzz(func(t *testing.T, id, tp string) {
		got := sanitizeID(id)
		if got != "" && got != id {
			t.Fatalf("sanitizeID(%q) = %q: neither refused nor unchanged", id, got)
		}
		if len(got) > maxRequestIDLen {
			t.Fatalf("sanitizeID(%q) kept %d bytes, cap %d", id, len(got), maxRequestIDLen)
		}
		for i := 0; i < len(got); i++ {
			if c := got[i]; c <= ' ' || c > '~' || c == '"' || c == '\\' {
				t.Fatalf("sanitizeID(%q) kept byte %#x", id, c)
			}
		}

		tid := traceparentID(tp)
		if tid != "" {
			if len(tid) != 32 {
				t.Fatalf("traceparentID(%q) = %q: %d digits, want 32", tp, tid, len(tid))
			}
			if strings.Trim(tid, "0") == "" {
				t.Fatalf("traceparentID(%q) adopted the all-zero trace-id", tp)
			}
			for i := 0; i < len(tid); i++ {
				if c := tid[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
					t.Fatalf("traceparentID(%q) = %q: byte %#x is not lowercase hex", tp, tid, c)
				}
			}
		}

		r := &http.Request{Header: http.Header{}}
		r.Header.Set(RequestIDHeader, id)
		r.Header.Set("traceparent", tp)
		rid, adopted := RequestID(r)
		switch {
		case got != "":
			if rid != got || !adopted {
				t.Fatalf("RequestID = %q, %v; want the header's %q, adopted", rid, adopted, got)
			}
		case tid != "":
			if rid != tid || !adopted {
				t.Fatalf("RequestID = %q, %v; want the trace-id %q, adopted", rid, adopted, tid)
			}
		default:
			if adopted || !strings.HasPrefix(rid, idPrefix+"-") {
				t.Fatalf("RequestID = %q, %v; want a minted %s-… ID", rid, adopted, idPrefix)
			}
		}
	})
}
