// The per-status response ledger both serving tiers keep
// (geoserve.status{code,plane} on a replica, georouter.status{…} on the
// router), with the two helpers that feed it: a ResponseWriter that
// remembers the status it sent and the data/control classification of a
// request path. geobench cross-checks its client-side ledger against
// these counters, so the replica and the router must count the same way —
// they call this one implementation.
package obs

import (
	"net/http"
	"strconv"
	"sync/atomic"

	"geoloc/internal/telemetry"
)

// Plane splits the ledger: data-plane answers are the ones geobench's
// client ledger and the error-budget rules account for; control-plane
// answers (health, metrics, admin) are bookkept separately.
type Plane uint8

const (
	PlaneControl Plane = iota
	PlaneData
)

// String is the plane's label value and access-log field.
func (p Plane) String() string {
	if p == PlaneData {
		return "data"
	}
	return "control"
}

// PlaneOf classifies a request path for the ledger.
func PlaneOf(path string) Plane {
	if path == "/lookup" || path == "/batch" {
		return PlaneData
	}
	return PlaneControl
}

// StatusWriter records the status code of the response written through it.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *StatusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Status returns the recorded status (200 if the handler never wrote).
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// ledgerCodes is the span of status codes with a slot of their own: 100–599,
// every code net/http's own handlers and ours can send.
const ledgerCodes = 500

// Ledger maps (status, plane) to the counter base{code=C,plane=P}. The
// request path reads a slot with one atomic load; a pair's first use
// registers its counter. The registry hands every caller of one name the
// same counter, so racing first uses store the same pointer and the
// ledger needs no lock of its own.
type Ledger struct {
	reg   *telemetry.Registry
	base  string
	slots [2][ledgerCodes]atomic.Pointer[telemetry.Counter]
}

// NewLedger returns an empty ledger whose counters are registered in reg
// under base.
func NewLedger(reg *telemetry.Registry, base string) *Ledger {
	return &Ledger{reg: reg, base: base}
}

// Counter returns the counter of one (status, plane) pair.
func (l *Ledger) Counter(code int, plane Plane) *telemetry.Counter {
	if code < 100 || code >= 100+ledgerCodes {
		return l.register(code, plane) // nothing sends these; stay correct anyway
	}
	slot := &l.slots[plane][code-100]
	c := slot.Load()
	if c == nil {
		c = l.register(code, plane)
		slot.Store(c)
	}
	return c
}

func (l *Ledger) register(code int, plane Plane) *telemetry.Counter {
	return l.reg.Counter(telemetry.Name(l.base,
		telemetry.Label{Key: "code", Value: strconv.Itoa(code)},
		telemetry.Label{Key: "plane", Value: plane.String()}))
}
