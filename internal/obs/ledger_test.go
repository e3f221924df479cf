package obs

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"geoloc/internal/telemetry"
)

// TestLedgerConcurrentFirstUse: goroutines racing on a pair's first use
// all land on the registry's one counter for that name, in range and out.
func TestLedgerConcurrentFirstUse(t *testing.T) {
	reg := telemetry.New()
	l := NewLedger(reg, "tier.status")
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Counter(http.StatusOK, PlaneData).Inc()
				l.Counter(http.StatusOK, PlaneControl).Inc()
				l.Counter(999, PlaneData).Inc()
			}
		}()
	}
	wg.Wait()
	for _, name := range []string{
		"tier.status{code=200,plane=data}",
		"tier.status{code=200,plane=control}",
		"tier.status{code=999,plane=data}",
	} {
		if got := reg.Counter(name).Value(); got != workers*each {
			t.Errorf("%s = %d, want %d", name, got, workers*each)
		}
	}
}

// TestStatusWriterAndPlane pins the two helpers beside the ledger.
func TestStatusWriterAndPlane(t *testing.T) {
	for path, want := range map[string]Plane{
		"/lookup": PlaneData, "/batch": PlaneData,
		"/healthz": PlaneControl, "/metrics": PlaneControl, "/lookup/": PlaneControl,
	} {
		if got := PlaneOf(path); got != want {
			t.Errorf("PlaneOf(%q) = %s, want %s", path, got, want)
		}
	}
	silent := &StatusWriter{ResponseWriter: httptest.NewRecorder()}
	if got := silent.Status(); got != http.StatusOK {
		t.Errorf("status of a response never written = %d, want 200", got)
	}
	rec := httptest.NewRecorder()
	sw := &StatusWriter{ResponseWriter: rec}
	sw.WriteHeader(http.StatusTeapot)
	sw.Write([]byte("x"))
	if sw.Status() != http.StatusTeapot || rec.Code != http.StatusTeapot {
		t.Errorf("recorded %d, sent %d, want 418 both", sw.Status(), rec.Code)
	}
}
