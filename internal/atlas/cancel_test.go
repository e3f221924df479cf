package atlas

import (
	"context"
	"errors"
	"testing"

	"geoloc/internal/faults"
)

func TestPingBatchCanceledContext(t *testing.T) {
	c := newClient(faults.Realistic())
	src := c.P.W.Host(c.P.W.Probes[0])
	dst := c.P.W.Host(c.P.W.Anchors[0])

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &BatchStats{}
	out := c.PingBatch(ctx, src, dst, 1, rec)
	if !errors.Is(out.Err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", out.Err)
	}
	if out.OK {
		t.Fatal("canceled ping reported OK")
	}
	if st := c.Stats(); st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", st.Canceled)
	}
	// A canceled measurement completed no attempt and must not count as a
	// batch failure or retry in the row's accounting.
	if rec.Retries != 0 || rec.Failures != 0 || rec.Succeeded != 0 {
		t.Fatalf("canceled measurement polluted the batch record: %+v", rec)
	}
}

// TestCancelDoesNotPerturbSurvivors: measurements completed before the
// cancellation are bit-identical to the same measurements in a run that
// was never canceled — cancellation must only remove work, never change it.
func TestCancelDoesNotPerturbSurvivors(t *testing.T) {
	full := newClient(faults.Realistic())
	cut := newClient(faults.Realistic())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const keep = 25
	for i := 0; i < 40; i++ {
		src := full.P.W.Host(full.P.W.Probes[i%len(full.P.W.Probes)])
		dst := full.P.W.Host(full.P.W.Anchors[i%len(full.P.W.Anchors)])
		want := full.PingBatch(context.Background(), src, dst, uint64(i), nil)

		if i == keep {
			cancel()
		}
		got := cut.PingBatch(ctx, cut.P.W.Host(src.ID), cut.P.W.Host(dst.ID), uint64(i), nil)
		if i < keep {
			if got.OK != want.OK || got.RTTMs != want.RTTMs || got.Attempts != want.Attempts {
				t.Fatalf("ping %d diverged before cancellation", i)
			}
		} else {
			if !errors.Is(got.Err, ErrCanceled) {
				t.Fatalf("ping %d after cancel: err %v", i, got.Err)
			}
		}
	}
}
