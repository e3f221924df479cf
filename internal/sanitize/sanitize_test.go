package sanitize

import (
	"testing"

	"geoloc/internal/atlas"
	"geoloc/internal/netsim"
	"geoloc/internal/world"
)

func newPlatform() *atlas.Platform {
	w := world.Generate(world.TinyConfig())
	return atlas.New(w, netsim.New(w, nil))
}

func TestAnchorsRemovesExactlyCorrupted(t *testing.T) {
	p := newPlatform()
	res := Anchors(p, p.W.Anchors)

	wantRemoved := make(map[int]bool)
	for _, id := range p.W.Anchors {
		if p.W.Host(id).Corrupted {
			wantRemoved[id] = true
		}
	}
	if len(res.Removed) != len(wantRemoved) {
		t.Fatalf("removed %d anchors, want %d", len(res.Removed), len(wantRemoved))
	}
	for _, id := range res.Removed {
		if !wantRemoved[id] {
			t.Errorf("clean anchor %d was removed", id)
		}
	}
	if len(res.Kept)+len(res.Removed) != len(p.W.Anchors) {
		t.Error("kept+removed must partition the input")
	}
}

func TestAnchorsCleanMeshUntouched(t *testing.T) {
	cfg := world.TinyConfig()
	cfg.CorruptAnchors = 0
	w := world.Generate(cfg)
	p := atlas.New(w, netsim.New(w, nil))
	res := Anchors(p, w.Anchors)
	if len(res.Removed) != 0 {
		t.Errorf("clean mesh removed %d anchors", len(res.Removed))
	}
}

func TestAnchorsViolationCountsPositiveForCorrupted(t *testing.T) {
	p := newPlatform()
	res := Anchors(p, p.W.Anchors)
	for _, id := range p.W.Anchors {
		h := p.W.Host(id)
		if h.Corrupted && res.InitialViolations[id] == 0 {
			t.Errorf("corrupted anchor %d has zero initial violations", id)
		}
	}
}

func TestProbesRemovesExactlyCorrupted(t *testing.T) {
	p := newPlatform()
	anchorRes := Anchors(p, p.W.Anchors)
	res := Probes(p, p.W.Probes, anchorRes.Kept)

	wantRemoved := 0
	for _, id := range p.W.Probes {
		if p.W.Host(id).Corrupted {
			wantRemoved++
		}
	}
	if len(res.Removed) != wantRemoved {
		t.Fatalf("removed %d probes, want %d", len(res.Removed), wantRemoved)
	}
	for _, id := range res.Removed {
		if !p.W.Host(id).Corrupted {
			t.Errorf("clean probe %d was removed", id)
		}
		if res.Violations[id] == 0 {
			t.Errorf("removed probe %d has zero recorded violations", id)
		}
	}
}

func TestProbesKeepOrderStable(t *testing.T) {
	p := newPlatform()
	anchorRes := Anchors(p, p.W.Anchors)
	res := Probes(p, p.W.Probes, anchorRes.Kept)
	// Kept probes appear in input order.
	last := -1
	idx := make(map[int]int)
	for i, id := range p.W.Probes {
		idx[id] = i
	}
	for _, id := range res.Kept {
		if idx[id] < last {
			t.Fatal("kept probes out of input order")
		}
		last = idx[id]
	}
}

func TestSanitizationDeterministic(t *testing.T) {
	p1, p2 := newPlatform(), newPlatform()
	r1 := Anchors(p1, p1.W.Anchors)
	r2 := Anchors(p2, p2.W.Anchors)
	if len(r1.Removed) != len(r2.Removed) {
		t.Fatal("nondeterministic removal count")
	}
	for i := range r1.Removed {
		if r1.Removed[i] != r2.Removed[i] {
			t.Fatal("nondeterministic removal order")
		}
	}
}

func TestPaperScaleCountsShape(t *testing.T) {
	// The tiny world plants 2 corrupted anchors and 5 corrupted probes;
	// after sanitization the target set has the per-continent counts of the
	// config, mirroring the paper's 732→723 anchors and 96 probes removed.
	p := newPlatform()
	aRes := Anchors(p, p.W.Anchors)
	cfg := world.TinyConfig()
	want := 0
	for _, n := range cfg.AnchorsPerContinent {
		want += n
	}
	if len(aRes.Kept) != want {
		t.Errorf("kept anchors = %d, want %d", len(aRes.Kept), want)
	}
}
