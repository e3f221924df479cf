package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/world"
)

// TestRunWrite drives run's non-serving paths: -write stores exactly the
// bytes the in-RAM compiler's Write yields — for a named scale, with and
// without the removed anchors, and for a streamed target count — and
// leaves nothing else beside the artifact; the flag combinations that
// cannot be honoured are errors rather than a surprise artifact or a
// served default.
func TestRunWrite(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)

	oracle := func(ds *dataset.Dataset) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "oracle.geodset")
		if err := ds.Write(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	stream, err := core.NewStreamScale(3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		scale       string
		unsanitized bool
		want        func() *dataset.Dataset
	}{
		{"tiny", "tiny", false, func() *dataset.Dataset {
			return dataset.Compile(core.NewCampaign(world.TinyConfig()), dataset.Options{})
		}},
		{"tiny unsanitized", "tiny", true, func() *dataset.Dataset {
			return dataset.Compile(core.NewCampaign(world.TinyConfig()), dataset.Options{IncludeUnsanitized: true})
		}},
		{"target count", "3000", false, func() *dataset.Dataset {
			return dataset.CompileFromSource(stream, dataset.StreamHeader(stream), dataset.Options{}, nil)
		}},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.geodset")
		if err := run(options{faultName: "none", scale: tc.scale, unsanitized: tc.unsanitized, writePath: path}); err != nil {
			t.Fatalf("%s: run -write: %v", tc.name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(tc.want()); !bytes.Equal(got, want) {
			t.Errorf("%s: -write stored %d bytes, Write of the in-RAM compile %d, and they differ",
				tc.name, len(got), len(want))
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != "a.geodset" {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Errorf("%s: -write left %v beside the artifact, want only a.geodset", tc.name, names)
		}
	}

	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		o    options
		want string
	}{
		{"-write with -dataset",
			options{faultName: "none", scale: "tiny", dsPath: filepath.Join(dir, "a.geodset"), writePath: filepath.Join(dir, "b.geodset")},
			"-write with -dataset"},
		{"unknown -scale", options{faultName: "none", scale: "galactic"}, "unknown scale"},
		{"unknown -faults", options{faultName: "bogus", scale: "tiny"}, "unknown fault profile"},
		{"-unsanitized with a target count",
			options{faultName: "none", scale: "3000", unsanitized: true, writePath: filepath.Join(dir, "c.geodset")},
			"-unsanitized"},
	} {
		if err := run(tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.want)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("refused runs left %d entries behind", len(ents))
	}
}
