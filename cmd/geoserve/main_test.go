package main

import (
	"io"
	"log"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/world"
)

// TestRunWrite drives run's non-serving paths: -write stores exactly the
// dataset a tiny compile yields, and the flag combinations that cannot be
// honoured are errors rather than a surprise artifact or a served default.
func TestRunWrite(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.geodset")

	if err := run(options{faultName: "none", scale: "tiny", unsanitized: true, writePath: path}); err != nil {
		t.Fatalf("run -scale tiny -write: %v", err)
	}
	got, err := dataset.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.Compile(core.NewCampaign(world.TinyConfig()), dataset.Options{IncludeUnsanitized: true})
	if got.Hdr != want.Hdr || !slices.Equal(got.Records, want.Records) {
		t.Fatalf("-write stored %d records under %+v, Compile yields %d under %+v",
			len(got.Records), got.Hdr, len(want.Records), want.Hdr)
	}

	err = run(options{faultName: "none", scale: "tiny", dsPath: path, writePath: filepath.Join(dir, "copy.geodset")})
	if err == nil || !strings.Contains(err.Error(), "-write with -dataset") {
		t.Errorf("-write with -dataset: err = %v, want a refusal", err)
	}
	err = run(options{faultName: "none", scale: "galactic"})
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Errorf("unknown -scale: err = %v, want unknown scale", err)
	}
}
