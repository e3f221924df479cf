package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIFinishIdempotent is the regression test for the double-Finish
// bug: a binary that both defers Finish and calls it explicitly before
// an os.Exit path must produce its artifacts exactly once. The CLI is
// constructed directly (NewCLI would re-register flags on
// flag.CommandLine and panic under `go test`).
func TestCLIFinishIdempotent(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	c := &CLI{TraceOut: out}
	c.Attach("test", New())

	if err := c.Finish(); err != nil {
		t.Fatalf("first Finish: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("first Finish did not write the trace: %v", err)
	}

	// Remove the artifact: a second Finish must be a no-op, not a
	// second write.
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("second Finish: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatal("second Finish re-produced the trace artifact; Finish must be idempotent")
	}
}

// TestNewLoggerFormats pins the shared -log-format / -log-level
// vocabulary: json yields one JSON object per record, text yields
// key=value lines, and the level gate actually drops records below it.
func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "json", "info")
	lg.Debug("hidden")
	lg.Info("shown", "k", "v")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("json logger at info wrote %d records, want 1: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("json record does not parse: %v", err)
	}
	if rec["msg"] != "shown" || rec["k"] != "v" {
		t.Errorf("json record = %v", rec)
	}

	buf.Reset()
	lg = NewLogger(&buf, "text", "warn")
	lg.Info("hidden")
	lg.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "msg=kept") {
		t.Errorf("text logger at warn wrote %q", out)
	}

	buf.Reset()
	lg = NewLogger(&buf, "text", "error")
	lg.Warn("hidden")
	lg.Error("kept")
	if strings.Contains(buf.String(), "hidden") || !strings.Contains(buf.String(), "kept") {
		t.Errorf("text logger at error wrote %q", buf.String())
	}
}

// TestNewLoggerDegradesOnUnknownValues: a typo in a logging option must
// not break the binary — it degrades to text/info.
func TestNewLoggerDegradesOnUnknownValues(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "yaml", "loud")
	lg.Info("still works")
	if !strings.Contains(buf.String(), "msg=\"still works\"") {
		t.Errorf("degraded logger wrote %q", buf.String())
	}
	lg.Debug("below info")
	if strings.Contains(buf.String(), "below info") {
		t.Error("degraded level should be info, debug leaked through")
	}
}

// TestCLILoggerCached: the CLI hands out one logger, built once.
func TestCLILoggerCached(t *testing.T) {
	c := &CLI{LogFormat: "text", LogLevel: "info"}
	if c.Logger() != c.Logger() {
		t.Error("CLI.Logger must return the same instance")
	}
}

// TestCLIFinishErrorStillMarksDone pins the failure path: even when the
// first Finish errors (unwritable output), later calls stay no-ops so a
// deferred Finish after an explicit one cannot double-report.
func TestCLIFinishErrorStillMarksDone(t *testing.T) {
	c := &CLI{TraceOut: filepath.Join(t.TempDir(), "no-such-dir", "trace.json")}
	c.Attach("test", New())
	if err := c.Finish(); err == nil {
		t.Fatal("Finish with unwritable -trace should error")
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("second Finish should be a silent no-op, got %v", err)
	}
}
