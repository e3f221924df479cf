package telemetry

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// CLI wires the telemetry subsystem into a command line: it registers the
// shared -metrics / -trace / -pprof flags, builds the run's registry when
// any of them is used, and dumps the attached registries. Usage:
//
//	tele := telemetry.NewCLI() // before flag.Parse
//	flag.Parse()
//	tele.Start()               // builds the run registry, starts pprof
//	c := core.NewResilientCampaign(cfg, prof, tele.Registry())
//	tele.Attach("campaign", c.Platform.Reg) // as registries come to exist
//	defer tele.Finish()        // dumps -metrics, writes -trace
//
// Finish must also be called explicitly before os.Exit paths (deferred
// calls do not run through os.Exit).
type CLI struct {
	// Metrics writes every attached registry to stderr on Finish, in the
	// Prometheus text format GET /metrics serves, each under a
	// "# registry: <label>" comment.
	Metrics bool
	// TraceOut, when non-empty, writes the recorded spans to the file in
	// Chrome trace-event format (chrome://tracing, Perfetto).
	TraceOut string
	// PprofAddr, when non-empty, serves net/http/pprof on the address.
	PprofAddr string
	// CPUProfile, when non-empty, records a CPU profile of the whole run
	// (Start to Finish) into the file.
	CPUProfile string
	// MemProfile, when non-empty, writes a heap profile (after a final GC,
	// so it shows live memory rather than collectable garbage) on Finish.
	MemProfile string
	// LogFormat selects the structured-log encoding: "text" (quiet,
	// human-oriented, the default) or "json" (one record per line, for
	// log pipelines).
	LogFormat string
	// LogLevel is the minimum level emitted: debug, info, warn, error.
	LogLevel string

	reg *Registry // the run's registry; nil until Start sees a flag

	mu         sync.Mutex
	regs       []labeledRegistry
	done       bool
	cpuProfile *os.File
	logger     *slog.Logger
}

type labeledRegistry struct {
	label string
	reg   *Registry
}

// NewCLI registers the telemetry flags on flag.CommandLine and returns
// the handle.
func NewCLI() *CLI {
	c := &CLI{}
	flag.BoolVar(&c.Metrics, "metrics", false,
		"write telemetry metrics to stderr on exit, in Prometheus text format")
	flag.StringVar(&c.TraceOut, "trace", "",
		"write campaign-phase spans to this file in Chrome trace-event format")
	flag.StringVar(&c.PprofAddr, "pprof", "",
		"serve net/http/pprof on this address, e.g. :6060")
	flag.StringVar(&c.CPUProfile, "cpuprofile", "",
		"write a CPU profile of the run to this file (inspect with go tool pprof)")
	flag.StringVar(&c.MemProfile, "memprofile", "",
		"write an end-of-run heap profile to this file (inspect with go tool pprof)")
	RegisterLogFlags(&c.LogFormat, &c.LogLevel)
	return c
}

// RegisterLogFlags registers the shared -log-format / -log-level pair on
// flag.CommandLine. Exposed separately for binaries (geobench) that want
// structured logging without the whole telemetry CLI.
func RegisterLogFlags(format, level *string) {
	flag.StringVar(format, "log-format", "text", "structured log encoding: text or json")
	flag.StringVar(level, "log-level", "info", "minimum log level: debug, info, warn, error")
}

// Logger returns the logger the -log-format / -log-level flags asked
// for, writing to stderr (stdout stays reserved for program output, so
// golden-output tests are unaffected). Built once; call after
// flag.Parse.
func (c *CLI) Logger() *slog.Logger {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.logger == nil {
		c.logger = NewLogger(os.Stderr, c.LogFormat, c.LogLevel)
	}
	return c.logger
}

// NewLogger builds a slog.Logger from the shared flag vocabulary.
// Unknown values degrade to text/info with a note rather than failing
// the program over a logging option.
func NewLogger(w io.Writer, format, level string) *slog.Logger {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		fmt.Fprintf(os.Stderr, "telemetry: unknown -log-level %q, using info\n", level)
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts))
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts))
	default:
		fmt.Fprintf(os.Stderr, "telemetry: unknown -log-format %q, using text\n", format)
		return slog.New(slog.NewTextHandler(w, opts))
	}
}

// Active reports whether any telemetry flag was used.
func (c *CLI) Active() bool {
	return c.Metrics || c.TraceOut != "" || c.PprofAddr != "" ||
		c.CPUProfile != "" || c.MemProfile != ""
}

// Attach adds a registry to the dump set under the given label.
func (c *CLI) Attach(label string, r *Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.regs = append(c.regs, labeledRegistry{label, r})
}

// Registry is the run's registry, the one the command hands to what it
// builds: nil, so nothing is metered, unless Start saw a telemetry flag.
func (c *CLI) Registry() *Registry { return c.reg }

// Start acts on the parsed flags: when any telemetry flag is set it builds
// the run's registry and attaches it as "pipeline", and it starts the
// pprof server when requested. Call it once, after flag.Parse.
func (c *CLI) Start() {
	if c.Active() {
		c.reg = New()
		c.Attach("pipeline", c.reg)
	}
	if c.PprofAddr != "" {
		go func() {
			// The default mux already carries net/http/pprof.
			if err := http.ListenAndServe(c.PprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: pprof server: %v\n", err)
			}
		}()
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: cpuprofile: %v\n", err)
		} else if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: cpuprofile: %v\n", err)
			f.Close()
		} else {
			c.mu.Lock()
			c.cpuProfile = f
			c.mu.Unlock()
		}
	}
}

// Finish produces the requested end-of-run artifacts: the profiles, the
// -metrics dump and the -trace Chrome trace file.
// Idempotent, so it is safe to both defer it and call it before os.Exit.
func (c *CLI) Finish() error {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return nil
	}
	c.done = true
	regs := append([]labeledRegistry(nil), c.regs...)
	cpu := c.cpuProfile
	c.cpuProfile = nil
	c.mu.Unlock()

	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("telemetry: cpuprofile: %w", err)
		}
	}
	if c.MemProfile != "" {
		runtime.GC() // show live memory, not collectable garbage
		if err := writeFileWith(c.MemProfile, func(w io.Writer) error {
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			return fmt.Errorf("telemetry: memprofile: %w", err)
		}
	}
	if c.Metrics {
		for _, lr := range regs {
			fmt.Fprintf(os.Stderr, "# registry: %s\n", lr.label)
			if err := lr.reg.WritePrometheus(os.Stderr); err != nil {
				return err
			}
		}
	}
	if c.TraceOut != "" {
		rs := make([]*Registry, len(regs))
		for i, lr := range regs {
			rs[i] = lr.reg
		}
		if err := writeFileWith(c.TraceOut, func(w io.Writer) error {
			return WriteChromeTrace(w, rs...)
		}); err != nil {
			return fmt.Errorf("telemetry: trace: %w", err)
		}
	}
	return nil
}

func writeFileWith(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
