package router

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// LocalFleet runs N serve.Server replicas in one process, each with its
// own registry, listener, and http.Server — the single-binary
// multi-replica mode behind `geoserve -router -replicas N`, and the
// substrate the chaos proof kills and revives replicas on.
//
// Stop is an abrupt crash (http.Server.Close: listeners closed,
// connections reset), not a drain — that is the failure the router has
// to survive. Start re-binds the replica's ORIGINAL address, because
// the router's replica table is fixed at construction; the listen is
// retried briefly to ride out the old socket's teardown.
type LocalFleet struct {
	mu       sync.Mutex
	replicas []*localReplica
}

// localReplica is one fleet member.
type localReplica struct {
	addr    string // "127.0.0.1:port", fixed at first bind
	srv     *serve.Server
	handler http.Handler // stall-wrapped serve handler
	stalled atomic.Bool

	httpSrv *http.Server
	running bool
}

// NewLocalFleet builds, publishes, and starts n replicas over the same
// in-process dataset: it is encoded once and every replica reads the
// shared image through its own reader (blocks verify on first touch, as
// for a file).
func NewLocalFleet(n int, ds *dataset.Dataset, source string, cfg serve.Config) (*LocalFleet, error) {
	img := ds.Encode()
	return newFleet(n, cfg, func(srv *serve.Server) error {
		r2, err := dataset.NewReader2(img)
		if err != nil {
			return err
		}
		srv.PublishReader(r2, source)
		return nil
	})
}

// NewFileFleet is NewLocalFleet over an artifact file: every replica
// Reloads path, so the fleet's mappings share one page-cache copy and a
// hot-swap is Reload on each of Servers().
func NewFileFleet(n int, path string, cfg serve.Config) (*LocalFleet, error) {
	return newFleet(n, cfg, func(srv *serve.Server) error {
		_, err := srv.Reload(path)
		return err
	})
}

// newFleet starts n replicas, each published to by publish. Every replica
// gets a private registry, read through its own /metrics.
func newFleet(n int, cfg serve.Config, publish func(*serve.Server) error) (*LocalFleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("router: fleet needs at least 1 replica, got %d", n)
	}
	f := &LocalFleet{}
	for i := 0; i < n; i++ {
		r := &localReplica{srv: serve.New(cfg, telemetry.New())}
		f.replicas = append(f.replicas, r) // before any failure, so Close releases what was published
		if err := publish(r.srv); err != nil {
			f.Close()
			return nil, fmt.Errorf("router: publish to replica %d: %w", i, err)
		}
		r.handler = stallWrap(&r.stalled, r.srv.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("router: bind replica %d: %w", i, err)
		}
		r.addr = ln.Addr().String()
		r.serveOn(ln)
	}
	return f, nil
}

// stallWrap freezes the handler while the flag is set: the request is
// accepted, then hangs until its context expires — the pathological
// "TCP up, application dead" failure that only probing with a timeout
// can detect.
func stallWrap(stalled *atomic.Bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.Load() {
			<-r.Context().Done()
			return
		}
		next.ServeHTTP(w, r)
	})
}

// serveOn starts the replica's http.Server on ln; callers hold f.mu (or
// are in the constructor before the fleet is shared).
func (r *localReplica) serveOn(ln net.Listener) {
	hs := &http.Server{Handler: r.handler}
	r.httpSrv = hs
	r.running = true
	go hs.Serve(ln) //nolint:errcheck // Serve always returns on Close; the error is the shutdown signal
}

// Addrs returns the fleet's base URLs in replica order — the router's
// ReplicaURLs input.
func (f *LocalFleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = "http://" + r.addr
	}
	return out
}

// Servers returns the underlying serve.Servers (for reloading an
// artifact into the whole fleet).
func (f *LocalFleet) Servers() []*serve.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*serve.Server, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = r.srv
	}
	return out
}

// StopReplica crashes replica i abruptly. Idempotent-hostile on
// purpose: stopping a stopped replica is a caller bug and errors.
func (f *LocalFleet) StopReplica(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.replica(i)
	if err != nil {
		return err
	}
	if !r.running {
		return fmt.Errorf("replica %d already stopped", i)
	}
	r.running = false
	return r.httpSrv.Close()
}

// StartReplica revives a stopped replica on its original address. The
// bind is retried briefly: the crashed server's socket may still be
// tearing down.
func (f *LocalFleet) StartReplica(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.replica(i)
	if err != nil {
		return err
	}
	if r.running {
		return fmt.Errorf("replica %d already running", i)
	}
	var ln net.Listener
	for try := 0; ; try++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		if try >= 40 {
			return fmt.Errorf("replica %d: re-bind %s: %w", i, r.addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	r.serveOn(ln)
	return nil
}

// StallReplica sets or clears the stall flag on replica i.
func (f *LocalFleet) StallReplica(i int, stalled bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.replica(i)
	if err != nil {
		return err
	}
	r.stalled.Store(stalled)
	return nil
}

// Close stops every running replica and releases every replica's reader
// (for a file-backed fleet, its mapping — once the last in-flight request
// has unpinned it).
func (f *LocalFleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.replicas {
		if r.running {
			r.running = false
			r.httpSrv.Close() //nolint:errcheck // shutdown path
		}
		if a := r.srv.Current(); a != nil {
			a.R2.Close()
		}
	}
}

// replica bounds-checks i; callers hold f.mu.
func (f *LocalFleet) replica(i int) (*localReplica, error) {
	if i < 0 || i >= len(f.replicas) {
		return nil, fmt.Errorf("replica %d out of range [0, %d)", i, len(f.replicas))
	}
	return f.replicas[i], nil
}
