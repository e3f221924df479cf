package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The reference kernel. The host this benchmark runs on shares its cores,
// caches and memory bus with other tenants, so identical code runs 10–60 %
// slower from one minute to the next. Every measured slice is therefore
// bracketed by a fixed amount of work the harness owns; the slice's durations
// are scaled by nominal/measured of that work, which turns wall-clock into
// "time at reference speed". The constants below are frozen: changing any of
// them rescales every time-based metric.
const (
	refCPUNominalMs = 30.0

	refCPURounds = 10
	refCPULoads  = 10000 // dependent loads over the table, per round
	refCPUTrig   = 50000 // Sincos+Acos, per round
	refCPUSorts  = 500   // 64-element sorts, per round
)

// cpuKernel mixes what the pipeline's hot loops do — integer hashing,
// dependent loads that miss the private caches, libm trigonometry and small
// sorts — and runs one copy per P, so contention on either core or on the
// shared cache shows up in its duration the way it shows up in the workload.
// The mix is about one part loads to two parts each of trigonometry and
// sorting: with more loads the kernel slows down more than the compute-bound
// workloads do when a neighbour floods the memory bus, with fewer it slows
// down less than batch-direct does (README, "Reference normalisation").
type cpuKernel struct {
	tab  []uint32 // 4 MiB, read-only after construction, shared by both copies
	sink uint64
	mu   sync.Mutex
}

func newCPUKernel() *cpuKernel {
	k := &cpuKernel{tab: make([]uint32, 1<<20)}
	x := uint64(88172645463325252)
	for i := range k.tab {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.tab[i] = uint32(x)
	}
	return k
}

// run executes the kernel once on every P and returns how long it took.
func (k *cpuKernel) run() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v := k.spin(uint64(p)*0x9E3779B97F4A7C15 + 7)
			k.mu.Lock()
			k.sink += v
			k.mu.Unlock()
		}(p)
	}
	wg.Wait()
	return time.Since(t0)
}

func (k *cpuKernel) spin(x uint64) uint64 {
	mask := uint32(len(k.tab) - 1)
	var idx uint32
	var acc float64
	var buf [64]int
	for r := 0; r < refCPURounds; r++ {
		for i := 0; i < refCPULoads; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			idx = k.tab[(uint32(x)^idx)&mask]
		}
		for i := 0; i < refCPUTrig; i++ {
			s, c := math.Sincos(float64(x>>11) * 1e-9)
			acc += math.Acos(s * c)
			x += uint64(i)
		}
		for j := 0; j < refCPUSorts; j++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] = int(x >> 40)
			}
			sort.Ints(buf[:])
		}
	}
	return uint64(idx) + x + uint64(acc) + uint64(buf[0])
}

// echoBody is the constant 120-byte JSON document the bare handler answers
// with — the size of a typical /lookup hit.
var echoBody = func() []byte {
	b := []byte(`{"ip":"203.0.113.77","prefix":"203.0.113.0/24","lat":48.8566,"lon":2.3522,"radius_km":12.5,"method":"cbg","pad":"`)
	for len(b) < 120-3 {
		b = append(b, 'x')
	}
	return append(b, "\"}\n"...)
}()

// echoServer is a bare net/http handler in this process: the price of a
// request that does no work (syscalls, netpoll, goroutine hand-offs, net/http
// parsing on both sides). The lookup-routed trace run peels it as the floor
// under every request; it does not calibrate anything, because its own
// run-to-run spread turned out larger than the drift it was meant to remove
// (README, "Reference normalisation").
type echoServer struct {
	pool *clientPool
	srv  *http.Server
	url  string
}

const echoPerClient = 500

func newEchoServer(pool *clientPool) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("echo listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("ip") == "" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(echoBody) //nolint:errcheck // a failed write surfaces as a client error
	})
	e := &echoServer{pool: pool, srv: &http.Server{Handler: mux}, url: "http://" + ln.Addr().String() + "/echo?ip=203.0.113.77"}
	go e.srv.Serve(ln) //nolint:errcheck // returns on Close
	return e, nil
}

// run sends echoPerClient GETs on every client at once and returns how long
// that took.
func (e *echoServer) run() time.Duration {
	t0 := time.Now()
	e.pool.eachClient(func(c int) { e.echo(e.pool.clients[c], echoPerClient) })
	return time.Since(t0)
}

// echo sends n sequential GETs on one client. A failure here means the
// harness itself is broken, so it panics rather than skewing a number.
func (e *echoServer) echo(c *http.Client, n int) {
	for i := 0; i < n; i++ {
		resp, err := c.Get(e.url)
		if err != nil {
			panic(fmt.Sprintf("echo: %v", err))
		}
		nb, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || nb != int64(len(echoBody)) {
			panic(fmt.Sprintf("echo: status %d, %d bytes", resp.StatusCode, nb))
		}
	}
}

func (e *echoServer) close() { e.srv.Close() }
