# Developer entry points. `make ci` is what the CI workflow's test job runs
# (CI additionally runs staticcheck and the smoke jobs below). The
# performance gate is not here: it is the benchmark (BENCHMARK.json,
# benchmark/README.md), run as alternating parent/change pairs.

GO ?= go

.PHONY: all build loc test race vet staticcheck allocs-smoke alloc-table profile bench-record bench-trend experiments ci resume-check fuzz-smoke load-smoke chaos-smoke scale-smoke

all: build

build:
	$(GO) build ./...

# Size of the program: non-test Go outside the benchmark harness and its
# build directory, in lines — the figure a change that only deletes code
# reports.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' \
		-not -name '*_test.go' | xargs cat | wc -l

# The second pass re-runs the packages whose tests race goroutines against
# each other, or fill shared tables under par.For, at 1, 2 and 4 Ps: a
# failure that needs a second hardware thread (TestRunProgressRecords was
# red on every 2-core host while the 1-vCPU recorder stayed green) can no
# longer hide. vpsel's cover table and netsim's router and access tables
# are filled that way, and the cover runs inside multistep's per-target
# par.For. sanitize's probe fan walks a place-order permutation of the
# probes over those netsim tables. mapping's AppendPOIsInZip oracle has
# par workers query one service into per-worker buffers. streetlevel's
# oracle runs Geolocate under par.For, every target sharing one mapping
# service, one website resolver, the pipeline's bearing tables and its
# scratch pool. dataset's CompileFromSource
# and CompileExternal measure targets under par.ForWorker, and their bytes
# must not depend on the P count. experiments' Context shares results
# across experiments (the trial medians Fig 2a and 2b both read, the
# two-step rows Fig 3b, 3c and the ablations read), computed under par.For
# by whichever experiment asks first. serve's admission tests wait on
# handshakes with the handlers they race (a stall entered, a queue joined,
# a request answered), never on a sleep, and its /batch counters are
# tallied per request from concurrent batches; ipaddr's parser runs under
# both. router's health and failover tests wait the same way: on a hook the
# probe loop and the handler poke, on a fake replica's signal that a lookup
# arrived, and on a restarted replica's bound listener. obs and telemetry
# are reached from every request goroutine: request IDs, the status
# ledger's slots and the counters behind it. geobench's verdicts hang on worker
# scheduling (where the hot-swap lands, and the window between the chaos
# kill and the readmission), so its closed-loop runs go through it too.
# -short only trims the oracles (core's stream selection from 50k to 5k
# targets per case, netsim's routes from 100k pairs to 10k and its table
# check to the tiny world, vpsel's multi-step sweep oracle off); the
# full-size runs are in the first pass. The third pass is the benchmark
# harness: it is its own module (benchmark/go.mod), so `./...` above does
# not reach it, and it compiles against this module's serving API.
test:
	$(GO) test ./...
	$(GO) test -short -cpu 1,2,4 ./internal/core/ ./internal/par/ ./internal/atlas/ ./internal/vpsel/ ./internal/netsim/ ./internal/sanitize/ ./internal/mapping/ ./internal/streetlevel/ ./internal/dataset/ ./internal/experiments/ ./internal/serve/ ./internal/ipaddr/ ./internal/router/ ./internal/obs/ ./internal/telemetry/ ./cmd/geobench/
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# vet also fails on any file gofmt would rewrite, and on non-test Go
# outside internal/telemetry and benchmark/ that names telemetry.Default:
# metering is handed in by whatever builds the metered object (DESIGN.md
# §3.2), and Default is a deprecated shim for the harness. It fails on Go
# outside internal/serve and benchmark/ that imports internal/ipindex, a
# shim that (*serve.Server).Index builds for the harness alone; ROADMAP
# item 11 deletes both shims. It fails too on non-test Go outside
# internal/geo and internal/cbg that names geo.Region: production code
# reduces constraints with geo.Sampler only, and Region's haversine
# reduction is the reference its tests compare against.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@global="$$(grep -rn --include='*.go' 'telemetry\.Default' . | grep -v '_test\.go:' | \
		grep -v -e '^\./internal/telemetry/' -e '^\./benchmark/' -e '^\./\.bench_build/')"; \
		if [ -n "$$global" ]; then echo "telemetry.Default named outside internal/telemetry and benchmark/:"; \
		echo "$$global"; exit 1; fi
	@ipindex="$$(grep -rn --include='*.go' '"geoloc/internal/ipindex"' . | \
		grep -v -e '^\./internal/serve/' -e '^\./benchmark/' -e '^\./\.bench_build/')"; \
		if [ -n "$$ipindex" ]; then echo "internal/ipindex imported outside internal/serve:"; \
		echo "$$ipindex"; exit 1; fi
	@region="$$(grep -rn --include='*.go' 'geo\.Region\b' . | grep -v '_test\.go:' | \
		grep -v -e '^\./internal/geo/' -e '^\./internal/cbg/' -e '^\./\.bench_build/')"; \
		if [ -n "$$region" ]; then echo "geo.Region named outside internal/geo and internal/cbg (reduce with geo.Sampler):"; \
		echo "$$region"; exit 1; fi

# Requires staticcheck on PATH (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	staticcheck ./...

# Hard allocation gates of the serving hot path (DESIGN.md §3.10) and the
# write path (§3.9): a steady-state /lookup — pin, parse, resolve,
# render, write — and a steady-state GEODSET2 lookup must perform zero
# heap allocations per request, and the middleware chain around the
# handler may not exceed its pinned count — 3 for one lookup with a
# generated request ID, 1 with an adopted one (the router forwards one on
# every hop; a request that never waits builds no deadline context), and 6
# for a whole 256-address POST /batch (nothing per address). TestRouterAllocs
# pins the routed hop (DESIGN.md §3.8): one hit through the router's
# Handler() against a one-replica fleet, counted process-wide — the
# replica's net/http server included — at most 27 (it measures 26). TestMeasureTargetAllocs
# pins a streamed target's measurement at zero once its buffer holds K,
# TestMeasureRowAllocs a campaign row measured into its worker's buffer
# at zero in both phases (DESIGN.md §3.3), and TestPingAllocs a simulated
# ping, and a traceroute into a caller's
# TraceBuf, at zero whether the route's skeleton is in the table or is
# built on a miss (DESIGN.md §3.2). The analysis pass's per-call sites
# (§3.5): a VP selection's region candidate scan at most 2 allocations,
# a whole TwoStepSelect at most 2 (its scan's: the region, the sweep's
# round and the lowest-RTT pick stay on the stack), the k-lowest-RTT pick
# (cbg's ClosestVPs) into a buffer that holds k 0,
# a table cover one count whatever its size, a fanned GreedyCover at 2
# workers one count whatever its size (a par.NewLoop call allocates 0), a
# mapping-query fault draw 0,
# a pooled par.ForWorkers call at 2 workers at most 4, a POI query into a
# buffer that holds the zone 0, a measurement client's source-state
# lookup 0, and a warm street-level Geolocate exactly one, its result's
# landmark slice (none without a landmark), on every Tiny target. Run by
# name, so a new allocation sneaking into a hot path fails THIS target,
# not a trend threshold.
allocs-smoke:
	$(GO) test -count 1 -run 'TestServeAllocs|TestBadBatchAllocs|TestMappedLookupAllocs|TestRouterAllocs|TestMeasureTargetAllocs|TestMeasureRowAllocs|TestPingAllocs|TestRegionCandidatesAllocs|TestTwoStepSelectAllocs|TestClosestVPsAllocs|TestCoverAllocs|TestGreedyCoverAllocs|TestLookupFailedAllocs|TestForWorkersAllocs|TestLoopAllocs|TestAppendPOIsInZipAllocs|TestClientStateAllocs|TestGeolocateAllocs' \
		./internal/serve ./internal/dataset ./internal/router ./internal/core ./internal/netsim \
		./internal/vpsel ./internal/cbg ./internal/faults ./internal/par ./internal/mapping ./internal/atlas ./internal/streetlevel

# The analysis pass's allocation split: one metered registry pass over a
# Medium campaign (BenchmarkAnalysisPass), per experiment the heap objects
# it allocates and the route skeletons it hits and builds in netsim's
# table. A table for reading, not a gate: ROADMAP's analysis row cites it.
alloc-table:
	$(GO) test -run '^$$' -bench '^BenchmarkAnalysisPass$$' -benchtime 1x . | tr '\t' '\n' | grep '/pass\|/experiment'

# CPU + heap profiles of the costliest analysis benchmark (Fig 2a drives
# ~58k CBG locates through the sampling kernels). Inspect with
# `go tool pprof profiles/fig2a.cpu.pprof`. The Benchmark* functions at the
# root and in internal/core and internal/dataset are profiling entry
# points like this one; nothing gates on their timings.
profile:
	mkdir -p profiles
	$(GO) test -bench 'Fig2a' -benchtime 1x -run '^$$' \
		-cpuprofile profiles/fig2a.cpu.pprof -memprofile profiles/fig2a.mem.pprof .
	@echo "profiles written to profiles/fig2a.{cpu,mem}.pprof"

# One record of the benchmark trajectory: the A/A runs of every workload
# (benchmark/aa.sh's protocol, about 20 minutes on a 2-vCPU host) into
# .bench_build/aa-$(PR), their Markdown report beside them, and
# BENCH_$(PR).json at the root: the commit (suffixed -dirty when the tree
# differs from it), host, nproc, GOMAXPROCS, Go version and each metric's
# median, Q1 and Q3. A failed A/A verdict (exit 3) still writes the
# record; the record is kept and the verdict line printed.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>" >&2; exit 2; }
	mkdir -p .bench_build
	rc=0; bash benchmark/run.sh -aa .bench_build/aa-$(PR) -baseline BENCH_$(PR).json \
		-commit "$$(git rev-parse HEAD)$$(git diff --quiet HEAD -- . || echo -dirty)" \
		> .bench_build/aa-$(PR).md || rc=$$?; \
	grep '^Result' .bench_build/aa-$(PR).md; \
	if [ $$rc -eq 3 ]; then echo "A/A verdict failed; BENCH_$(PR).json is kept"; rc=0; fi; \
	exit $$rc

# The trajectory: each metric's median in every BENCH_<pr>.json, one
# column per record in PR order, under the record's commit, host and nproc.
bench-trend:
	@ls BENCH_*.json >/dev/null 2>&1 || { echo "no BENCH_*.json record (make bench-record PR=<n>)" >&2; exit 1; }
	@jq -nr "$$TREND_JQ" BENCH_*.json | awk -F'\t' "$$COLUMNS_AWK"

# bench-trend's table (six significant digits) and its column alignment.
define TREND_JQ
def sig: if . == 0 then 0 else pow(10; 5 - (fabs | log10 | floor)) as $$k | (. * $$k | round) / $$k end;
[inputs | {pr: (input_filename | ltrimstr("BENCH_") | rtrimstr(".json") | tonumber), r: .}] | sort_by(.pr) as $$recs
| (["record", "", ($$recs[] | "BENCH_\(.pr)")] | @tsv),
  (["commit", "", ($$recs[] | .r.commit | .[0:12] + (if endswith("-dirty") then "-dirty" else "" end))] | @tsv),
  (["host", "", ($$recs[] | .r.host)] | @tsv),
  (["nproc", "", ($$recs[] | .r.nproc | tostring)] | @tsv),
  ([$$recs[].r.workloads | to_entries[] | .key as $$w | .value | keys[] | [$$w, .]] | unique[] as [$$w, $$m]
   | [$$w, $$m, ($$recs[] | .r.workloads[$$w][$$m].median | if . == null then "-" else sig | tostring end)] | @tsv)
endef
define COLUMNS_AWK
{ for (i = 1; i <= NF; i++) { c[NR, i] = $$i; if (length($$i) > w[i]) w[i] = length($$i) } if (NF > nf) nf = NF }
END { for (r = 1; r <= NR; r++) { l = ""; for (i = 1; i <= nf; i++) l = l sprintf("%-" w[i] "s  ", c[r, i]); sub(/ +$$/, "", l); print l } }
endef
export TREND_JQ COLUMNS_AWK

experiments:
	$(GO) run ./cmd/experiments -scale tiny -out results

# Resume equivalence (DESIGN.md §3.3): run a tiny campaign uninterrupted,
# run it again with a checkpoint journal and die abruptly (exit 3) after 40
# journaled batches, resume from the journal, and require the matrix
# digests and platform/client stats to match byte for byte — under every
# fault profile. Hostile trips dozens of circuit-breaker quarantines before
# the kill, so breaker and quarantine state must cross it too. Report
# replay: a third, -resume run over the now complete journal restores every
# batch and the journaled table1 report, measures nothing, and must print
# the uninterrupted run's stdout byte for byte (as must the resumed run)
# and write the same -out files, table1.txt and table1.csv.
# Spill-run resume (§3.9): compile 20k streamed targets in five windows
# keeping the spill, tear run 4's tail (7 bytes), flip one byte mid-run 2,
# delete the artifact, and compile again with -resume: the three intact
# runs are reused, the damaged two re-measured, and the artifact is the
# uninterrupted one byte for byte.
resume-check:
	rm -rf .resume-check && mkdir -p .resume-check
	$(GO) build -o .resume-check/exp ./cmd/experiments
	set -e; for prof in none realistic degraded hostile; do \
		d=.resume-check/$$prof; \
		./.resume-check/exp -scale tiny -run table1 -faults $$prof \
			-digest $$d.base -out $$d.base.res -q >$$d.base.out; \
		rc=0; ./.resume-check/exp -scale tiny -run table1 -faults $$prof \
			-checkpoint-dir $$d -kill-after-batches 40 -q >/dev/null || rc=$$?; \
		test $$rc -eq 3; \
		./.resume-check/exp -scale tiny -run table1 -faults $$prof \
			-checkpoint-dir $$d -resume -digest $$d.resumed -q >$$d.resumed.out; \
		diff $$d.base $$d.resumed; \
		./.resume-check/exp -scale tiny -run table1 -faults $$prof \
			-checkpoint-dir $$d -resume -out $$d.replay.res >$$d.replay.out 2>$$d.replay.log; \
		grep -q 'batches restored, 0 measured live' $$d.replay.log; \
		grep -q '^experiments: table1 restored from checkpoint$$' $$d.replay.log; \
		cmp $$d.base.out $$d.resumed.out; \
		cmp $$d.base.out $$d.replay.out; \
		diff -r $$d.base.res $$d.replay.res; \
		echo "resume-check($$prof): digests identical, report replayed byte for byte"; \
	done
	set -e; s=.resume-check/stream; \
	./.resume-check/exp -scale 20000 -checkpoint-dir $$s -keep-spill \
		-artifact $$s.geodset2 -q >/dev/null; \
	mv $$s.geodset2 $$s.ref.geodset2; \
	truncate -s -7 $$s/run-00004.ckpt; \
	b=$$(od -An -tu1 -j5000 -N1 $$s/run-00002.ckpt); \
	printf "\\$$(printf %o $$((b ^ 255)))" | \
		dd of=$$s/run-00002.ckpt bs=1 seek=5000 conv=notrunc status=none; \
	./.resume-check/exp -scale 20000 -checkpoint-dir $$s -resume \
		-artifact $$s.geodset2 -q >$$s.out; \
	grep -E 'windows: +5 \(3 reused from prior spill\)' $$s.out; \
	cmp $$s.ref.geodset2 $$s.geodset2; \
	echo "resume-check(stream): artifact identical after reusing 3 of 5 spill runs"
	rm -rf .resume-check

# Load + metrics proof of the serving tier (DESIGN.md §3.6–3.7):
# geobench drives its one seeded mix (70 % hits, 20 % misses, 10 %
# garbage, every 16th request a POST /batch of 8) against a live geoserve
# and renders a strict verdict. Run 1 hot-swaps the artifact mid-run and
# requires a clean ledger — zero dropped requests, zero off-design
# statuses, a swap-generation bump — AND, via -metrics-check, scrapes
# GET /metrics before and after: the exposition must lint clean, the
# server's data-plane status counters must move by exactly the client
# ledger, geoserve_swaps_total must record the swap, and
# geoserve_latency_ms_count must move by exactly the client's data-plane
# answers other than 429. Run 2 aims 64 closed-loop workers at a server
# admitted down to 2 inflight slots under the degraded fault profile and
# requires overload to degrade to designed 429s with bounded p999, not
# collapse — and, under -metrics-check again, that the ledger matches and
# not one of the sheds reached the latency histogram.
load-smoke:
	rm -rf .load-smoke && mkdir -p .load-smoke
	$(GO) build -o .load-smoke/geoserve ./cmd/geoserve
	$(GO) build -o .load-smoke/geobench ./cmd/geobench
	./.load-smoke/geoserve -scale tiny -unsanitized -write .load-smoke/a.geodset
	./.load-smoke/geoserve -scale tiny -write .load-smoke/b.geodset
	set -e; \
	./.load-smoke/geoserve -dataset .load-smoke/a.geodset -addr 127.0.0.1:18080 \
		-admin-token smoke -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.load-smoke/geobench -addr http://127.0.0.1:18080 \
		-dataset .load-smoke/a.geodset -wait-ready 15s \
		-requests 4000 -workers 8 \
		-swap-after 2000 -swap-to .load-smoke/b.geodset -admin-token smoke \
		-metrics-check -strict -out .load-smoke/swap.json
	set -e; \
	./.load-smoke/geoserve -dataset .load-smoke/a.geodset -addr 127.0.0.1:18081 \
		-faults degraded -max-inflight 2 -max-queue 4 -queue-timeout 50ms \
		-log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.load-smoke/geobench -addr http://127.0.0.1:18081 \
		-dataset .load-smoke/a.geodset -wait-ready 15s \
		-requests 2000 -workers 64 \
		-expect-shed -allow-503 -max-p999-ms 5000 \
		-metrics-check -strict -out .load-smoke/overload.json
	rm -rf .load-smoke

# Replica-chaos proof of the routed fleet (DESIGN.md §3.8): geobench
# -chaos kills the HOT replica of a geoserve -router fleet (the one the
# artifact's lookups start at) through /admin/replica once a quarter of
# the requests have completed (1000 of 4000), then revives it at 55 %
# (2200). Run 1, four replicas — crash absorbed by the ring: zero
# dropped requests, zero 503s, at least one failed-over answer, and — via
# -metrics-check — the router's georouter_failovers counter moving by
# EXACTLY the sum the client saw in its response headers. Run 2, a fleet
# of one — window-confined 503s: with no other replica to ask, the outage
# is fast 503s with Retry-After from the kill to the readmission and
# nowhere else — never a hang, never a drop. geobench reads the fleet size
# from the router's /healthz and holds each run to what it implies.
chaos-smoke:
	rm -rf .chaos-smoke && mkdir -p .chaos-smoke
	$(GO) build -o .chaos-smoke/geoserve ./cmd/geoserve
	$(GO) build -o .chaos-smoke/geobench ./cmd/geobench
	./.chaos-smoke/geoserve -scale tiny -unsanitized -write .chaos-smoke/a.geodset
	set -e; \
	./.chaos-smoke/geoserve -dataset .chaos-smoke/a.geodset -addr 127.0.0.1:18090 \
		-router -replicas 4 -probe-interval 50ms \
		-admin-token smoke -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.chaos-smoke/geobench -addr http://127.0.0.1:18090 \
		-dataset .chaos-smoke/a.geodset -wait-ready 15s \
		-requests 4000 -workers 8 \
		-chaos -admin-token smoke \
		-metrics-check -strict -out .chaos-smoke/failover.json
	set -e; \
	./.chaos-smoke/geoserve -dataset .chaos-smoke/a.geodset -addr 127.0.0.1:18091 \
		-router -replicas 1 -probe-interval 50ms \
		-admin-token smoke -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.chaos-smoke/geobench -addr http://127.0.0.1:18091 \
		-dataset .chaos-smoke/a.geodset -wait-ready 15s \
		-requests 4000 -workers 8 \
		-chaos -admin-token smoke \
		-metrics-check -strict -out .chaos-smoke/degraded.json
	rm -rf .chaos-smoke

# Streaming-scale proof (DESIGN.md §3.9–3.10): external-merge compile a
# 50k /24 campaign in bounded windows into a GEODSET2 artifact, then serve
# it out of its mapping under a seeded strict geobench pass — once from a
# single node, once through -router in front of a 4-replica fleet whose
# members each map the same file, every batch forwarded whole to one of
# them — and require the two status ledgers to be identical. The bench materializes the same artifact as its
# client-side oracle, so hit/miss classification also exercises the
# decode path end to end. (The reader's two backings — mapping and heap
# bytes — are compared answer for answer by TestDifferentialOracle in
# internal/router.) Before serving, geodiff compares the artifact with
# itself: 50,000 records in both, every count of difference zero.
scale-smoke:
	rm -rf .scale-smoke && mkdir -p .scale-smoke
	$(GO) build -o .scale-smoke/exp ./cmd/experiments
	$(GO) build -o .scale-smoke/geoserve ./cmd/geoserve
	$(GO) build -o .scale-smoke/geobench ./cmd/geobench
	$(GO) build -o .scale-smoke/geodiff ./cmd/geodiff
	./.scale-smoke/exp -scale 50000 -checkpoint-dir .scale-smoke/spill \
		-artifact .scale-smoke/stream.geodset2 -q
	./.scale-smoke/geodiff .scale-smoke/stream.geodset2 .scale-smoke/stream.geodset2 \
		> .scale-smoke/self.diff
	head -8 .scale-smoke/self.diff
	grep -q '^in both      50000$$' .scale-smoke/self.diff
	awk '/^(added|dropped|  moved|  re-radiused|  method changed|  flag changed)/ && $$NF != 0 { bad = 1 } \
		END { exit bad }' .scale-smoke/self.diff
	set -e; \
	./.scale-smoke/geoserve -dataset .scale-smoke/stream.geodset2 \
		-addr 127.0.0.1:18070 -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.scale-smoke/geobench -addr http://127.0.0.1:18070 \
		-dataset .scale-smoke/stream.geodset2 -wait-ready 15s \
		-requests 3000 -workers 8 \
		-strict -out .scale-smoke/single.json
	set -e; \
	./.scale-smoke/geoserve -dataset .scale-smoke/stream.geodset2 \
		-addr 127.0.0.1:18071 -router -replicas 4 -log-level warn & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./.scale-smoke/geobench -addr http://127.0.0.1:18071 \
		-dataset .scale-smoke/stream.geodset2 -wait-ready 15s \
		-requests 3000 -workers 8 \
		-strict -out .scale-smoke/router.json
	set -e; for mode in single router; do \
		sed -n '/"statuses"/,/}/p' .scale-smoke/$$mode.json | tee .scale-smoke/$$mode.ledger; \
	done; \
	cmp .scale-smoke/single.ledger .scale-smoke/router.ledger
	rm -rf .scale-smoke

# Short coverage-guided fuzz of everything that reads bytes it did not
# write. The binary decoders: the checkpoint journal (FuzzDecoder, which
# also streams every input through OpenReader + Next and holds the Reader
# to Decode: same header, same records, the same end) and the one dataset
# artifact reader, fed arbitrary images (FuzzDataset2Decoder, which also
# holds FindBatch to Find, and both to the scanned records) and Encode's framing of arbitrary records
# (FuzzDatasetDecoder). The socket side: ipaddr.Parse against
# net/netip.ParseAddr (FuzzParse), /batch bodies against an
# encoding/json + Find reference, status and bytes (FuzzBatchBody), every
# finite float64 through the /batch number renderer against json.Marshal
# (FuzzAppendJSONFloat; FuzzParse also holds Addr.AppendText to netip), and the
# router as a client of a hostile replica: arbitrary response bytes against
# http.ReadResponse (FuzzUpstreamResponse; its seeds run to 25 KB, so
# minimizing a find is capped at 1 s instead of eating the smoke run). The
# request edge: /lookup query reading (FuzzQueryIP) and the X-Request-Id /
# traceparent adoption that reaches logs and headers (FuzzRequestID). The
# scrape edge: /metrics documents read by geobench and the benchmark, and
# every legal metric name rendered by telemetry and read back
# (FuzzParseExposition). The street-level sweep's reverse geocoder takes
# any float64 pair: a city and zone of the world, or ok=false, never a
# panic (FuzzReverseGeocode). Their seed corpora also run as plain tests
# in `make test`.
fuzz-smoke:
	$(GO) test -fuzz FuzzDecoder -fuzztime 10s -run '^$$' ./internal/checkpoint
	$(GO) test -fuzz FuzzDataset2Decoder -fuzztime 20s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzDatasetDecoder -fuzztime 10s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzParse -fuzztime 10s -run '^$$' ./internal/ipaddr
	$(GO) test -fuzz FuzzBatchBody -fuzztime 10s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzAppendJSONFloat -fuzztime 10s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzUpstreamResponse -fuzztime 10s -fuzzminimizetime 1s -run '^$$' ./internal/router
	$(GO) test -fuzz FuzzQueryIP -fuzztime 10s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzRequestID -fuzztime 10s -run '^$$' ./internal/obs
	$(GO) test -fuzz FuzzParseExposition -fuzztime 10s -run '^$$' ./internal/obs
	$(GO) test -fuzz FuzzReverseGeocode -fuzztime 10s -run '^$$' ./internal/mapping

ci: vet build race
