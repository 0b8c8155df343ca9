GO ?= go

.PHONY: ci vet cross build test race race-pipeline fault-soak adapt-soak ingest-soak fuzz-smoke perfbench-check bench bench-json bench-gate golden cover

# ci is the full gate: static checks (including a vet and test-binary
# build of the non-amd64 code), build, the test suite, a short
# fuzz smoke over every fuzz target, the race-enabled pass over the
# concurrent pipeline (the packages where races can actually live),
# the deterministic chaos soak, the adaptive-link chaos soak (the
# closed-loop controller must beat every surviving fixed operating
# point and regain the top rung on budget), a single-iteration pass
# over the ProcessFrame and Capture benchmarks (so the
# telemetry-overhead path and the camera's per-profile capture path
# compile and run), the perfbench module's vet and self-tests, and
# the benchmark trajectory gate against the
# committed bench/BENCH_*.json baseline. Budget: ~10 minutes on a
# laptop (adapt-soak simulates 32 multi-second sessions and dominates).
# The full-suite race run stays available as `make race` but is too
# slow for the default gate.
ci: vet cross build test fuzz-smoke race-pipeline fault-soak adapt-soak ingest-soak perfbench-check bench bench-gate

vet:
	$(GO) vet ./...

# cross vets the tree and compiles the modem's tests for arm64, the
# only way the !amd64 files (the portable sumPix12 route) get built on
# an amd64 host. The toolchain cross-compiles pure Go offline.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/modem/

build:
	$(GO) build ./...

# test shuffles both test and subtest execution order so hidden
# inter-test state dependencies surface in CI instead of in a
# developer's unlucky local run. Reproduce a shuffle failure with
# `go test -shuffle=<seed printed in the failing log>`.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# race-pipeline runs the concurrency-heavy packages under the race
# detector: the worker-pool pipeline and the modem whose Analyze path
# the workers share. The root-package facade tests also pass -race but
# their multi-second end-to-end captures blow the ci budget; run
# `make race` for the exhaustive version.
race-pipeline:
	$(GO) test -race -count=1 ./internal/pipeline/ ./internal/modem/

# fault-soak runs the deterministic chaos soak: first the
# concurrency-focused subset under the race detector (a sustained
# blackout through the resync/recalibration machinery, and the
# pipeline-vs-serial decode-digest equivalence with goroutine-leak and
# heap checks), then the per-fault-class LinkHealth matrix without
# -race (every class must dip the health score and recover within the
# 60-frame budget; on failure it prints the per-class health table).
# The full per-class recovery matrix also runs (without -race) as part
# of the ordinary test suite.
fault-soak:
	$(GO) test -race -count=1 -run 'TestSoakResyncPath|TestSoakPipelineMatchesSerial|TestSoakNoFalseAlarms' ./internal/fault/...
	$(GO) test -count=1 -run TestSoakHealthPerClass ./internal/fault/soak/

# adapt-soak runs the adaptive-link chaos gate (internal/fault/soak
# adapt_test.go): for every fault class in the chaos table, the
# closed-loop link-adaptation session must deliver at least 2x the
# goodput of the best fixed configuration that survived the burst,
# regain the top ladder rung within the 90-frame recovery budget, and
# reproduce byte-identically under a fixed seed. The long test ride is
# real simulation time (each class runs one adaptive plus three
# fixed-rung 14-second sessions).
adapt-soak:
	$(GO) test -count=1 -run TestAdaptSoak -v ./internal/fault/soak/

# ingest-soak runs the multi-tenant ingest service's concurrency gate
# under the race detector: the reconnecting-fleet soak (every session's
# wire block stream must digest-equal a serial re-decode of exactly the
# admitted frames, second-round sessions must ride the calibration
# cache, and Close must leave no goroutines behind), the shedding
# paths, and the loadgen fleet harness with full verification.
ingest-soak:
	$(GO) test -race -count=1 -run 'TestIngestSoak|TestServer|TestLoadgen' ./internal/ingest/...

# fuzz-smoke gives each fuzz target a few seconds of coverage-guided
# input generation on top of the checked-in seed corpus. Panics found
# here reproduce with `go test -run=Fuzz<Name>/<file>`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDeframe$$' -fuzztime=5s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzRSDecode$$' -fuzztime=5s ./internal/rs/
	$(GO) test -run='^$$' -fuzz='^FuzzStripSegment$$' -fuzztime=5s ./internal/modem/
	$(GO) test -run='^$$' -fuzz='^FuzzFrontEndDifferential$$' -fuzztime=5s ./internal/modem/
	$(GO) test -run='^$$' -fuzz='^FuzzCalibrationTLV$$' -fuzztime=5s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzCalSnapshot$$' -fuzztime=5s ./internal/packet/

# perfbench-check vets and self-tests the nested perfbench module (the
# repo benchmark, BENCHMARK.json). The root `go build ./...` skips
# nested modules, yet perfbench imports metrics, modem, camera, fault
# and linkstats, so without this a refactor that breaks it would fail
# only at benchmark time. It runs in perfbench/run.sh's offline
# environment: no module downloads, no toolchain switch.
perfbench-check:
	cd perfbench && export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off && \
		$(GO) vet . && $(GO) test -count=1 .

# golden regenerates the committed golden-frame digests under
# internal/modem/testdata/golden/ from the scenario definitions in
# golden_test.go. Run after an intentional decode-behavior change,
# then review the digest diff like any other code change — an
# unexpected digest flip is a decode regression, not noise.
golden:
	$(GO) test -run='^TestGoldenCorpus$$' -count=1 ./internal/modem/ -args -update

# cover enforces a statement-coverage floor on the packages the
# decode hot path lives in: the modem, the colorspace kernels, the
# constellation designs, and the online equalizer the classify path
# now runs through. The floor is deliberately below the current
# numbers (modem 94.6%, colorspace 97.7% at introduction) — it exists
# to catch a future fast-path branch (new kernel, new LUT, new
# correction stage) landing without tests, not to chase a percentage.
cover:
	@$(GO) test -count=1 -coverprofile=/tmp/colorbars-cover.out ./internal/modem/ ./internal/colorspace/ ./internal/equalize/ ./internal/csk/
	@$(GO) tool cover -func=/tmp/colorbars-cover.out | tail -1
	@total=$$($(GO) tool cover -func=/tmp/colorbars-cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=90; \
	ok=$$(awk -v t=$$total -v f=$$floor 'BEGIN{print (t>=f)?1:0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% below floor $$floor% (modem+colorspace)"; exit 1; \
	fi

bench:
	$(GO) test -run=- -bench='BenchmarkProcessFrame|BenchmarkCapture' -benchtime=1x ./...

# bench-json measures every benchmark trajectory cell (decode
# ns/frame, allocs/op, SER and goodput per operating point, the
# adaptive and dense ladders' goodput under chaos, the ingest
# service's p99 at saturation, plus never-gated context such as B/op
# and shed rate) and writes a host-stamped point
# bench/BENCH_<today>.json. Commit the file to extend the trajectory.
bench-json:
	$(GO) run ./cmd/colorbars-bench -exp perf -duration 1 -bench-out bench

# bench-gate fails (exit 1) when any gated metric moves more than 10%
# in its declared bad direction (plus its declared absolute slack)
# against the newest bench/BENCH_*.json recorded on this host, or when
# a baseline metric is missing. With no point for this host it fails
# and names the host: run bench-json there first. The gate's own
# self-test is TestGateSelfTest in cmd/colorbars-bench.
bench-gate:
	$(GO) run ./cmd/colorbars-bench -exp perf -duration 1 -bench-gate bench
