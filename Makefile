GO ?= go

.PHONY: check gate-names fmt vet build test race fuzz stress staticcheck metrics-lint trace-smoke alloc-gates benchmark-smoke obs-smoke paper reorg-smoke ingest-smoke chaos chaos-long

# check is the tier-1 verification gate (see ROADMAP.md): the gate-name
# lint (every test a target below names exists), formatting,
# static analysis, a full build, the metrics-name lint, the tracing
# smoke, the allocation gates, the obs and ingest smokes, the
# deterministic chaos suite, the benchmark module's vet and smoke test, and
# the test suite under the race detector.
# Fuzz seed corpora run as ordinary tests. staticcheck runs when the
# binary is installed and is skipped (with a notice) otherwise, so check
# works on machines without network access.
check: gate-names fmt vet staticcheck build metrics-lint trace-smoke alloc-gates obs-smoke ingest-smoke chaos benchmark-smoke race

# gate-names resolves every alternative of every -run '...' pattern (and
# every -fuzz= target) in this file against `go test -list` of that line's
# packages and fails when one matches nothing: a gate whose test was renamed
# or moved would otherwise print "no tests to run" and pass.
gate-names:
	GATE_NAMES=1 $(GO) test -count=1 -run 'TestMakefileGateNames' .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short bounded fuzz sessions over the catalog round-trip property, the
# column decoder's decimal fast path (bit-identical to strconv.ParseFloat),
# the row codec without and with a row dictionary (lossless, shape-sized,
# column-for-column and sum-for-sum equal to the dictionary-free decoder),
# frameless packed cells under a row template (lossless, and row-for-row
# and sum-for-sum equal to the same rows framed behind the marker, to the
# bit), the exact sum (equal to a math/big oracle in any order) and the
# cell check (never panics on any bytes, and a cell it accepts has the rows
# CellRows, DecodeCell and Sum find). The codec lives in internal/rowcodec;
# the first five drive it through its exported functions from
# cmd/snakestore, beside its caller. Their seed corpora run
# as ordinary tests in `make check`. Minimizing a new interesting input is
# bounded to 1s, so a 10s run spends its time exploring.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzCatalogRoundTrip -fuzztime=10s -fuzzminimizetime=1s ./cmd/snakestore
	$(GO) test -run=^$$ -fuzz=FuzzParseDecimal -fuzztime=10s -fuzzminimizetime=1s ./cmd/snakestore
	$(GO) test -run=^$$ -fuzz=FuzzRowCodec$$ -fuzztime=10s -fuzzminimizetime=1s ./cmd/snakestore
	$(GO) test -run=^$$ -fuzz=FuzzRowCodecDict -fuzztime=10s -fuzzminimizetime=1s ./cmd/snakestore
	$(GO) test -run=^$$ -fuzz=FuzzRowCodecPacked -fuzztime=10s -fuzzminimizetime=1s ./cmd/snakestore
	$(GO) test -run=^$$ -fuzz=FuzzExactSum -fuzztime=10s -fuzzminimizetime=1s ./internal/rowcodec
	$(GO) test -run=^$$ -fuzz=FuzzCellCheck -fuzztime=10s -fuzzminimizetime=1s ./internal/rowcodec

# stress re-runs the concurrency suite under the race detector several
# times: the serving stress test (goroutines + faults + cancellation +
# graceful shutdown), the pool coalescing tests, cancellable migration,
# the serve daemon's drain test, and the adaptive-reorg swap tests.
# -count=3 defeats test caching and varies goroutine schedules.
stress:
	$(GO) test -race -count=3 -run 'TestConcurrent|TestBufferPool|TestClose|TestMigrate|TestAdmission|TestServe|TestReorganizer|TestController' ./internal/storage ./internal/adaptive ./cmd/snakestore .

# metrics-lint checks the daemon's metric names against the obs
# conventions (unique series, snake_case, snakestore_ prefix, counters
# end in _total) by scraping the real serving registry, and that the
# trace-derived families are declared with their documented types.
metrics-lint:
	$(GO) test -run 'TestMetricsLint|TestMetricsTraceFamilies|TestRegistryNameValidation' ./cmd/snakestore ./internal/obs

# trace-smoke drives the slow-query forensics path end to end under the
# race detector: a fault-injected store plus retry backoff manufacture a
# genuinely slow query, which must be retained in /debug/traces with its
# span tree, echoed as traceId, logged as slow-query, and counted in the
# trace metrics — plus the always-retain-slow and panic-recovery gates, a
# cold read whose fragment spans and span-window page loads add up to the
# tally and the analytic model, and the untraced pool read at 0 allocs.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestServeTraceSmoke|TestServeSlowAlwaysRetained|TestServePanicRecovery|TestColdQueryFragmentSpansMatchTallyAndAnalytic|TestUntracedReadPathZeroAlloc' ./cmd/snakestore ./internal/storage

# alloc-gates pins the read pipeline's allocation counts: the run body (at
# window 1 and wider) and the untraced pool read allocate nothing, a warm
# read + sum allocates the same small constant for one cell as for a
# multi-run region,
# the row codec allocates nothing to read a column, size a row or encode
# one into a warm buffer — under a row dictionary too, where summing a
# coded column allocates nothing either — and /query's record kernel and the exact sum's
# integer legs allocate nothing — and the memory model: a miss on a full
# pool allocates nothing (get and getSpan), touching frames does not grow
# the Go heap by their size, and an open store keeps 24 bytes a cell. Run
# without the race detector, under which sync.Pool drops entries at random.
alloc-gates:
	$(GO) test -count=1 -run 'TestWarmReadAllocatesPerRequestOnly|TestSumRunKernelZeroAlloc|TestUntracedReadPathZeroAlloc|TestPayloadColumn|TestRowCodecAllocs|TestRowCodecDictAllocs|TestSumKernelZeroAlloc|TestSumKernelCountsPackedRows|TestSumAllocs|TestPoolRecyclesFrames|TestPoolFramesOffHeap|TestOpenFileStoreBytesPerCell' ./internal/storage ./cmd/snakestore ./internal/rowcodec

# benchmark-smoke keeps the measuring stick compiling: benchmark/ is its own
# module, which `go build ./...` and `go test ./...` above never see, so
# vet it and run its smoke test (five workloads against the real daemon,
# the prefix-sum oracle, the count pass, registry/BENCHMARK.json drift).
benchmark-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -count=1 ./...

# obs-smoke drives the wide-event / calibration / SLO stack end to end
# under the race detector: the /debug/events ring with field filters and
# exact cold calibration ratios, deterministic burn-rate transitions on
# an injected clock, ingest/repair event and trace coverage, and drift
# flagged under an overlay then cleared by compaction.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestServeWideEventsAndCalibration|TestServeSLOBurnRateTransitions|TestServeIngestRepairObservability|TestServeCalibrationDriftAndCompaction' ./cmd/snakestore

# paper regenerates the two archived paper reproductions at the repo root:
# every table and figure on the paper's full warehouse, and Table 4 over
# all 27 Section-6.2 workloads. Both are deterministic in the default seed,
# so on an unchanged tree the files come back byte for byte; each lands by
# rename, so a failed run leaves the archive as it was. Not part of check:
# it takes about 40 s.
paper:
	$(GO) run ./cmd/snakebench -full > full_results.txt.tmp
	mv full_results.txt.tmp full_results.txt
	$(GO) run ./cmd/snakebench -full -all27 -tables 4 -figures=false > full_table4_all27.txt.tmp
	mv full_table4_all27.txt.tmp full_table4_all27.txt

# chaos runs the deterministic self-healing suite under the race
# detector: seeded fault schedules against parity repair, the live serve
# loop with the maintainer's scrub, repair-under-migration, the scrub walk
# and its windows (TestVerify*, TestScrub*), the maintainer's budget
# (TestMaintainer*), and the storm / crash-point storage tests. Every schedule
# is a pure function of its seed, so a failure replays exactly.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestParity|TestRepair|TestVerify|TestScrub|TestMaintainer|TestMigrate|TestStorm|TestCrashPoint|TestPlan|TestSchedule' ./internal/chaos ./internal/storage ./cmd/snakestore

# chaos-long is the randomized long-haul variant: fresh seeds each run,
# logged (go test -v) so any failure can be replayed deterministically.
chaos-long:
	CHAOS_LONG=1 $(GO) test -race -count=1 -v -run 'TestChaosLong' ./cmd/snakestore

# ingest-smoke drives the daemon's write path end to end under the race
# detector: POST /ingest merge-on-read with delta attribution, validation
# and backlog shedding, the kill-subprocess crash matrix (mid-append,
# mid-compaction, post-catalog-commit), a reorganization carrying pending
# deltas into the new generation, and the encoded-row differential (same-shape
# rewrites fit; every sum is the exactly rounded decimal total, to the bit).
ingest-smoke:
	$(GO) test -race -count=1 -run 'TestIngest|TestCrashPointIngestMatrix|TestReorgCarriesDeltas|TestEncodedRowsEndToEnd' ./cmd/snakestore

# reorg-smoke exercises the daemon's zero-downtime reorganization path
# once under the race detector: automatic trigger, hot swap under load,
# crash recovery, and the failure/cancellation paths.
reorg-smoke:
	$(GO) test -race -count=1 -run 'TestServeAdaptive|TestServeReorg|TestMaintainerPacesMigration|TestMaintainerCopiesWholeGrant' ./cmd/snakestore

# staticcheck is optional tooling: run it when installed, skip quietly
# when not (the container has no network to fetch it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
