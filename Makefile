# Build/test entry points. `make ci` is the tier-1 gate: vet + tests +
# the race detector over every package (stress tests in internal/vfs and
# internal/core run concurrent walks against rename/chmod/Shrink, and
# probes of both instantiations of the shared hash table against its
# doublings, under the detector; internal/telemetry races recording
# against export, internal/coherence races eight publishers against a
# reader, internal/ninep runs its reader, resident workers and clients
# together).

GO ?= go

.PHONY: all help build check vet race audit ci stress bench bench-parallel bench-hotpath bench-test memscale-smoke serve-smoke shard-smoke fuzz-smoke dcbench loc

all: ci

help:
	@echo "targets:"
	@echo "  ci             tier-1 gate: vet + check + bench-test + race + audit + the smokes, then loc (run before every push)"
	@echo "  check          go build + go test ./..."
	@echo "  bench-test     tests of the nested benchmark/ module, which go test ./... does not reach"
	@echo "  vet            go vet ./... and gofmt -l . (fails on any unformatted file)"
	@echo "  race           race-detector pass over every package"
	@echo "  audit          invariant-auditor tests (concurrent + injected-bug) under -race"
	@echo "  stress         longer -race soak of the stress tests, the revocation table and the prefix re-check's phase tests, then the audit storms x20 and internal/bench x5, all beside one busy spinner per CPU"
	@echo "  bench          root benchmarks (includes BenchmarkParallelWalk)"
	@echo "  bench-parallel lookup-scalability curve at 1/2/4/8 goroutines"
	@echo "  bench-hotpath  warm Stat at depth 1/4/8/16, chmod over 1/10/100/1000 published descendants and ShrinkCache(256) per victim on 1k/4k/64k cached dentries, baseline vs optimized, and the fastpath's stages apart, with -benchmem (the DESIGN 5h budget, Fig 7's chmod curve, 5c's eviction cost)"
	@echo "  memscale-smoke slab gate: warm walks and population at 0 allocs/op (AllocsPerRun tests + BenchmarkParallelWalk -benchmem), chmod + stat behind its range mark at <= 1 with no slow walk, a rename round trip + stat below it at the round trip's allocations with no slow walk, BenchmarkChmodSubtree at 1 alloc/op, a create-only evicting build uses no more dentry slots than capacity and a quarter, a chmod-only loop removes no DLHT entry, a System with 1000 files holds <= 1.5 MB of tables, prefix memo and arenas, and the compiler keeps the fastpath's cursor on the stack with no allocated defer"
	@echo "  serve-smoke    boot dcserve on loopback: 9P client round trips + end-to-end trace stitching on /slow"
	@echo "  fuzz-smoke     10 s each of FuzzUnmarshal over the 9P decoder (no panic, a truncated Rwalk errno or Twalk clunk list is an error, so is an Rread with more than its eof byte after its data, decode/re-marshal/decode is stable), FuzzFrameReader over the frame splitter (random short reads, same frames as the reference, runt and over-msize frames are errors), FuzzPrefixMemo over the fastpath's scan (cold and warm prefix memo both hash the canonical path), FuzzRingLog over the one drop-oldest ring (against a slice model) and FuzzTable over the intrusive hash table (no cycle, every chain filed right, answers like a map)"
	@echo "  shard-smoke    sharded tier under -race: 4 in-process shards + 2-shard over-the-wire (route, rename storm, converge, audit clean), the peer-apply table and chmod storm, pipelined dispatch, version negotiation and the coherence-log subscription (lazy start, baseline server); then the tier's three benchmarks once each"
	@echo "  dcbench        print every paper table and figure at small scale (numbers kept over time: bash benchmark/run.sh)"
	@echo "  loc            the two line counts ROADMAP tracks (non-test Go: core+vfs, and everything outside benchmark/)"
	@echo "metric catalog: testdata/metric_catalog.txt lists every series /metrics exports (TestMetricCatalog, part of check);"
	@echo "  after a deliberate change to the series, regenerate it with: $(GO) test -run TestMetricCatalog -update ."

build:
	$(GO) build ./...

check: build
	$(GO) test ./...

# benchmark/ is a module of its own (it imports dircache/internal/...
# through a replace directive), so `go test ./...` above does not reach
# it; this compiles it against the current API and runs its tests.
bench-test:
	cd benchmark && $(GO) test ./...

# vet fails on unformatted Go as well as on vet's findings.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The invariant auditor under fire: the concurrent audit stress tests and
# the injected-bug detection test, all under the race detector.
audit:
	$(GO) test -run 'Audit|Invariant' -race ./...

# The tier-1 gate, folded into one target. Nothing in it compares a
# wall-clock number against a committed one. It ends by printing the two
# line counts ROADMAP tracks, so every CI log carries them.
ci: vet check bench-test race audit serve-smoke shard-smoke memscale-smoke fuzz-smoke loc

# Longer soak of just the stress tests (several runs, full iteration
# count), with the differential revocation table and the prefix re-check's
# deterministic phase tests beside the storm that races the same paths,
# then the auditor's storms twenty times over, then internal/bench's
# counted-work tests (its coherence storm among them) five times. All of
# it runs while one busy `yes` per CPU competes for the processors: the
# storms' races need a goroutine descheduled in the middle of an
# operation, which spinners make happen in seconds and an idle host
# hardly ever. Not part of ci.
stress:
	@spin=; for i in $$(seq $$(nproc)); do yes > /dev/null & spin="$$spin $$!"; done; \
	trap 'kill $$spin' EXIT; \
	$(GO) test -race -run 'Stress|TestRevocationThroughRangeMark|TestRecheck' -count=3 ./internal/vfs/... ./internal/core/... && \
	$(GO) test -run 'TestAuditInvariant' -count=20 ./internal/vfs/... ./internal/core/... && \
	$(GO) test -count=5 ./internal/bench

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The lookup-scalability curve: warm-path walks at 1/2/4/8 goroutines.
bench-parallel:
	$(GO) test -run '^$$' -bench BenchmarkParallelWalk -count 3 .

# The depth sweep: one warm Stat at 1/4/8/16 components through the
# baseline component walk and the whole-path fastpath, then the fastpath's
# stages timed apart (DESIGN §5h is read off these two) — and Figure 7's
# chmod curve, flat since permission changes take the range shootdown —
# and what one eviction costs as the cache grows, flat since the shrinker
# is a clock hand over the slab (-short leaves out BenchmarkShrink's
# 1 M-dentry row, which needs about a gigabyte; run it without to see it).
bench-hotpath:
	$(GO) test -run '^$$' -bench 'BenchmarkStatDepth|BenchmarkChmodSubtree' -benchmem -count 3 .
	$(GO) test -short -run '^$$' -bench BenchmarkShrink -benchmem -count 3 .
	$(GO) test -run '^$$' -bench BenchmarkFastpathStages -benchmem -count 3 ./internal/core

# The slab gate: dentries (with the fastpath's per-dentry state embedded,
# and both hash tables' chains threaded through them) live in one slab
# arena, so a warm fastpath walk must not allocate —
# testing.AllocsPerRun asserts exactly 0, and the parallel walk benchmark
# must report 0 allocs/op (awk gates the -benchmem column so a regression
# fails the target, not just prints a number) — and evicted slots must
# come back: 9600 creates into a 4096-dentry cache reclaim as they go and
# never use more dentry slots than the capacity and a quarter, and a loop
# of nothing but chmod/chown/setlabel of one directory removes no DLHT
# entry at all (a permission change keeps the table entries). What a System holds
# follows what it caches: an optimized one with 1000 files accounts for at
# most 1.5 MB of hash table, prefix memo and arena bytes
# (TestFreshSystemFootprint). A warm walk whose prefix comes from the
# prefix memo allocates nothing either, one deeper than the cursor's
# inline stack included.
# Population of a path
# the inline cursor holds allocates nothing either, nor does publishing a
# dentry's own state, so a chmod and the first stat behind its range mark
# allocate 1 between them (SetAttr's *Mode, the cache-less kernel's too)
# and never slow-walk, and a rename of a directory away and back then a
# stat below it allocates no more than the two renames alone and never
# slow-walks either (the entry re-derives its key and stays);
# BenchmarkChmodSubtree runs once per row so that pin
# holds at every subtree size, baseline and optimized. The last step reads
# the compiler's own verdict: in the fastpath's files (the scan, the
# cursor, the prefix memo, population, the PCC probe) a defer must be
# open-coded (TryFast once paid for a stack-allocated one) and nothing may
# move to the heap (a cursor that escapes costs an allocation per walk
# that no test of a warm path would otherwise name).
memscale-smoke:
	$(GO) test -run 'TestWarmWalkZeroAlloc|TestChmodThenStatAllocs|TestRenameRoundTripThenStat|TestEvictingCreatesReclaimSlab|TestChmodLoopKeepsDLHTEntries|TestFreshSystemFootprint' -count=1 .
	$(GO) test -run 'TestLexicalHashZeroAlloc' -count=1 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkParallelWalk/optimized/goroutines-1$$' -benchtime 2000x -benchmem . | \
		tee -a /dev/stderr | awk '/allocs\/op/ { if ($$(NF-1)+0 != 0) bad=1 } END { exit bad }'
	$(GO) test -run '^$$' -bench 'BenchmarkChmodSubtree' -benchtime=1x -benchmem . | \
		tee -a /dev/stderr | awk '/allocs\/op/ { n++; if ($$(NF-1)+0 > 1) bad=1 } END { exit bad || n != 8 }'
	@if $(GO) build -gcflags='-m -d=defer' ./internal/core 2>&1 | \
		grep -E '/(tryfast|cursor|prefixmemo|populate|pcc)\.go:.*(-allocated defer|moved to heap)'; then \
		echo 'memscale-smoke: the fastpath has an allocated defer or a heap-moved local (above)'; exit 1; fi

# 9P server smoke: boot dcserve on an ephemeral loopback port, run the
# in-repo client through attach/walk/stat/readdir/read round trips under
# two principals, assert a clean drain on shutdown — and the tracing
# acceptance: a cold 14-component wire walk stitches into ONE
# client+server trace and a warm sibling walk stitches the same way with
# a dlht_hit on its server span, both readable off /slow and
# /metrics.json.
serve-smoke:
	$(GO) test -run 'TestServeSmoke|TestServeTraceSmoke' -count=1 ./cmd/dcserve

# Sharded-tier smoke under the race detector: the whole internal/shard
# suite — ring placement properties, the 4-shard in-process tier
# (routing, rename storms, converge, injected-bug detection, racing
# rename-vs-walk), and the 2-shard over-the-wire tier (9P2000.dc journal
# subscription + Tshoot fallback), the differential table of what a peer
# does per record note and the walkers-vs-remote-chmod storm — plus the
# coherence log they all read, the ring under it, and the ninep tests the
# journal stream rides on: pipelined dispatch, version negotiation, and
# the subscription that starts a server's log. The last two
# lines run the benchmarks DESIGN §6 and §8 quote for one iteration each,
# so they keep compiling and running; nothing reads their numbers here.
shard-smoke:
	$(GO) test -race -count=1 ./internal/ringlog/ ./internal/coherence/ ./internal/shard/
	$(GO) test -race -run 'TestPipeline|TestJournal|TestCoherenceLog|TestVersionNegotiation' -count=1 ./internal/ninep/
	$(GO) test -run '^$$' -bench 'BenchmarkRouterStat|BenchmarkPeerApplyPerm' -benchtime=1x ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkJournalEmit' -benchtime=1x ./internal/telemetry/

# Ten seconds each of coverage-guided fuzzing beyond the seed corpus `go
# test` replays (frameStream's frames, its Twalk clunk lists cut short, and
# the truncated Rwalk trailers and the over-long Rread trailer under
# internal/ninep/testdata/fuzz). The decoder: no input panics, an errno[4]
# trailer or a clunk list cut short is an error, so is an Rread with more
# than its eof[1] after its data, and whatever decodes re-marshals to a
# frame that decodes the same. The frame reader, fed arbitrary bytes in random short reads:
# no panic, the frames the reference splitter finds, and an error for a
# runt or over-msize size[4]. The fastpath's scan, fed arbitrary paths
# from working directories of four depths: cold and warm prefix memo
# alike, it hashes the lexically canonical path, and a prefix learned from
# one start serves another of the same length. The one drop-oldest ring,
# fed random appends and cursors: Since, Pending, Retained and Counts say
# what a plain slice of every append says. The intrusive hash table of
# either kind, fed random inserts, removes, kills, re-publishes and
# doublings: every chain ends (no cycle), reaches only linked entries
# filed under its bucket, and the table answers like a map model. A
# failing input lands in
# the package's testdata directory, where every later `go test` replays
# it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 10s ./internal/ninep
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s ./internal/ninep
	$(GO) test -run '^$$' -fuzz '^FuzzPrefixMemo$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRingLog$$' -fuzztime 10s ./internal/ringlog
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 10s ./internal/vfs

# Every paper table and figure, printed. Numbers kept over time come
# from benchmark/ (bash benchmark/run.sh), not from this target.
dcbench:
	$(GO) run ./cmd/dcbench -scale small

# The two counts ROADMAP tracks, computed one way: lines of
# non-test Go under internal/core + internal/vfs, and lines of non-test
# Go outside benchmark/ (and its build directory).
loc:
	@printf 'internal/core + internal/vfs, non-test Go lines: '; \
		find internal/core internal/vfs -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'outside benchmark/, non-test Go lines:           '; \
		find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l
