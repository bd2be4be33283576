GO ?= go

.PHONY: verify race torture fuzz fuzz-restore fuzz-bulkload fuzz-masks fuzz-page bench backup docslint server

# The standard verification gate: static checks, build, full test suite
# (including the runnable godoc examples), the documentation lint (every
# ```go fence in README.md/DESIGN.md must still compile or parse), and
# the concurrency stress subset under the race detector (the full -race
# run stays in the dedicated `race` target). The race smoke subset
# covers the reader/writer stress tests (TestConcurrent* in
# internal/storage: readers sharing a FileStore's write set and file
# with a writer that frees, rewrites and Syncs, and borrowed reads,
# LendNode decoding in a pooled slot buffer, beside a writer that
# rewrites and Syncs), the group-commit/batch write path
# (TestGroupCommit* in internal/wal: concurrent Enqueue/Wait/Drain on one
# log, where each flush writes everything pending and the first waiter
# during a flush leads the next; TestConcurrentBatch* in
# internal/bvtree), the instrumentation path (TestConcurrentMetrics),
# the histogram core (TestConcurrentHistogram in internal/obs), the
# range-walk differentials (TestParallelRange* in internal/bvtree),
# the MVCC snapshot/backup differential tests (TestSnapshot* in
# internal/bvtree, whose paged arms with 8 cached nodes write dirty
# nodes back beside pinned readers), the columnar node-layout smoke
# (TestColumnar* in internal/bvtree: concurrent lookups, range walks and
# nearest searches scanning columns against a writer editing them; TestColumnEdit*: pinned lookups, retaining
# range visits and nearest searches beside a writer whose in-place column
# edits split pages and nodes), the logged tree's commit and
# checkpoint (TestDurable* and TestAutoCheckpoint* in internal/bvtree: the
# tree lock is also the WAL order lock, so a checkpoint, run by the writer
# whose commit filled the log, drains the log and writes back
# under it while readers wait), and the sharded
# service (TestShard* in internal/shard: the N-shard-vs-single-tree
# differential programs, the serial delivery's error and early-stop
# tests, the truncated and poisoned-shard wire tests, the multi-client
# wire-server stress, one goroutine per connection and a
# Close beside a client that stopped reading; FuzzFrame's seed streams
# through one connection's reused buffers; TestDecomposeRect* in
# internal/zorder: the in-place shard-selection walk), and the decoded
# cache's policy (TestViewAdmission*: a pinned view's admission beside a
# writer that saves, writes back and evicts the same page;
# TestCacheDeterministic: one program, one store-operation sequence;
# TestDecodedNodesMeetWriters: pinned lookups, retaining range visits and
# nearest searches over pages decoded straight into columns, beside a
# writer that takes those pages and edits them; TestConcurrentColdLookup:
# Lookups on a reopened tree with an 8-node cache, which scan a data page
# that missed for the first time in pooled scratch and admit one that
# missed recently, beside a writer that inserts into and deletes from the
# same pages — named on its own, though TestConcurrent matches it, so
# that docslint fails if it is renamed away; TestConcurrentPooledViews,
# named for the same reason: range, count and nearest reads pinning
# through pooled views on an 8-node cache, beside a writer that deletes
# and reinserts under their pins and a goroutine taking and releasing
# Snapshots).
# The docslint run covers README.md,
# DESIGN.md, PROTOCOL.md and EXPERIMENTS.md, including the annotated
# hex frame dumps, and fails when an alternative of the -race -run
# pattern below matches no Test or Fuzz function in the packages it
# names (go test passes silently over one that matches nothing), or
# when README.md or DESIGN.md cites a Test or Fuzz name that no test
# file declares. benchmark/ is a module of its own (`replace bvtree =>
# ../`), which `go test ./...` at the root silently skips, so its tests
# run as a separate step: they hold the harness's own checks that a
# Lookup on point-hot and point-cold touches exactly height+1 nodes. It
# is vetted first, so that a PR which may not edit benchmark/ cannot
# delete an option or change a signature the harness uses: of
# internal/bvtree, the deprecated NewPaged, OpenPaged, NewDurableLog and
# OpenDurableLog, DurableTree's Tree field, its InsertBatch and
# Checkpoint, the GroupStats and Close it gets from Tree, and
# Options.RangeWorkers. internal/bvtree's benchsurface_test.go names each
# of these with its signature, so the root build fails first.
# The system benchmarks of bench_test.go (instrumentation on/off,
# durable write disciplines, inserts under a backup, mixed parallel
# reads, the profilable replica of point-cold, and the range walk on
# cached and cold trees), the per-page decode of a cache miss
# (BenchmarkDecodePublished, in internal/bvtree because it calls the
# miss path directly) and the router's cross-shard queries
# (BenchmarkRouterFanout, in internal/shard) are recorded nowhere and run
# on demand, so the last steps run each once to keep them compiling and
# passing.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) run ./cmd/docslint
	$(GO) test -race -run 'TestConcurrent|TestGroupCommit|TestParallelRange|TestSnapshot|TestColumnar|TestDurable|TestAutoCheckpoint|TestShard|FuzzFrame|TestDecomposeRect|TestViewAdmission|TestCacheDeterministic|TestDecodedNodesMeetWriters|TestColumnEdit|TestConcurrentColdLookup|TestConcurrentPooledViews' ./internal/bvtree ./internal/storage ./internal/wal ./internal/obs ./internal/shard ./internal/zorder
	$(GO) test -run '^$$' -bench 'Instrumented|DurableInsert|UnderBackup|MixedRead|ColdLookup|RangeDrive' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'DecodePublished|RouterFanout' -benchtime 1x ./internal/bvtree ./internal/shard

# Full suite under the race detector, including the reader/writer stress
# tests (TestConcurrent*) added with the parallel read path.
race:
	$(GO) test -race ./...

# The crash-safety torture harness on its own, verbosely: sweeps injected
# crashes and bit-flips across every file operation of a scripted
# insert/delete/checkpoint workload (internal/fault + internal/bvtree),
# of a store's creation and Sync (internal/storage), and of a server's
# first start: its plan, each shard's store, log and tree, and a few
# inserts (TestServerFirstStartCrash in ./cmd/bvserver).
torture:
	$(GO) test -run 'TestTorture|TestCrash|TestSyncCrashSweep|TestBulkLoadCrash|TestBatchCrash|TestRejectedWrite|TestServerFirstStartCrash' -v ./internal/bvtree ./internal/storage ./cmd/bvserver

# Coverage-guided fuzzing of WAL recovery.
fuzz:
	$(GO) test -fuzz=FuzzReplay -fuzztime=30s -fuzzminimizetime=5s ./internal/wal

# Coverage-guided fuzzing of backup-stream restore: arbitrary bytes must
# either restore to a tree passing the full invariant check or fail with
# ErrCorrupt — never panic, never yield a silently short tree.
fuzz-restore:
	$(GO) test -run '^$$' -fuzz=FuzzRestore -fuzztime=30s -fuzzminimizetime=5s ./internal/bvtree

# Every Go benchmark, on demand: the paper's figures (BenchmarkFig*,
# BenchmarkCmp*), the per-operation micro-benchmarks and the system
# benchmarks. For one of those add -cpu 1,2,4,8 and compare -count 10
# runs with benchstat; EXPERIMENTS.md has the recipes. The gated
# end-to-end benchmark is `bash benchmark/run.sh` (BENCHMARK.json).
bench:
	$(GO) test -bench . -benchmem ./...

# Online backup and point-in-time restore, exercised end to end: the
# snapshot differential tests, the backup/restore round-trip and
# crash-matrix sweeps, the PITR tests, and TestOpen, whose
# restore-then-open arms restore a backup and open it with the log (the
# same replay rule as the PITR tests, to the log's end) and whose
# torn-log-reset and gap arms pin the checkpoint LSN that rule starts
# from.
backup:
	$(GO) test -run 'TestSnapshot|TestBackup|TestRestore|TestDurableLSN|TestOpen' -v ./internal/bvtree

# Coverage-guided fuzzing of BulkLoad, a batch of inserts in the caller's
# order: arbitrary byte-derived point sets must load into a tree that
# passes the full invariant check and scans back to exactly the input
# multiset.
fuzz-bulkload:
	$(GO) test -run '^$$' -fuzz=FuzzBulkLoad -fuzztime=30s -fuzzminimizetime=5s ./internal/bvtree

# Coverage-guided fuzzing of the column mask passes: over fuzzed rows,
# windows and probes, Intersect64, Within64, Cover64, Run, ContainMask64
# and PointAt must agree with plain per-row loops.
fuzz-masks:
	$(GO) test -run '^$$' -fuzz=FuzzColumnMasks -fuzztime=30s -fuzzminimizetime=5s ./internal/page

# Coverage-guided fuzzing of the page decoders: arbitrary bytes must
# decode identically through both decoders of a kind or be refused with
# ErrCorrupt, and what they accept must encode back to the same bytes
# (a data page's body is its columns, row after row). One target per
# run, as go test -fuzz takes one.
fuzz-page:
	$(GO) test -run '^$$' -fuzz=FuzzDecodeData -fuzztime=30s -fuzzminimizetime=5s ./internal/page
	$(GO) test -run '^$$' -fuzz=FuzzDecodeIndex -fuzztime=30s -fuzzminimizetime=5s ./internal/page
	$(GO) test -run '^$$' -fuzz=FuzzDecodeMeta -fuzztime=30s -fuzzminimizetime=5s ./internal/page

# Run the sharded server on the default address (:9412) with a default
# data directory. First start samples a workload and writes the shard
# plan (plan.json); later starts recover every shard from its
# checkpoint + WAL and reject a changed -dims/-shards. See README.md
# "Running the server" and DESIGN.md §15.
server:
	$(GO) run ./cmd/bvserver -data ./bvserver-data

# The documentation lint on its own (also part of `verify`).
docslint:
	$(GO) run ./cmd/docslint
