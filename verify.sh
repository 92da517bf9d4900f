#!/bin/sh
# verify.sh — the repository's tier-1 gate plus race passes over every
# layer with real host concurrency: exp.Runner's worker pool, des.Cluster's
# window workers (which resume Procs from whichever worker claims a shard),
# the session server's connection readers and the fault machinery, followed
# by byte-identity smokes of the CLIs. Within one Scheduler, the DES stays
# sequential: one Proc or event runs at a time.
set -eux

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test ./...

# The benchmark module (bench/) imports internal/exp from outside: its own
# tests catch an API change that breaks it.
go -C bench test ./...

# Fuzz smokes: the textual trace parser must agree with its reference
# oracle (same accepted inputs, errors and collectors) on mutated input;
# the binary trace reader must reject bad input only with *FormatError and
# round-trip whatever it accepts; the spill decoder must reject bad input
# only with *FormatError, decode exactly the declared events into dense
# chunks and allocate only what the input accounts for.
go test -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime 10s ./internal/vt/
go test -run '^$' -fuzz '^FuzzReadCompactTrace$' -fuzztime 10s ./internal/vt/
go test -run '^$' -fuzz '^FuzzSpillReader$' -fuzztime 10s ./internal/vt/

# Short -race pass over the parallel cell runner.
go test -race -run 'TestParallel|TestCellCache|TestRunner' ./internal/exp/

# Race pass over the supervision layer (watchdog goroutines, retry loop),
# the persistent result store and the figure registry.
go test -race -run 'TestSupervised|TestStore|TestFailure|TestRetry|TestRegistered|TestSynthetic' ./internal/exp/

# Race pass over the fault injector and the DPCL retry/backoff path,
# including the crash-recovery machinery (daemon incarnations, ledger
# replay, give-up rollback), and the breakpoint monitor on a crashable
# system.
go test -race ./internal/fault/ ./internal/dpcl/
go test -race -run TestControlMonitor ./internal/core/

# Race pass over the whole DES package: des.Cluster's window workers are
# real host concurrency, and Kill, abort and panic teardown must stay
# race-free when Procs are resumed from different workers. Then the scale
# cells driving the cluster, including the spilling trace collectors.
go test -race ./internal/des/
go test -race -run 'TestScale|TestSpill' ./internal/exp/ ./internal/vt/

# Race pass over the multi-tenant session server: the protocol bridge's
# per-connection reader goroutines are real host concurrency against the
# DES loop, as is the CLI serve smoke.
go test -race ./internal/serve/ ./cmd/dynprof/
go test -race -run TestTenants ./internal/exp/

# End-to-end fault smoke (guarded by -short elsewhere): a run with every
# fault class enabled must terminate via timeout degradation.
go test -run TestFaultSmoke ./internal/exp/

# Benchmark smoke: one iteration of every layer microbenchmark, so a
# benchmark that no longer compiles or panics fails the gate here rather
# than in the next perf investigation. End-to-end numbers come from
# bench/run.sh.
go test -run '^$' -bench . -benchtime 1x -benchmem ./internal/...

# Kill-and-resume smoke: SIGKILL a journaled sweep mid-run, resume it,
# and require byte-identical output vs. an uninterrupted run. The kill is
# timing-dependent but the assertion is not: even if the first run
# finishes before the kill lands, resume must still reproduce the bytes.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/experiments" ./cmd/experiments
"$smoke/experiments" -fig7a -fig8a -max-cpus 8 > "$smoke/baseline.txt"
"$smoke/experiments" -fig7a -fig8a -max-cpus 8 -cache-dir "$smoke/cache" \
    > "$smoke/interrupted.txt" 2>/dev/null &
pid=$!
sleep 0.2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
"$smoke/experiments" -fig7a -fig8a -max-cpus 8 -cache-dir "$smoke/cache" \
    -resume > "$smoke/resumed.txt"
cmp "$smoke/baseline.txt" "$smoke/resumed.txt"

# Scale smoke: the 1k-rank cells of the sharded sweep must render the
# same bytes unsharded and sharded-with-spill (shard-count invariance of
# the skeletons, end to end through the CLI).
"$smoke/experiments" -scale -max-cpus 1024 -shards 1 > "$smoke/scale1.txt"
"$smoke/experiments" -scale -max-cpus 1024 -shards 8 \
    -spill-dir "$smoke/spill" -spill-threshold 1024 > "$smoke/scale8.txt"
cmp "$smoke/scale1.txt" "$smoke/scale8.txt"
# The same sharded cells on one host thread: ScaleSpec.HostParallelism
# defaults to GOMAXPROCS, so this runs every round on the calling
# goroutine and must render the bytes of the parallel run.
GOMAXPROCS=1 "$smoke/experiments" -scale -max-cpus 1024 -shards 8 > "$smoke/scale8ser.txt"
cmp "$smoke/scale8.txt" "$smoke/scale8ser.txt"

# Race pass over the adaptive controller (pure unit tests plus the serve
# integration already covered above) and the adapt/policy cells.
go test -race ./internal/adapt/
go test -race -run 'TestAdaptConvergence|TestAdaptSpecKey|TestPolicySpecKeys' ./internal/exp/

# Race pass over the crash-recovery paths: leased sessions and automatic
# probe-state repair in the server, including the 100-session
# crash-every-daemon smoke (zero lost sessions, probe state byte-identical
# to the fault-free run), and the end-to-end recover cells.
go test -race -run 'TestLease|TestRecoverSmoke|TestProtoSeqAndResume|TestEvictIdempotent' ./internal/serve/
go test -race -run 'TestRecoverCell|TestRecoverStoreRoundTrip' ./internal/exp/

# Race pass over the trace-compaction paths: the compact encoder/decoder,
# the version-checked spill file, and the per-kernel VGV equivalence
# suite.
go test -race -run 'TestCompact|TestSpillRejects|TestReadTraceAuto' \
    ./internal/vt/ ./internal/vgv/ ./internal/exp/

# Parallelism smokes: each on-demand sweep must render the same bytes at
# any host parallelism — the 100-session tenants cell (admission queueing,
# fair daemon scheduling, two quota evictions), the adapt budget sweep
# (feedback controller over all four kernels), the recover daemon-MTBF
# sweep, and the compact bytes/event figure (encoded sizes are a pure
# function of the simulated event stream).
for args in "-tenants -max-cpus 100" -adapt -recover -compact; do
    name=$(echo "$args" | tr -dc 'a-z0-9')
    "$smoke/experiments" $args -parallel 1 > "$smoke/$name.1.txt"
    "$smoke/experiments" $args -parallel 8 > "$smoke/$name.8.txt"
    cmp "$smoke/$name.1.txt" "$smoke/$name.8.txt"
done

# Compact smoke: end to end through the CLIs, a run's compact binary trace
# must decode to the same analysis bytes as the same run's textual trace
# (vgv sniffs the format).
go build -o "$smoke/dynprof" ./cmd/dynprof
go build -o "$smoke/vgv" ./cmd/vgv
printf 'start\nquit\n' | "$smoke/dynprof" -procs 4 -trace "$smoke/v.vgv" \
    - - "$smoke/tf1.txt" sweep3d nx=64 ny=4 nz=4 iters=1 > /dev/null
printf 'start\nquit\n' | "$smoke/dynprof" -procs 4 -trace-compact \
    -trace "$smoke/c.vgv" - - "$smoke/tf2.txt" sweep3d nx=64 ny=4 nz=4 iters=1 > /dev/null
"$smoke/vgv" -trace "$smoke/v.vgv" > "$smoke/vgv_verbatim.txt"
"$smoke/vgv" -trace "$smoke/c.vgv" > "$smoke/vgv_compact.txt"
cmp "$smoke/vgv_verbatim.txt" "$smoke/vgv_compact.txt"
