#!/bin/sh
# verify.sh — the repository's tier-1 gate plus race passes over every
# layer with real host concurrency: exp.Runner's cell workers, des.Cluster's
# window workers (which resume Procs from whichever worker claims a shard),
# the session server's connection readers and the fault machinery, followed
# by byte-identity smokes of the CLIs. Within one Scheduler, the DES stays
# sequential: one Proc or event runs at a time.
set -eux

# names REGEX PKG...: fail unless every |-separated alternative of the
# -run or -fuzz regex REGEX names a test, benchmark or fuzz target in one of
# the packages, so a renamed or deleted test cannot silently drop out of a
# pass below.
names() {
    re=$1
    shift
    listed=$(go test -list . "$@")
    for alt in $(echo "$re" | tr '|' ' '); do
        if ! echo "$listed" | grep -Eq -- "$alt"; then
            echo "verify.sh: -run/-fuzz alternative $alt names no test in $*" >&2
            exit 1
        fi
    done
}

# run REGEX [FLAG...] PKG...: go test -run REGEX over the packages, after
# names has checked REGEX against them.
run() {
    re=$1
    shift
    pkgs=
    for a in "$@"; do
        case $a in ./*) pkgs="$pkgs $a" ;; esac
    done
    names "$re" $pkgs
    go test -run "$re" "$@"
}

# fuzz NAME PKG: ten seconds of the fuzz target NAME. Minimising a new
# input is bounded to one second, so a target cannot spend its ten
# seconds minimising at 0 execs/s.
fuzz() {
    names "^$1\$" "$2"
    go test -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 1s "$2"
}

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test ./...

# The benchmark module (bench/) imports internal/exp from outside: its own
# tests catch an API change that breaks it. The root go vet skips it, being
# a module of its own, so it is vetted here.
go -C bench vet ./...
go -C bench test ./...

# Fuzz smokes: the trace-file reader must reject bad input only with
# *FormatError and round-trip whatever it accepts; the compact encoder's
# repeat detector must emit exactly its reference's bytes; the spill
# decoder must reject bad input only with *FormatError, decode exactly the
# declared events into dense chunks and allocate only what the input
# accounts for; the VT configuration parser must hold exactly one rule per
# directive line it accepts; the result journal's loader must ignore any
# newline-free torn tail; VGV's analysis of any collector built from fuzz
# bytes must equal its reference oracle's; a dynprof script must never
# panic the tool or the simulation, and is refused with ErrUnknownCommand
# only for a command outside Table 1; any client bytes sent to the session
# server's line protocol get exactly one ok or err reply per command, and
# never panic it; a random graph of Procs that advance, cast, receive
# (with or without a timeout) and panic, under an optional event or
# virtual-time budget, runs the same and ends with the same error with
# Advances in place as parked, the same on a one-shard Cluster as on a
# Scheduler, with the same finish times on k shards, and identically at
# host parallelism 1 and 2.
fuzz FuzzReadCompactTrace ./internal/vt/
fuzz FuzzEncodeBlock ./internal/vt/
fuzz FuzzSpillReader ./internal/vt/
fuzz FuzzParseConfig ./internal/vt/
fuzz FuzzLoadJournal ./internal/exp/
fuzz FuzzAnalyze ./internal/vgv/
fuzz FuzzExec ./internal/core/
fuzz FuzzBridge ./internal/serve/
fuzz FuzzClusterGraph ./internal/des/

# Race pass over the trace-file round trip and VGV's analysis of what it
# reads: the encoder, decoder and chunk pools are shared by every
# goroutine that handles a trace, and the merge, WriteTrace, ReadTrace and
# Analyze each split into GOMAXPROCS workers (internal/par), which
# TestTraceRoundTripAnyWorkers sets to 1-4.
run 'TestReadTrace|TestWriteTrace|TestTraceFile|TestAnalyze|TestTraceRoundTripAnyWorkers|TestTimeline|TestPipeline|TestFor' \
    -race ./internal/vt/ ./internal/vgv/ ./internal/par/

# Race pass over shared binary images: one guide.Binary launched from two
# goroutines at once, whose ranks run the template's words, snippets and
# region programs until a probe copies one rank's image.
run 'TestLaunchOneBinaryConcurrently|TestJobRanksShareBinary|TestCloneSharesTemplatePrograms|TestMidReplayPatchFallsBack' \
    -race ./internal/guide/ ./internal/image/

# Short -race pass over the parallel cell runner.
run 'TestParallel|TestCellCache|TestRunner' -race ./internal/exp/

# Race pass over the supervision layer (watchdog goroutines, retry loop),
# the persistent result store and the figure registry.
run 'TestSupervised|TestStore|TestFailure|TestRetry|TestRegistered|TestSynthetic' -race ./internal/exp/

# Race pass over the fault injector and the DPCL retry/backoff path,
# including the crash-recovery machinery (daemon incarnations, ledger
# replay, give-up rollback), and the breakpoint monitor on a crashable
# system.
go test -race ./internal/fault/ ./internal/dpcl/
run TestControlMonitor -race ./internal/core/

# Race pass over the whole DES package: des.Cluster's window workers are
# real host concurrency, and Kill, abort and panic teardown must stay
# race-free when Procs are resumed from different workers; FuzzClusterGraph's
# seeds (panics, RecvTimeouts and budgets among them) run here at host
# parallelism 2. Then the scale cells driving the cluster, including the
# spilling trace collectors.
names 'FuzzClusterGraph|TestNoGoroutineLeak' ./internal/des/
go test -race ./internal/des/
run 'TestScale|TestSpill' -race ./internal/exp/ ./internal/vt/

# Race pass over the multi-tenant session server: the protocol bridge's
# per-connection reader goroutines are real host concurrency against the
# DES loop, as is the CLI serve smoke. It includes the bridge's shutdown
# after a clean run and after an aborted one.
names 'TestProtoShutdownLeavesNoGoroutines|TestProtoAbortLeavesNoGoroutines' ./internal/serve/
go test -race ./internal/serve/ ./cmd/dynprof/
run TestTenants -race ./internal/exp/

# End-to-end fault smoke (guarded by -short elsewhere): a Dynamic run with
# a slow node, a stall, a lossy and slow control channel and a mid-run
# rank crash must terminate via timeout degradation.
run TestFaultSmoke ./internal/exp/

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

# Example smoke: every program under examples/ builds and runs to a zero
# exit. parallel_experiments and resumable_sweep drive the Runner end to
# end, including its tape replay and its recording-failure fallback.
mkdir "$smoke/examples"
go build -o "$smoke/examples/" ./examples/...
for ex in "$smoke"/examples/*; do
    "$ex" > /dev/null
done

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

# Race pass over the adaptive controller (pure unit tests) and the
# adapt/policy cells, which run it attached to live sessions.
go test -race ./internal/adapt/
run 'TestAdaptConvergence|TestAdaptSpecKey|TestStaticPolicyKeys' -race ./internal/exp/

# Race pass over the crash-recovery paths: leased sessions and automatic
# probe-state repair in the server, including the 100-session
# crash-every-daemon smoke (zero lost sessions, probe state byte-identical
# to the fault-free run), and the end-to-end recover cells.
run 'TestLease|TestRecoverSmoke|TestProtoSeqAndResume|TestEvictIdempotent' -race ./internal/serve/
run 'TestRecoverCell|TestRecoverStoreRoundTrip' -race ./internal/exp/

# Race pass over the trace-compaction paths: the compact encoder/decoder,
# the version-checked spill file, and the per-kernel VGV equivalence
# suite.
run 'TestCompact|TestSpillRejects' \
    -race ./internal/vt/ ./internal/vgv/ ./internal/exp/

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

# Trace smoke: end to end through the CLIs, dynprof must write the same
# trace file on 1, 2 and 4 host threads, and that file and the one asci
# writes must analyse to the same vgv bytes on 1, 2 and 4. The iters=20
# deck makes the trace span several frames.
go build -o "$smoke/dynprof" ./cmd/dynprof
go build -o "$smoke/asci" ./cmd/asci
go build -o "$smoke/vgv" ./cmd/vgv
for n in 1 2 4; do
    printf 'start\nquit\n' | GOMAXPROCS=$n "$smoke/dynprof" -procs 4 -trace "$smoke/p$n.vgv" \
        - - "$smoke/tf$n.txt" sweep3d nx=64 ny=4 nz=4 iters=20 > /dev/null
done
cmp "$smoke/p1.vgv" "$smoke/p2.vgv"
cmp "$smoke/p1.vgv" "$smoke/p4.vgv"
"$smoke/asci" -app sppm -policy Full -procs 4 -trace "$smoke/a.vgv" \
    nx=6 ny=6 nz=6 steps=1 > /dev/null
for tr in p1 a; do
    for n in 1 2 4; do
        GOMAXPROCS=$n "$smoke/vgv" -trace "$smoke/$tr.vgv" > "$smoke/vgv_$tr.$n.txt"
    done
    cmp "$smoke/vgv_$tr.1.txt" "$smoke/vgv_$tr.2.txt"
    cmp "$smoke/vgv_$tr.1.txt" "$smoke/vgv_$tr.4.txt"
done

# A wait the virtual clock cannot take is refused and the script carries
# on: the run exits 0 and reports the bad duration.
printf 'wait nan\nstart\nquit\n' | "$smoke/dynprof" -procs 4 - - "$smoke/tf3.txt" \
    sweep3d nx=64 ny=4 nz=4 iters=1 > "$smoke/waitnan.txt"
grep -q 'bad wait duration "nan"' "$smoke/waitnan.txt"
