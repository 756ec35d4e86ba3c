#!/usr/bin/env bash
# check.sh — the single source of truth for every repo check. CI
# (.github/workflows/ci.yml) and the Makefile both run these commands, so
# local runs and the gate stay in lockstep.
#
# Usage: scripts/check.sh [build|vet|fmt|test|race|bench|fuzz|faults|chaos|warmstart|serve|soak|crash|overload|shard|shardgate|delta|deltaratio|all]
set -euo pipefail
cd "$(dirname "$0")/.."

# Every native fuzz target in the repo, one "package target" pair per
# line. `go test -fuzz` accepts a single target per invocation, hence the
# loop in fuzz().
FUZZ_TARGETS="
internal/bgp FuzzDecodeUpdate
internal/bgp FuzzReadMessage
internal/drop FuzzParse
internal/irr FuzzParse
internal/irr FuzzParseJournal
internal/mrt FuzzReader
internal/mrt FuzzReaderLenient
internal/netx FuzzParsePrefix
internal/netx FuzzParseAddr
internal/ribsnap FuzzSnapshotLoad
internal/rirstats FuzzParseFile
internal/rpki FuzzParseSnapshotCSV
internal/rtr FuzzReadPDU
internal/timex FuzzParseDay
"

build() { go build ./...; }

vet() { go vet ./...; }

fmt() {
  local out
  out="$(gofmt -l .)"
  if [ -n "$out" ]; then
    echo "gofmt needed on:" >&2
    echo "$out" >&2
    return 1
  fi
}

# test also vets and short-tests benchmark/: it is a module of its own,
# so the root `go test ./...` never compiles it, and a break of a
# signature it calls (dropscope.LoadStudyWithOptions, serve.Load, ...)
# would otherwise surface only in the benchmark pipeline.
test_() {
  go test ./...
  (cd benchmark && go vet . && go test -short .)
}

race() { go test -race ./...; }

# bench compiles and runs every benchmark exactly once — a smoke guard
# for bench_test.go, not a measurement. CI uploads the output as the
# BENCH_* trajectory artifact.
bench() { go test -bench=. -benchtime=1x -run='^$' ./...; }

# benchgate is the allocation-regression gate: the zero-alloc unit tests
# (mrt.Reader.Next in reuse mode, the post-Close rib point queries) plus
# scripts/bench.sh check, which re-measures BenchmarkPipelineNew,
# BenchmarkEndToEnd, and BenchmarkWarmStart and fails if allocs/op
# regresses more than BENCH_ALLOC_TOLERANCE % over the committed
# BENCH_PR5.json numbers.
benchgate() {
  go test -run 'TestReaderNextReuseAllocs' ./internal/mrt
  go test -run 'TestPointQueryAllocs' ./internal/rib
  scripts/bench.sh check
}

# fuzz runs each seed corpus plus FUZZ_SMOKE_TIME (default 10s) of new
# inputs per target.
fuzz() {
  local t="${FUZZ_SMOKE_TIME:-10s}"
  echo "$FUZZ_TARGETS" | while read -r pkg target; do
    [ -z "$pkg" ] && continue
    echo "--- fuzz $pkg $target ($t)"
    go test -run='^$' -fuzz="^${target}\$" -fuzztime="$t" "./$pkg"
  done
}

# faults runs the fault-tolerance suite end to end: the ingest health
# accounting and deterministic fault-injection harness, the lenient
# (resynchronizing) MRT reader, and the damaged-archive acceptance tests
# (collector quarantine, strict-mode offsets, serial-vs-parallel
# determinism over damage).
faults() {
  go test ./internal/ingest/...
  go test -run 'Lenient|Strict|Damaged' ./internal/mrt .
}

# chaos runs the live-session resilience suite under the race detector:
# the supervisor/backoff state machine, chaos net.Conn fault injection,
# the BGP hold-timer/write-deadline/graceful-restart tests, the chaos
# soak (50 injected faults must converge to the fault-free RIB), and the
# RTR timer state machine with serial wraparound.
chaos() {
  go test -race -count=1 ./internal/session
  go test -race -count=1 ./internal/ingest/faultinject
  go test -race -count=1 \
    -run 'TestHoldTimerExpiry|TestWriteTimeout|TestCollectorGracefulRestart|TestChaosSoak' \
    ./internal/bgpd
  go test -race -count=1 \
    -run 'TestSerialBefore|TestPollSurvivesSerialWraparound|TestClientSession' \
    ./internal/rtr
}

# warmstart is the warm-start acceptance gate, driven through the real
# CLI. It saves an archive, renders it with the index cache disabled,
# renders it once more with the cache on (a cold build that writes the
# snapshot), then renders three warm loads — parallel, serial, strict —
# and requires all five reports byte-identical. It finishes by checking
# the committed BENCH_PR5.json holds the warm-start bar: WarmStart at
# most WARM_RATIO % (default 20) of PipelineNew/serial in both ns/op
# and allocs/op.
warmstart() {
  local tmp scale
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064 -- expand now: $tmp is a function local.
  trap "rm -rf '$tmp'" EXIT
  scale="${WARMSTART_SCALE:-512}"
  echo "--- warmstart: generating archive (scale $scale)"
  go run ./cmd/dropscope -scale "$scale" -save "$tmp/arch" >/dev/null
  echo "--- warmstart: cold render, cache off"
  go run ./cmd/dropscope -load "$tmp/arch" -index-cache off >"$tmp/cold.txt"
  echo "--- warmstart: first cached load (cold build, writes snapshot)"
  go run ./cmd/dropscope -load "$tmp/arch" >"$tmp/first.txt"
  if [ ! -f "$tmp/arch/ribsnap/index.ribsnap" ]; then
    echo "warmstart: snapshot was not written" >&2
    return 1
  fi
  echo "--- warmstart: warm loads (parallel, serial, strict)"
  go run ./cmd/dropscope -load "$tmp/arch" >"$tmp/warm.txt"
  go run ./cmd/dropscope -load "$tmp/arch" -serial >"$tmp/warm-serial.txt"
  go run ./cmd/dropscope -load "$tmp/arch" -strict >"$tmp/warm-strict.txt"
  local f
  for f in first warm warm-serial warm-strict; do
    if ! cmp -s "$tmp/cold.txt" "$tmp/$f.txt"; then
      echo "warmstart: $f render differs from the cold render" >&2
      return 1
    fi
  done
  echo "--- warmstart: all renders byte-identical"
  warmratio
}

# warmratio checks the committed warm/cold ratio in BENCH_PR5.json.
warmratio() {
  if [ ! -f BENCH_PR5.json ]; then
    echo "BENCH_PR5.json missing; nothing to gate against" >&2
    return 1
  fi
  awk -v tol="${WARM_RATIO:-20}" '
    /"bench"/ {
      name = $0; sub(/.*"bench": *"/, "", name); sub(/".*/, "", name)
      after = $0; sub(/.*"after": *{/, "", after)
      ns = after; sub(/.*"ns_op": */, "", ns); sub(/[,}].*/, "", ns)
      al = after; sub(/.*"allocs_op": */, "", al); sub(/[,}].*/, "", al)
      NS[name] = ns; AL[name] = al
    }
    END {
      if (NS["WarmStart"] == "" || NS["PipelineNew/serial"] == "") {
        print "warmratio: WarmStart or PipelineNew/serial missing from BENCH_PR5.json" > "/dev/stderr"
        exit 1
      }
      rns = NS["WarmStart"] / NS["PipelineNew/serial"] * 100
      ral = AL["WarmStart"] / AL["PipelineNew/serial"] * 100
      printf "warm/cold committed ratio: %.1f%% ns/op, %.1f%% allocs/op (bar %d%%)\n", rns, ral, tol
      if (rns > tol || ral > tol) {
        print "WARM GATE FAIL: warm start exceeds the ratio bar" > "/dev/stderr"
        exit 1
      }
      print "WARM GATE OK"
    }' BENCH_PR5.json
}

# serve is the serving-layer acceptance gate, driven through the real
# daemon binary. It boots dropscoped over a synthgen archive, probes
# every endpoint, then exercises the SIGHUP generation swap while a
# request loop runs against the daemon — the swap must change the
# reported generation digest without a single failed request. It
# finishes with a measured load run (scripts/loadtest.sh) gated against
# the committed BENCH_PR6.json by servegate.
serve() {
  local tmp scale addr pid
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064 -- expand now: $tmp is a function local.
  trap "rm -rf '$tmp'" EXIT
  scale="${SERVE_SCALE:-512}"
  addr="${SERVE_ADDR:-127.0.0.1:8434}"

  echo "--- serve: building binaries"
  go build -o "$tmp/dropscoped" ./cmd/dropscoped
  go build -o "$tmp/synthgen" ./cmd/synthgen
  echo "--- serve: generating archive (scale $scale, seed 1)"
  "$tmp/synthgen" -dir "$tmp/arch-1" -scale "$scale" -seed 1 >/dev/null
  ln -s "$tmp/arch-1" "$tmp/arch"

  "$tmp/dropscoped" -archive "$tmp/arch" -listen "$addr" &
  pid=$!
  # shellcheck disable=SC2064
  trap "kill $pid 2>/dev/null || true; rm -rf '$tmp'" EXIT

  echo "--- serve: waiting for /healthz on $addr"
  local i up=""
  for i in $(seq 1 100); do
    if curl -sf "http://$addr/healthz" >"$tmp/healthz.json" 2>/dev/null; then
      up=1
      break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "serve: daemon exited before becoming healthy" >&2
      return 1
    fi
    sleep 0.3
  done
  if [ -z "$up" ]; then
    echo "serve: daemon never became healthy" >&2
    return 1
  fi
  local gen1
  gen1="$(sed 's/.*"generation":"\([0-9a-f]*\)".*/\1/' "$tmp/healthz.json")"
  echo "--- serve: serving generation ${gen1:0:12}"

  echo "--- serve: probing every endpoint"
  probe() {
    local body
    if ! body="$(curl -sf "http://$addr$1")"; then
      echo "serve: GET $1 failed" >&2
      return 1
    fi
    case "$body" in
      *"$2"*) ;;
      *)
        echo "serve: GET $1: expected $2 in response: $body" >&2
        return 1
        ;;
    esac
  }
  probe "/v1/visibility?prefix=192.0.2.0%2F24" '"peers_total"'
  probe "/v1/rov?prefix=192.0.2.0%2F24&origin=64500" '"validity"'
  probe "/v1/drop?prefix=192.0.2.0%2F24" '"listed"'
  probe "/v1/origins?prefix=192.0.2.0%2F24" '"spans"'
  probe "/v1/figures/2022-03-30" '"routed_addrs"'
  probe "/healthz" '"status":"ok"'
  probe "/metrics" '"requests_total"'

  echo "--- serve: SIGHUP swap under load (seed 2 archive)"
  "$tmp/synthgen" -dir "$tmp/arch-2" -scale "$scale" -seed 2 >/dev/null
  : >"$tmp/load-failures"
  (
    while [ ! -f "$tmp/stop" ]; do
      curl -sf "http://$addr/v1/visibility?prefix=192.0.2.0%2F24" >/dev/null \
        || echo fail >>"$tmp/load-failures"
    done
  ) &
  local loader=$!
  ln -sfn "$tmp/arch-2" "$tmp/arch"
  kill -HUP "$pid"
  local gen2=""
  for i in $(seq 1 100); do
    gen2="$(curl -sf "http://$addr/healthz" | sed 's/.*"generation":"\([0-9a-f]*\)".*/\1/' || true)"
    if [ -n "$gen2" ] && [ "$gen2" != "$gen1" ]; then
      break
    fi
    sleep 0.3
  done
  touch "$tmp/stop"
  wait "$loader"
  if [ -z "$gen2" ] || [ "$gen2" = "$gen1" ]; then
    echo "serve: generation digest did not change after SIGHUP" >&2
    return 1
  fi
  if [ -s "$tmp/load-failures" ]; then
    echo "serve: $(wc -l <"$tmp/load-failures") requests failed during the swap" >&2
    return 1
  fi
  echo "--- serve: swapped to generation ${gen2:0:12} with zero dropped requests"
  kill "$pid"
  wait "$pid" 2>/dev/null || true

  echo "--- serve: measured load run"
  scripts/loadtest.sh "$tmp/load.json"
  cat "$tmp/load.json"
  servegate "$tmp/load.json"
}

# servegate compares a loadtest JSON against the committed BENCH_PR6.json
# baseline: QPS may not fall below baseline/SERVE_RATIO and p99 may not
# exceed baseline*SERVE_RATIO (default factor 5 — CI runners vary widely
# in absolute speed; a real serving regression blows past 5x).
servegate() {
  local f="${1:-}"
  if [ ! -f BENCH_PR6.json ]; then
    echo "BENCH_PR6.json missing; nothing to gate against" >&2
    return 1
  fi
  if [ -z "$f" ] || [ ! -f "$f" ]; then
    echo "servegate: usage: servegate LOADTEST.json" >&2
    return 1
  fi
  awk -v tol="${SERVE_RATIO:-5}" '
    function val(s) { sub(/.*: */, "", s); sub(/[,}].*/, "", s); return s + 0 }
    FNR == 1 { file++ }
    /"qps"/ { q[file] = val($0) }
    /"p99_us"/ { p[file] = val($0) }
    END {
      if (q[1] == 0 || p[1] == 0 || q[2] == 0 || p[2] == 0) {
        print "servegate: qps/p99_us missing from baseline or run" > "/dev/stderr"
        exit 1
      }
      printf "serve gate: qps %.0f (baseline %.0f, floor %.0f), p99 %.0f us (baseline %.0f, ceiling %.0f)\n",
        q[2], q[1], q[1] / tol, p[2], p[1], p[1] * tol
      if (q[2] < q[1] / tol) {
        print "SERVE GATE FAIL: QPS below baseline/" tol > "/dev/stderr"
        exit 1
      }
      if (p[2] > p[1] * tol) {
        print "SERVE GATE FAIL: p99 above baseline*" tol > "/dev/stderr"
        exit 1
      }
      print "SERVE GATE OK"
    }' BENCH_PR6.json "$f"
}

# soak runs the serving-layer robustness suite under the race detector:
# the HTTP chaos soak (injected connection resets/stalls/partial
# writes/truncation while generations swap and deliberate panics fire;
# every admitted response byte-identical, every retired generation
# drained to refcount zero, zero goroutine leaks), the lifecycle leak
# test, panic isolation, admission shed/queue behavior, drain, the
# self-healing reload supervisor on a fake clock, and slowloris
# resistance.
soak() {
  go test -race -count=1 -timeout 10m \
    -run 'TestChaosSoakServe|TestGenerationLifecycleLeak|TestPanicReleasesGeneration|TestAdmission|TestDrainRejectsNewArrivals|TestRequestDeadlines|TestReload|TestWatchTriggersReload|TestSlowlorisCut' \
    ./internal/serve
}

# crash runs the durability suite under the race detector: crash
# recovery at every step of the fsync'd snapshot write protocol, disk
# fault injection (short writes, ENOSPC, silent bit flips, fail-stop
# crashes) through the ribsnap FS seam, the generation manifest journal
# (replay, torn tails, corrupt records, last-record-wins), the snapshot
# store lifecycle (promote/retire/retention GC/corrupt marks/debris
# reconcile, temp sweeps), and the scrubber bitrot soak — detect,
# degrade, cold-rebuild heal under query load with zero failed queries.
crash() {
  go test -race -count=1 -timeout 10m \
    -run 'TestCrash|TestWrite|TestSweepTemps|TestManifest|TestReadManifest|TestStore' \
    ./internal/ribsnap
  go test -race -count=1 -run 'TestDiskFS' ./internal/ingest/faultinject
  go test -race -count=1 -timeout 10m -run 'TestScrub' ./internal/serve
}

# overload is the admission-control acceptance gate. It measures two
# load runs over the same archive on the same machine: a baseline at the
# gate's capacity (8 clients, 8 inflight slots) and a 4x overload run
# (32 clients against the same gate, 503s counted as shed). The gate
# requires (a) the overload run actually shed — excess load answers 503,
# it does not queue up; (b) admitted p99 under overload stays within
# OVERLOAD_P99X (default 8) of the same-machine baseline p99 — shedding
# is what keeps the admitted tail bounded. The tolerance is wide on
# purpose: the measured latency is client-side, so with 4x the client
# goroutines contending for the same cores it includes client scheduling
# delay on top of queue wait + service floor (on a 1-CPU runner the
# observed ratio is ~5x). The disaster the gate must catch is the
# no-shedding alternative, where 4x offered load queues up and p99
# degrades unboundedly (~4x the duration of the run, hundreds of x).
# And (c) the overload run holds against the committed BENCH_PR7.json
# within OVERLOAD_RATIO (default 5, absolute cross-machine tolerance).
overload() {
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064 -- expand now: $tmp is a function local.
  trap "rm -rf '$tmp'" EXIT
  echo "--- overload: baseline run (8 clients, 8 slots)"
  CLIENTS=8 MAX_INFLIGHT=8 scripts/loadtest.sh --overload "$tmp/base.json"
  cat "$tmp/base.json"
  echo "--- overload: 4x overload run (32 clients, 8 slots)"
  CLIENTS=32 MAX_INFLIGHT=8 scripts/loadtest.sh --overload "$tmp/over.json"
  cat "$tmp/over.json"
  awk -v tol="${OVERLOAD_P99X:-8}" '
    function val(s) { sub(/.*: */, "", s); sub(/[,}].*/, "", s); return s + 0 }
    FNR == 1 { file++ }
    /"p99_us"/ { p[file] = val($0) }
    /"shed"/ && !/"shed_rate"/ { s[file] = val($0) }
    END {
      if (p[1] == 0 || p[2] == 0) {
        print "overload: p99_us missing from a run" > "/dev/stderr"
        exit 1
      }
      printf "overload gate: admitted p99 %.0f us under 4x load vs %.0f us baseline (ceiling %.0fx), shed %d\n",
        p[2], p[1], tol, s[2]
      if (s[2] == 0) {
        print "OVERLOAD GATE FAIL: overload run shed nothing; the gate is not engaging" > "/dev/stderr"
        exit 1
      }
      if (p[2] > p[1] * tol) {
        print "OVERLOAD GATE FAIL: admitted p99 degraded more than " tol "x under overload" > "/dev/stderr"
        exit 1
      }
      print "OVERLOAD GATE OK (same-machine)"
    }' "$tmp/base.json" "$tmp/over.json"
  overloadgate "$tmp/over.json"
}

# overloadgate compares an overload loadtest JSON against the committed
# BENCH_PR7.json baseline: the run must shed (shed > 0) and its admitted
# p99 may not exceed baseline*OVERLOAD_RATIO (default 5 — same
# cross-machine tolerance rationale as servegate).
overloadgate() {
  local f="${1:-}"
  if [ ! -f BENCH_PR7.json ]; then
    echo "BENCH_PR7.json missing; nothing to gate against" >&2
    return 1
  fi
  if [ -z "$f" ] || [ ! -f "$f" ]; then
    echo "overloadgate: usage: overloadgate OVERLOAD.json" >&2
    return 1
  fi
  awk -v tol="${OVERLOAD_RATIO:-5}" '
    function val(s) { sub(/.*: */, "", s); sub(/[,}].*/, "", s); return s + 0 }
    FNR == 1 { file++ }
    /"p99_us"/ { p[file] = val($0) }
    /"shed"/ && !/"shed_rate"/ { s[file] = val($0) }
    END {
      if (p[1] == 0 || p[2] == 0) {
        print "overloadgate: p99_us missing from baseline or run" > "/dev/stderr"
        exit 1
      }
      printf "overload gate: admitted p99 %.0f us (baseline %.0f, ceiling %.0f), shed %d (baseline %d)\n",
        p[2], p[1], p[1] * tol, s[2], s[1]
      if (s[2] == 0) {
        print "OVERLOAD GATE FAIL: run shed nothing" > "/dev/stderr"
        exit 1
      }
      if (p[2] > p[1] * tol) {
        print "OVERLOAD GATE FAIL: admitted p99 above baseline*" tol > "/dev/stderr"
        exit 1
      }
      print "OVERLOAD GATE OK (vs committed baseline)"
    }' BENCH_PR7.json "$f"
}

# shard is the sharded-index acceptance gate. It runs the boundary
# property suite (every query at, one below, and one above each shard
# cut byte-identical to the unsharded index for K in {1,2,7}), the
# shard-set residency/eviction tests (the soak under -race), and the
# sharded serving tests; then it drives the real CLI over a
# volume-amplified synthgen archive and requires the sharded renders —
# cold and warm, through the persisted sharded generation — to be
# byte-identical to the unsharded render.
shard() {
  echo "--- shard: boundary property suite (K in {1,2,7})"
  go test -count=1 -run 'TestShardedByteIdentical|TestFrozenShardsShape|TestShardedValidation' ./internal/rib
  echo "--- shard: shard-set residency and manifest tests"
  go test -count=1 -run 'TestShardManifest|TestWriteLoadShards|TestLoadShardsRefusesCorrupt|TestOpenShardSetStale|TestShardSet' ./internal/ribsnap
  echo "--- shard: eviction soak under the race detector"
  go test -race -count=1 -run 'TestShardEvictionSoak' ./internal/ribsnap
  echo "--- shard: sharded serving, metrics, and per-shard scrub"
  go test -count=1 -run 'TestShardedServe|TestShardedMetrics|TestShardScrub' ./internal/serve

  local tmp scale
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064 -- expand now: $tmp is a function local.
  trap "rm -rf '$tmp'" EXIT
  scale="${SHARD_SCALE:-512}"
  echo "--- shard: generating volume-amplified archive (scale $scale, volume 2048)"
  go run ./cmd/synthgen -dir "$tmp/arch" -scale "$scale" -seed 1 -volume 2048 >/dev/null
  echo "--- shard: unsharded render (cache off)"
  go run ./cmd/dropscope -load "$tmp/arch" -index-cache off >"$tmp/unsharded.txt"
  echo "--- shard: sharded cold render (K=7, writes the snapshot)"
  go run ./cmd/dropscope -load "$tmp/arch" -shards 7 >"$tmp/sharded-cold.txt"
  echo "--- shard: sharded warm render (K=7, mapped snapshot)"
  go run ./cmd/dropscope -load "$tmp/arch" -shards 7 >"$tmp/sharded-warm.txt"
  echo "--- shard: sharded serial and strict renders (K=7)"
  go run ./cmd/dropscope -load "$tmp/arch" -shards 7 -serial >"$tmp/sharded-serial.txt"
  go run ./cmd/dropscope -load "$tmp/arch" -shards 7 -strict >"$tmp/sharded-strict.txt"
  local f
  for f in sharded-cold sharded-warm sharded-serial sharded-strict; do
    if ! cmp -s "$tmp/unsharded.txt" "$tmp/$f.txt"; then
      echo "shard: $f render differs from the unsharded render" >&2
      return 1
    fi
  done
  echo "--- shard: all renders byte-identical"
}

# shardgate is the parallel-build performance gate: BenchmarkShardFreeze
# must show the 4-way sharded freeze+persist at least SHARD_RATIO x
# (default 1.5) faster than the single-file path. The win comes from
# building and encoding shards on the worker pool, so the gate only
# engages on machines with 4+ cores — below that there is no
# parallelism to measure and the shard overhead dominates.
shardgate() {
  local cores
  cores="$(nproc 2>/dev/null || echo 1)"
  if [ "$cores" -lt 4 ]; then
    echo "shardgate: $cores core(s) < 4; parallel shard build gate skipped"
    return 0
  fi
  go test -run '^$' -bench 'BenchmarkShardFreeze' \
    -benchtime "${SHARD_BENCHTIME:-3x}" -count "${SHARD_COUNT:-3}" . | tee shard-bench.txt
  awk -v want="${SHARD_RATIO:-1.5}" '
    $1 ~ /ShardFreeze\/single/ && $4 == "ns/op" { s += $3; sn++ }
    $1 ~ /ShardFreeze\/sharded/ && $4 == "ns/op" { p += $3; pn++ }
    END {
      if (sn == 0 || pn == 0) {
        print "shardgate: benchmark output missing single or sharded runs" > "/dev/stderr"
        exit 1
      }
      r = (s / sn) / (p / pn)
      printf "shard gate: single %.0f ns/op, sharded %.0f ns/op, speedup %.2fx (floor %.1fx)\n",
        s / sn, p / pn, r, want
      if (r < want) {
        print "SHARD GATE FAIL: sharded build under " want "x the single-file build" > "/dev/stderr"
        exit 1
      }
      print "SHARD GATE OK"
    }' shard-bench.txt
}

# delta is the incremental-ingest acceptance gate. It runs the
# overlay/merge property suite, the append-only contract tests, and the
# daemon delta-reload tests; then it drives the real CLI: a snapshot
# seeded on the base archive must serve an append load over the grown
# archive — decoding only the appended bytes — whose renders are
# byte-identical to a cache-off cold rebuild of the grown archive, in
# parallel, serial, strict, and sharded modes. A delta that silently
# fell back cold cannot pass the lenient comparisons: the fallback
# counts a discarded-snapshot skip, which surfaces in the report's
# data-health section and breaks the byte comparison.
delta() {
  echo "--- delta: overlay/merge and append-contract suites"
  go test -count=1 ./internal/delta
  go test -count=1 -run 'TestDelta' ./internal/rib
  go test -count=1 -run 'TestDelta' ./internal/serve
  go test -count=1 -run 'TestAppend' .

  local tmp scale
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064 -- expand now: $tmp is a function local.
  trap "rm -rf '$tmp'" EXIT
  scale="${DELTA_SCALE:-512}"
  echo "--- delta: generating base and grown archives (scale $scale, seed 1)"
  go run ./cmd/synthgen -dir "$tmp/arch" -scale "$scale" -seed 1 >/dev/null
  # Same world, plus amplified churn: the deterministic encoder makes
  # every grown MRT file a byte-superset of its base counterpart —
  # exactly the append-only growth the delta path requires.
  go run ./cmd/synthgen -dir "$tmp/grown" -scale "$scale" -seed 1 -volume 1024 >/dev/null
  echo "--- delta: cold render of the grown archive (cache off)"
  go run ./cmd/dropscope -load "$tmp/grown" -index-cache off >"$tmp/cold.txt"
  echo "--- delta: seeding the snapshot on the base archive"
  go run ./cmd/dropscope -load "$tmp/arch" >/dev/null
  if [ ! -f "$tmp/arch/ribsnap/index.ribsnap" ]; then
    echo "delta: base snapshot was not written" >&2
    return 1
  fi
  local mode
  for mode in par serial strict sharded; do
    mkdir -p "$tmp/snap-$mode"
    cp "$tmp/arch/ribsnap/index.ribsnap" "$tmp/snap-$mode/"
  done
  echo "--- delta: append loads over the grown archive (parallel, serial, strict, sharded)"
  go run ./cmd/dropscope -load "$tmp/grown" -index-cache "$tmp/snap-par" -append >"$tmp/append.txt"
  go run ./cmd/dropscope -load "$tmp/grown" -index-cache "$tmp/snap-serial" -append -serial >"$tmp/append-serial.txt"
  go run ./cmd/dropscope -load "$tmp/grown" -index-cache "$tmp/snap-strict" -append -strict >"$tmp/append-strict.txt"
  go run ./cmd/dropscope -load "$tmp/grown" -index-cache "$tmp/snap-sharded" -append -shards 7 >"$tmp/append-sharded.txt"
  local f
  for f in append append-serial append-strict append-sharded; do
    if ! cmp -s "$tmp/cold.txt" "$tmp/$f.txt"; then
      echo "delta: $f render differs from the cold render of the grown archive" >&2
      return 1
    fi
  done
  echo "--- delta: all append renders byte-identical to the cold rebuild"
}

# deltaratio is the incremental-ingest performance gate. It first
# checks the committed append/cold ratio in BENCH_PR10.json (an append
# must cost at most DELTA_RATIO % — default 30 — of the cold rebuild it
# replaces), then re-measures BenchmarkIncrementalAppend live and holds
# the fresh ratio to the same bar. The live half self-skips on
# undersized runners (< 2 cores): a box saturated by the harness
# measures scheduler noise, not the decode saving.
deltaratio() {
  if [ ! -f BENCH_PR10.json ]; then
    echo "BENCH_PR10.json missing; nothing to gate against" >&2
    return 1
  fi
  awk -v tol="${DELTA_RATIO:-30}" '
    /"cold_ns_op"/ { c = $0; sub(/.*: */, "", c); sub(/[,}].*/, "", c) }
    /"append_ns_op"/ { a = $0; sub(/.*: */, "", a); sub(/[,}].*/, "", a) }
    END {
      if (c + 0 == 0 || a + 0 == 0) {
        print "deltaratio: cold_ns_op or append_ns_op missing from BENCH_PR10.json" > "/dev/stderr"
        exit 1
      }
      r = a / c * 100
      printf "append/cold committed ratio: %.1f%% ns/op (bar %d%%)\n", r, tol
      if (r > tol) {
        print "DELTA GATE FAIL: committed append cost exceeds the ratio bar" > "/dev/stderr"
        exit 1
      }
      print "DELTA GATE OK (committed)"
    }' BENCH_PR10.json
  local cores
  cores="$(nproc 2>/dev/null || echo 1)"
  if [ "$cores" -lt 2 ]; then
    echo "deltaratio: $cores core(s) < 2; live re-measure skipped"
    return 0
  fi
  go test -run '^$' -bench 'BenchmarkIncrementalAppend' \
    -benchtime "${DELTA_BENCHTIME:-3x}" -count "${DELTA_COUNT:-3}" . | tee delta-bench.txt
  awk -v tol="${DELTA_RATIO:-30}" '
    $1 ~ /IncrementalAppend\/cold/ && $4 == "ns/op" { c += $3; cn++ }
    $1 ~ /IncrementalAppend\/append/ && $4 == "ns/op" { a += $3; an++ }
    END {
      if (cn == 0 || an == 0) {
        print "deltaratio: benchmark output missing cold or append runs" > "/dev/stderr"
        exit 1
      }
      r = (a / an) / (c / cn) * 100
      printf "append/cold measured ratio: %.1f%% ns/op (bar %d%%)\n", r, tol
      if (r > tol) {
        print "DELTA GATE FAIL: measured append cost exceeds the ratio bar" > "/dev/stderr"
        exit 1
      }
      print "DELTA GATE OK (measured)"
    }' delta-bench.txt
}

# lint runs gofmt/vet plus staticcheck (correctness checks) and
# govulncheck when installed. CI installs both pinned; locally they are
# optional and skipped with a notice, never fetched implicitly.
lint() {
  fmt
  vet
  if command -v staticcheck >/dev/null 2>&1; then
    echo "--- lint: staticcheck"
    staticcheck -checks 'SA*' ./...
  else
    echo "--- lint: staticcheck not installed; skipping (CI installs it pinned)"
  fi
  if command -v govulncheck >/dev/null 2>&1; then
    echo "--- lint: govulncheck"
    govulncheck ./...
  else
    echo "--- lint: govulncheck not installed; skipping (CI installs it pinned)"
  fi
  if command -v shellcheck >/dev/null 2>&1; then
    echo "--- lint: shellcheck"
    shellcheck scripts/*.sh
  else
    echo "--- lint: shellcheck not installed; skipping (CI runners ship it)"
  fi
}

all() { build; vet; fmt; test_; race; bench; }

case "${1:-all}" in
  build) build ;;
  vet) vet ;;
  fmt) fmt ;;
  test) test_ ;;
  race) race ;;
  bench) bench ;;
  benchgate) benchgate ;;
  fuzz) fuzz ;;
  faults) faults ;;
  chaos) chaos ;;
  warmstart) warmstart ;;
  warmratio) warmratio ;;
  serve) serve ;;
  servegate) shift; servegate "${1:-}" ;;
  soak) soak ;;
  crash) crash ;;
  overload) overload ;;
  overloadgate) shift; overloadgate "${1:-}" ;;
  shard) shard ;;
  shardgate) shardgate ;;
  delta) delta ;;
  deltaratio) deltaratio ;;
  lint) lint ;;
  all) all ;;
  *)
    echo "usage: $0 [build|vet|fmt|test|race|bench|benchgate|fuzz|faults|chaos|warmstart|serve|soak|crash|overload|shard|shardgate|delta|deltaratio|lint|all]" >&2
    exit 2
    ;;
esac
