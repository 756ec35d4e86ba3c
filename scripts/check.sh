#!/usr/bin/env bash
# check.sh — the single source of truth for every repo check. CI
# (.github/workflows/ci.yml) and the Makefile both run these commands, so
# local runs and the gate stay in lockstep. Nothing here measures: the
# checks pass or fail on behaviour (tests, byte-identical renders), and
# timings come from `sh benchmark/run.sh` in alternating parent/change
# pairs.
#
# Usage: scripts/check.sh [SUBCOMMAND]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

# Every subcommand, in one place: the dispatch at the bottom, the usage
# message and the Makefile's targets all read this line.
SUBCOMMANDS="build vet fmt test race bench fuzz warmstart serve shard delta lifecycle lint all"

# Every native fuzz target in the repo, one "package target" pair per
# line. `go test -fuzz` accepts a single target per invocation, hence the
# loop in fuzz().
FUZZ_TARGETS="
internal/bgp FuzzDecodeUpdate
internal/bgp FuzzParseASN
internal/drop FuzzParse
internal/irr FuzzParse
internal/irr FuzzParseJournal
internal/mrt FuzzReader
internal/mrt FuzzReaderLenient
internal/mrt FuzzReaderReuse
internal/netx FuzzParsePrefix
internal/netx FuzzParseAddr
internal/netx FuzzSortedSet
internal/ribsnap FuzzManifestScan
internal/ribsnap FuzzSnapshotLoad
internal/ribsnap FuzzDecodeLineage
internal/ribsnap FuzzShardManifest
internal/filesum FuzzArchiveManifest
internal/archive FuzzTextJournal
internal/archive FuzzDayDiff
internal/rirstats FuzzParseFile
internal/rpki FuzzParseSnapshotCSV
internal/rtr FuzzReadPDU
internal/serve FuzzParseParams
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

# race runs every test in the repo under the race detector, uncached:
# the fault-injection, serving chaos soak and crash recovery suites
# included.
race() { go test -race -count=1 ./...; }

# bench compiles and runs every Benchmark* function exactly once — a
# smoke guard against rot, not a measurement.
bench() { go test -bench=. -benchtime=1x -run='^$' ./...; }

# fuzz runs each seed corpus plus FUZZ_SMOKE_TIME (default 10s) of new
# inputs per target. It first fails if FUZZ_TARGETS and the Fuzz*
# functions in the tree differ either way: a function missing from the
# list would go unrun, and a stale entry would pass silently, because
# `go test -fuzz` with a pattern that matches nothing exits 0.
fuzz() {
  local t="${FUZZ_SMOKE_TIME:-10s}" found listed missing stale
  found="$(grep -rEo --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
      '^func Fuzz[A-Za-z0-9_]*' . |
    awk -F: '{ d = $1; sub(/^\.\//, "", d); sub(/\/?[^\/]*$/, "", d); sub(/^func /, "", $2); print (d == "" ? "." : d), $2 }' |
    LC_ALL=C sort -u)"
  listed="$(echo "$FUZZ_TARGETS" | sed '/^$/d' | LC_ALL=C sort -u)"
  missing="$(LC_ALL=C comm -23 <(echo "$found") <(echo "$listed"))"
  stale="$(LC_ALL=C comm -13 <(echo "$found") <(echo "$listed"))"
  if [ -n "$missing" ]; then
    echo "fuzz: targets missing from FUZZ_TARGETS:" >&2
    echo "$missing" >&2
  fi
  if [ -n "$stale" ]; then
    echo "fuzz: FUZZ_TARGETS entries with no such Fuzz function:" >&2
    echo "$stale" >&2
  fi
  if [ -n "$missing$stale" ]; then
    return 1
  fi
  echo "$FUZZ_TARGETS" | while read -r pkg target; do
    [ -z "$pkg" ] && continue
    echo "--- fuzz $pkg $target ($t)"
    go test -run='^$' -fuzz="^${target}\$" -fuzztime="$t" "./$pkg"
  done
}

# warmstart is the warm-start acceptance gate, driven through the real
# CLI. It saves an archive, renders it with the index cache disabled,
# renders it once more with the cache on (a cold build that writes a
# generation and the text journal into the snapshot store), then
# renders three warm loads — parallel, serial, strict — and requires all
# five reports byte-identical. It then touches one rirstats file, its
# content unchanged: the archive manifest's row misses, the file is
# hashed again, and the warm render must still be the cold one with no
# new generation written. It rewrites that file in place at the same
# size and restores its mtime: only ctime shows the change, and the
# cached render must be the cache-off one. Last it rewrites one DROP
# day, so the text journal is stale, and requires the cached render of
# the changed archive to be the cache-off one.
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
  echo "--- warmstart: first cached load (cold build, writes a generation)"
  go run ./cmd/dropscope -load "$tmp/arch" >"$tmp/first.txt"
  if ! ls "$tmp"/arch/ribsnap/gen-*/shards.manifest >/dev/null 2>&1; then
    echo "warmstart: no generation was written" >&2
    return 1
  fi
  if [ ! -s "$tmp/arch/ribsnap/text.journal" ]; then
    echo "warmstart: no text journal was written" >&2
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
  echo "--- warmstart: one rirstats file touched, content unchanged"
  local rir gens
  gens="$(printf '%s ' "$tmp"/arch/ribsnap/gen-*)"
  for f in "$tmp"/arch/rirstats/*/delegated-*-extended; do # the last day's last file with an allocated block
    if grep -q '|allocated|' "$f"; then rir="$f"; fi
  done
  touch "$rir"
  sleep 2 # past the manifest's racy window: the row this run records is trusted, so only ctime can show the rewrite below
  go run ./cmd/dropscope -load "$tmp/arch" >"$tmp/touched.txt"
  if ! cmp -s "$tmp/cold.txt" "$tmp/touched.txt"; then
    echo "warmstart: warm render after a touch differs from the cold render" >&2
    return 1
  fi
  if [ "$(printf '%s ' "$tmp"/arch/ribsnap/gen-*)" != "$gens" ]; then
    echo "warmstart: a touch wrote a new generation" >&2
    return 1
  fi
  echo "--- warmstart: that file rewritten in place at the same size, mtime restored"
  cp -p "$rir" "$tmp/mtime.ref"
  sed 's/|allocated|/|available|/' "$rir" >"$tmp/rir.txt"
  cat "$tmp/rir.txt" >"$rir" # through the same inode: only ctime and the bytes change
  touch -r "$tmp/mtime.ref" "$rir"
  go run ./cmd/dropscope -load "$tmp/arch" -index-cache off >"$tmp/rewritten-cold.txt"
  go run ./cmd/dropscope -load "$tmp/arch" >"$tmp/rewritten.txt"
  if cmp -s "$tmp/cold.txt" "$tmp/rewritten-cold.txt"; then
    echo "warmstart: the in-place rewrite left the report as it was, so it shows nothing" >&2
    return 1
  fi
  if ! cmp -s "$tmp/rewritten-cold.txt" "$tmp/rewritten.txt"; then
    echo "warmstart: cached render after an in-place rewrite differs from the cache-off render" >&2
    return 1
  fi
  echo "--- warmstart: one DROP day rewritten (stale text journal)"
  local day
  for day in "$tmp"/arch/drop/*.txt; do :; done # the glob sorts: the last day
  sed '$d' "$day" >"$tmp/day.txt"
  mv "$tmp/day.txt" "$day"
  go run ./cmd/dropscope -load "$tmp/arch" -index-cache off >"$tmp/changed-cold.txt"
  go run ./cmd/dropscope -load "$tmp/arch" >"$tmp/changed.txt"
  if ! cmp -s "$tmp/changed-cold.txt" "$tmp/changed.txt"; then
    echo "warmstart: cached render of the changed archive differs from the cache-off render" >&2
    return 1
  fi
  echo "--- warmstart: all renders byte-identical"
}

# serve is the serving-layer acceptance gate, driven through the real
# daemon binary. It boots dropscoped over a synthgen archive, probes
# every endpoint, then exercises the SIGHUP generation swap while a
# request loop runs against the daemon — the swap must change the
# reported generation digest without a single failed request, and a
# figures day answered before the swap must answer from the new
# generation after it.
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
  # The day was answered on the first generation above; its stored
  # answer must have retired with it.
  probe "/v1/figures/2022-03-30" "\"generation\":\"$gen2\""
  kill "$pid"
  wait "$pid" 2>/dev/null || true
}

# shard is the sharded-index acceptance gate, driven through the real
# CLI over a volume-amplified synthgen archive: the sharded renders —
# cold and warm, through the stored 7-shard generation — must be
# byte-identical to the unsharded render. The boundary property suite
# and the shard-set tests run in race.
shard() {
  local tmp scale
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064 -- expand now: $tmp is a function local.
  trap "rm -rf '$tmp'" EXIT
  scale="${SHARD_SCALE:-512}"
  echo "--- shard: generating volume-amplified archive (scale $scale, volume 2048)"
  go run ./cmd/synthgen -dir "$tmp/arch" -scale "$scale" -seed 1 -volume 2048 >/dev/null
  echo "--- shard: unsharded render (cache off)"
  go run ./cmd/dropscope -load "$tmp/arch" -index-cache off >"$tmp/unsharded.txt"
  echo "--- shard: sharded cold render (K=7, writes the generation)"
  go run ./cmd/dropscope -load "$tmp/arch" -shards 7 >"$tmp/sharded-cold.txt"
  echo "--- shard: sharded warm render (K=7, mapped generation)"
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

# delta is the incremental-ingest acceptance gate, driven through the
# real CLI (the overlay/merge and append-contract suites run in race):
# a snapshot store seeded on the base archive, copied whole for each
# mode, must
# serve an append load over the grown archive — decoding only the
# appended bytes — whose renders are byte-identical to a cache-off cold
# rebuild of the grown archive, in parallel, serial, strict, and
# sharded modes (the sharded append extends the seeded one-shard
# generation and writes a 7-shard one). A delta that silently fell back
# cold cannot pass the lenient comparisons: the store's promoted
# generation is keyed on the base archive, so a fallback counts it as a
# stale discarded generation, which surfaces in the report's
# data-health section and breaks the byte comparison.
delta() {
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
  echo "--- delta: seeding the snapshot store on the base archive"
  go run ./cmd/dropscope -load "$tmp/arch" >/dev/null
  if ! ls "$tmp"/arch/ribsnap/gen-*/shards.manifest >/dev/null 2>&1; then
    echo "delta: no base generation was written" >&2
    return 1
  fi
  local mode
  for mode in par serial strict sharded; do
    cp -R "$tmp/arch/ribsnap" "$tmp/snap-$mode"
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

# lifecycle runs every gate that drives a real binary through a whole
# lifecycle — warm start, the daemon, sharding, delta ingest. Each runs
# as a child process: each sets an EXIT trap for its temp dir (and, in
# serve, the daemon), and one shell has one EXIT trap.
lifecycle() {
  local s
  for s in warmstart serve shard delta; do
    echo "=== lifecycle: $s"
    scripts/check.sh "$s"
  done
}

all() { build; vet; fmt; test_; race; bench; }

cmd="${1:-all}"
case " $SUBCOMMANDS " in
  *" $cmd "*) ;;
  *)
    echo "usage: $0 [${SUBCOMMANDS// /|}]" >&2
    exit 2
    ;;
esac
# test would shadow the shell builtin, so its function is test_.
[ "$cmd" = test ] && cmd=test_
"$cmd"
