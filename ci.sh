#!/usr/bin/env bash
# CI gate for the fair-biclique workspace.
#
#   ./ci.sh            # lint + doc + tier-1 verify + bench/perfbench/smoke compile checks
#   ./ci.sh --quick    # skip the release build (debug tests only)
#   ./ci.sh --sanitize # additionally run the service tests under TSan
#                      # (best-effort: skipped unless a nightly
#                      # toolchain with -Zsanitizer=thread is available)
#
# Performance is measured by perfbench (perfbench/README.md), not here.
#
# Tier-1 verify (must stay green; see ROADMAP.md):
#   cargo build --release && cargo test -q

set -euo pipefail
cd "$(dirname "$0")"

quick=0
sanitize=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --sanitize) sanitize=1 ;;
        *) echo "ci.sh: unknown argument $arg" >&2; exit 2 ;;
    esac
done

step() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "fbe-lint --deny (workspace static analysis; see README: Static analysis)"
cargo run -q -p fbe-lint -- --deny

# First-party crates only: the vendored stand-ins under vendor/ are
# not held to the doc gate (vendored proptest has its own warning).
step "cargo doc --no-deps with RUSTDOCFLAGS=-D warnings (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline \
    -p bigraph -p fair-biclique -p fbe-datasets -p fbe-bench -p fbe-cli \
    -p fbe-service -p fbe-lint -p fbe-integration -p fbe-examples

if [[ $sanitize -eq 1 ]]; then
    step "cargo +nightly test -p fbe-service under ThreadSanitizer (best-effort)"
    # TSan needs a nightly toolchain with the matching std source or
    # prebuilt sanitizer runtimes; in environments without one this
    # step reports and moves on rather than failing the gate.
    host=$(rustc -vV | sed -n 's/^host: //p')
    if rustup run nightly rustc --version >/dev/null 2>&1; then
        if RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -p fbe-service --target "$host" -q; then
            echo "TSan pass clean."
        else
            echo "TSan run failed or is unsupported here; not gating on it." >&2
        fi
    else
        echo "No nightly toolchain available; skipping the TSan pass." >&2
    fi
fi

if [[ $quick -eq 0 ]]; then
    step "cargo build --release (tier-1)"
    cargo build --release
fi

step "cargo test -q (tier-1)"
cargo test -q

# Bench targets and smoke runs build in release; in --quick mode run
# the smoke steps against the debug profile and skip the bench build
# so no release compilation happens at all.
if [[ $quick -eq 0 ]]; then
    step "cargo bench --no-run (all 14 bench targets must compile)"
    cargo bench --no-run
    # perfbench is its own workspace over path deps on crates/: this
    # fails the gate when an API change breaks it, or when a dependency
    # change would rewrite perfbench/Cargo.lock (--locked).
    step "perfbench: cargo build --release --offline --locked (benchmark builds against this tree)"
    CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked \
        --manifest-path perfbench/Cargo.toml
    profile_flag=(--release)
    bindir=target/release
else
    profile_flag=()
    bindir=target/debug
fi

step "smoke: cargo run --example quickstart"
cargo run "${profile_flag[@]}" --example quickstart >/dev/null

step "smoke: cargo run --bin fbe -- --help"
cargo run "${profile_flag[@]}" --bin fbe -- --help >/dev/null

step "smoke: parallel engine — sorted (all four models), count, top-k and maximum (single- and bi-side) output identical at 1 vs 4 threads"
smokedir=$(mktemp -d)
serve_pid=""
shard1_pid=""
shard2_pid=""
coord_pid=""
trap 'for p in "$serve_pid" "$shard1_pid" "$shard2_pid" "$coord_pid"; do
          [[ -n "$p" ]] && kill "$p" 2>/dev/null || true
      done; rm -rf "$smokedir"' EXIT
cargo run "${profile_flag[@]}" --bin fbe -- \
    generate --uniform 40,40,300 --seed 11 --out "$smokedir/g" >/dev/null
cargo run "${profile_flag[@]}" --bin fbe -- \
    enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 --sorted --threads 1 \
    > "$smokedir/t1.out"
cargo run "${profile_flag[@]}" --bin fbe -- \
    enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 --sorted --threads 4 \
    > "$smokedir/t4.out"
diff "$smokedir/t1.out" "$smokedir/t4.out"
# The other three models run the same walk through the other
# expanders: bi-side, proportion, and proportion bi-side.
for model in "--bi" "--theta 0.4" "--bi --theta 0.4"; do
    for t in 1 4; do
        # shellcheck disable=SC2086 # $model holds one or more words
        cargo run "${profile_flag[@]}" --bin fbe -- \
            enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 2 $model --sorted --threads "$t" \
            > "$smokedir/model_t$t.out"
    done
    diff "$smokedir/model_t1.out" "$smokedir/model_t4.out"
done
# Every streaming mode runs the same prepared path at any thread
# count: count-only, top-k and maximum must match too, single-side and
# through the bi-side chain.
for model in "" "--bi"; do
    for mode in "enumerate --count-only" "enumerate --top 5" "maximum"; do
        read -r cmd flags <<< "$mode"
        for t in 1 4; do
            # shellcheck disable=SC2086 # $flags and $model hold zero or more words
            cargo run "${profile_flag[@]}" --bin fbe -- \
                "$cmd" "$smokedir/g" --alpha 2 --beta 1 --delta 1 $flags $model --threads "$t" \
                > "$smokedir/mode_t$t.out"
        done
        diff "$smokedir/mode_t1.out" "$smokedir/mode_t4.out"
    done
done

step "smoke: count-only counts equal the collected result lines (plain, proportion and bi-side, at 1 and 4 threads)"
# Count mode takes whole subtrees of the expansion as one number;
# collect mode lists every result. Both must agree.
for model in "" "--theta 0.4" "--bi"; do
    for t in 1 4; do
        # shellcheck disable=SC2086 # $model holds zero or more words
        counted=$(cargo run "${profile_flag[@]}" --bin fbe -- \
            enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 $model --count-only --threads "$t" \
            | sed -n 's/^[A-Z]* count: //p')
        # shellcheck disable=SC2086 # $model holds zero or more words
        listed=$(cargo run "${profile_flag[@]}" --bin fbe -- \
            enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 $model --threads "$t" \
            | awk '/^  L=/ { n++ } END { print n + 0 }')
        if [[ -z "$counted" || "$counted" != "$listed" ]]; then
            echo "count-only says ${counted:-nothing}, collect lists $listed ($model, $t threads)"
            exit 1
        fi
    done
done

step "smoke: candidate substrates — sorted output identical bitset vs sorted-vec"
cargo run "${profile_flag[@]}" --bin fbe -- \
    enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 --sorted \
    --substrate sorted-vec > "$smokedir/sv.out"
cargo run "${profile_flag[@]}" --bin fbe -- \
    enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 --sorted \
    --substrate bitset > "$smokedir/bit.out"
diff "$smokedir/sv.out" "$smokedir/bit.out"
cargo run "${profile_flag[@]}" --bin fbe -- \
    enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 --sorted \
    --substrate bitset --threads 4 > "$smokedir/bit4.out"
diff "$smokedir/sv.out" "$smokedir/bit4.out"

step "smoke: baselines — nsf and bcem sorted output identical to the default bcem++, single- and bi-side"
for model in "" "--bi"; do
    # shellcheck disable=SC2086 # $model holds zero or one word
    cargo run "${profile_flag[@]}" --bin fbe -- \
        enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 $model --sorted \
        > "$smokedir/pp.out"
    for algo in nsf bcem; do
        # shellcheck disable=SC2086 # $model holds zero or one word
        cargo run "${profile_flag[@]}" --bin fbe -- \
            enumerate "$smokedir/g" --alpha 2 --beta 1 --delta 1 $model --sorted \
            --algo "$algo" > "$smokedir/$algo.out"
        diff "$smokedir/pp.out" "$smokedir/$algo.out"
    done
done

step "smoke: fbe enumerate and maximum in every output mode equal tests/golden/cli_smoke.txt"
# Pins the CLI's stdout across commits, where the steps above compare
# runs within one commit. Each run prints a "# <subcommand> <flags>"
# line, then its stdout, in this loop's order.
run_logged() {
    echo "#" "$@"
    "$bindir/fbe" "$1" "$smokedir/g" "${@:2}"
}
{
    for model in "" "--bi" "--theta 0.4" "--bi --theta 0.4"; do
        for mode in "--sorted" "--count-only" "--top 3"; do
            # shellcheck disable=SC2086 # $model and $mode hold zero or more words
            run_logged enumerate --alpha 2 --beta 1 --delta 1 $model $mode
        done
    done
    for model in "" "--bi"; do
        for algo in nsf bcem; do
            # shellcheck disable=SC2086 # $model holds zero or one word
            run_logged enumerate --alpha 2 --beta 1 --delta 1 $model --algo "$algo" --count-only
        done
        for metric in vertices edges; do
            for t in 1 4; do
                # shellcheck disable=SC2086 # $model holds zero or one word
                run_logged maximum --alpha 2 --beta 1 --delta 1 $model --metric "$metric" --threads "$t"
            done
        done
    done
} > "$smokedir/cli_smoke.out"
diff tests/golden/cli_smoke.txt "$smokedir/cli_smoke.out"

step "smoke: fbe prune — FCore and colorful cores, single- and bi-side, equal tests/golden/prune_smoke.txt"
# The golden file holds one line per (alpha, beta), kind and side, in
# this loop's order.
for ab in "2 1" "3 2"; do
    read -r a b <<< "$ab"
    for kind in fcore colorful; do
        for bi in "" "--bi"; do
            # shellcheck disable=SC2086 # $bi holds zero or one word
            "$bindir/fbe" prune "$smokedir/g" --alpha "$a" --beta "$b" --kind "$kind" $bi
        done
    done
done > "$smokedir/prune.out"
diff tests/golden/prune_smoke.txt "$smokedir/prune.out"

step "smoke: fbe prune on the benchmark graphs — equal tests/golden/prune_bench.txt"
# The Youtube analog and enum-heavy's uniform graph, at serve-mix's
# eight (alpha, beta) pairs plus (3, 2) and (5, 5). Each group starts
# with a "# graph alpha beta" line, then one line per kind and side.
"$bindir/fbe" generate --dataset youtube --out "$smokedir/yt" >/dev/null
"$bindir/fbe" generate --uniform 300,300,9000 --seed 7 --out "$smokedir/un" >/dev/null
for graph in yt un; do
    for ab in "4 8" "6 8" "8 8" "10 8" "5 6" "9 6" "4 10" "8 10" "3 2" "5 5"; do
        read -r a b <<< "$ab"
        echo "# $graph $a $b"
        for kind in fcore colorful; do
            for bi in "" "--bi"; do
                # shellcheck disable=SC2086 # $bi holds zero or one word
                "$bindir/fbe" prune "$smokedir/$graph" --alpha "$a" --beta "$b" --kind "$kind" $bi
            done
        done
    done
done > "$smokedir/prune_bench.out"
diff tests/golden/prune_bench.txt "$smokedir/prune_bench.out"

step "smoke: fbe serve — scripted session (cache hit + mutations + shutdown)"
# The smoke graph from above is reused; the server picks an ephemeral
# port and prints it, the client script LOADs, runs the same query
# twice (the second must come from the plan cache), mutates the graph
# through the dynamic verbs (a pendant edge on a fresh vertex never
# meets alpha=2, so the cached plan must survive every update), checks
# STATS, and shuts the server down. Any hang fails via the bounded
# wait loops.
"$bindir/fbe" serve --port 0 --workers 2 > "$smokedir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^fbe-service listening on //p' "$smokedir/serve.log" | head -n1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "fbe serve did not report its address"; exit 1; }
cat > "$smokedir/session.fbe" <<EOF
LOAD g $smokedir/g
ENUM g ssfbc alpha=2 beta=1 delta=1
ENUM g ssfbc alpha=2 beta=1 delta=1
ADDVERTEX g lower attr=0
ADDEDGE g 0 40
DELEDGE g 0 40
ENUM g ssfbc alpha=2 beta=1 delta=1
STATS
TRACE on
ENUM g ssfbc alpha=1 beta=1 delta=1 deadline-ms=0 count-only
METRICS
SLOWLOG
SHUTDOWN
EOF
"$bindir/fbe" batch --connect "$addr" "$smokedir/session.fbe" > "$smokedir/session.out"
grep -q "cached=false" "$smokedir/session.out"
grep -q "vertex=40" "$smokedir/session.out"
grep -q "edges=301" "$smokedir/session.out"
grep -q "edges=300" "$smokedir/session.out"
# Both the repeat query and the post-mutation query hit the cache: all
# three updates were provably outside the (2, 1) core.
[[ $(grep -c "cached=true" "$smokedir/session.out") -eq 2 ]]
[[ $(grep -c "plans_kept=1" "$smokedir/session.out") -eq 3 ]]
grep -q "^plan_cache_hits 2$" "$smokedir/session.out"
grep -q "^plan_cache_invalidated 0$" "$smokedir/session.out"
grep -q "^updates_applied 3$" "$smokedir/session.out"
# Observability verbs: the traced zero-deadline query truncates and is
# recorded; METRICS speaks Prometheus; SLOWLOG replays the span tree.
grep -q "^OK trace=on$" "$smokedir/session.out"
grep -q "truncated=deadline" "$smokedir/session.out"
grep -q "^# span " "$smokedir/session.out"
grep -q "^# TYPE fbe_query_latency_us histogram$" "$smokedir/session.out"
grep -q 'le="+Inf"' "$smokedir/session.out"
grep -q "^query seq=.* truncated=deadline q=ENUM g ssfbc" "$smokedir/session.out"
grep -q "^OK bye$" "$smokedir/session.out"
for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "fbe serve did not exit after SHUTDOWN"
    exit 1
fi
wait "$serve_pid"
serve_pid=""

step "smoke: fbe serve --shards — 2-shard coordinator matches single-process"
# Two shard servers plus a coordinator, all on ephemeral ports. The
# same session runs once against the in-process engine and once
# against the coordinator, in every ENUM mode. The result lines of
# the exact queries must be byte-identical, and every ENUM reply's
# count= and truncated= fields must agree (status lines carry
# elapsed_us and are not diffed whole). The capped maximum query
# (limit=1) answers a lower bound whose winner may differ, so only
# its count= and truncated= are compared.
# The coordinator's listen line carries a " (coordinator)" role
# suffix, so the address capture takes only the first token.
get_addr() { sed -n 's/^fbe-service listening on \([^ ]*\).*/\1/p' "$1" | head -n1; }
"$bindir/fbe" serve --port 0 > "$smokedir/shard1.log" &
shard1_pid=$!
"$bindir/fbe" serve --port 0 > "$smokedir/shard2.log" &
shard2_pid=$!
s1=""; s2=""
for _ in $(seq 1 100); do
    s1=$(get_addr "$smokedir/shard1.log")
    s2=$(get_addr "$smokedir/shard2.log")
    [[ -n "$s1" && -n "$s2" ]] && break
    sleep 0.1
done
[[ -n "$s1" && -n "$s2" ]] || { echo "shard servers did not report addresses"; exit 1; }
"$bindir/fbe" serve --port 0 --shards "$s1,$s2" > "$smokedir/coord.log" &
coord_pid=$!
coord_addr=""
for _ in $(seq 1 100); do
    coord_addr=$(get_addr "$smokedir/coord.log")
    [[ -n "$coord_addr" ]] && break
    sleep 0.1
done
[[ -n "$coord_addr" ]] || { echo "coordinator did not report its address"; exit 1; }
grep -q "(coordinator)" "$smokedir/coord.log"
cat > "$smokedir/shard_session.fbe" <<EOF
LOAD g $smokedir/g
ENUM g ssfbc alpha=2 beta=1 delta=1
ENUM g ssfbc alpha=2 beta=1 delta=1 count-only
ENUM g ssfbc alpha=2 beta=1 delta=1 max=edges
SHUTDOWN
EOF
cat > "$smokedir/shard_capped.fbe" <<EOF
LOAD g $smokedir/g
ENUM g ssfbc alpha=2 beta=1 delta=1 max=vertices limit=1
EOF
# One "count=<n> truncated=<reason|->" line per ENUM reply.
enum_fields() {
    awk '/^OK model=/ { c = "count=?"; t = "truncated=-"
        for (i = 1; i <= NF; i++) { if ($i ~ /^count=/) c = $i; if ($i ~ /^truncated=/) t = $i }
        print c, t }' "$@"
}
"$bindir/fbe" batch "$smokedir/shard_capped.fbe" > "$smokedir/solo_capped.out"
"$bindir/fbe" batch "$smokedir/shard_session.fbe" > "$smokedir/solo.out"
"$bindir/fbe" batch --connect "$coord_addr" "$smokedir/shard_capped.fbe" > "$smokedir/coord_capped.out"
"$bindir/fbe" batch --connect "$coord_addr" "$smokedir/shard_session.fbe" > "$smokedir/coord.out"
grep '^L=\[' "$smokedir/solo.out" > "$smokedir/solo.lines"
grep '^L=\[' "$smokedir/coord.out" > "$smokedir/coord.lines"
[[ -s "$smokedir/solo.lines" ]] || { echo "smoke query returned no results"; exit 1; }
diff "$smokedir/solo.lines" "$smokedir/coord.lines"
enum_fields "$smokedir/solo.out" "$smokedir/solo_capped.out" > "$smokedir/solo.fields"
enum_fields "$smokedir/coord.out" "$smokedir/coord_capped.out" > "$smokedir/coord.fields"
[[ $(wc -l < "$smokedir/solo.fields") -eq 4 ]] || { echo "expected 4 ENUM replies"; exit 1; }
grep -q "truncated=result-cap" "$smokedir/solo_capped.out"
diff "$smokedir/solo.fields" "$smokedir/coord.fields"
grep -q "^OK bye$" "$smokedir/coord.out"
# SHUTDOWN fans to the shards; all three processes must exit.
for pid in "$coord_pid" "$shard1_pid" "$shard2_pid"; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "sharded serve smoke: pid $pid did not exit after SHUTDOWN"
        exit 1
    fi
    wait "$pid"
done
coord_pid=""; shard1_pid=""; shard2_pid=""

printf '\n\033[1;32mCI green.\033[0m\n'
