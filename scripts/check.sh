#!/usr/bin/env bash
# Full local quality gate: everything CI runs, in the same order.
#
#   scripts/check.sh            # build + test + fmt + clippy + doc
#   scripts/check.sh --quick    # skip the release build (fastest loop)
#
# The workspace builds fully offline: every external dependency is a
# vendored stub under vendor/ (see vendor/README.md), so no step here
# needs the crates registry.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() {
    echo
    echo "==> $*"
    "$@"
}

if [[ $quick -eq 0 ]]; then
    step cargo build --workspace --release
fi
step cargo test -q --workspace

# The benchmark package builds the workspace crates by path under its
# own lockfile: --locked fails here if a change breaks an API it uses
# or would rewrite perfbench/Cargo.lock.
step cargo test -q --locked --offline --manifest-path perfbench/Cargo.toml

# Chaos smoke: a real 3-server TCP cluster under the fixed-seed fault
# schedule (seeds 7/21/1999 inside the test) must converge with no
# document lost. Named explicitly so a chaos regression is visible as
# its own step, and reproducible from the printed seed
# (docs/RESILIENCE.md).
step cargo test -q -p dcws-net --test chaos_tests seeded_chaos_no_document_lost

step cargo fmt --all --check
step cargo clippy --workspace --all-targets -- -D warnings
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Bench-binary smoke: the figure harnesses, the cache-pressure sweep,
# and the contention sweeps must run end to end and emit their CSVs
# (quick mode keeps this fast). lockpress --quick runs 2 worker points
# on a short clock so lock regressions fail here, not in production;
# connpress --quick additionally exits nonzero if the pooled arm's
# connection reuse ratio is <= 0.9, so a silently disabled pool fails
# the gate; c10kpress --quick holds 1k keep-alive clients against the
# reactor front end and exits nonzero unless served concurrency beats
# the worker count with zero accept errors, so an event-loop
# regression fails here too; bigpress --quick serves a 2.8 MB corpus
# streamed vs buffered and exits nonzero unless streamed TTFB beats
# buffered and the cache admission rule protects the small-doc
# working set, so a broken streaming path fails the gate; scalepress
# --quick runs the simulator at 240 servers / 3,000 clients and exits
# nonzero unless every arm clears 10^5 sessions inside the wall-clock
# bound and the shared-bandwidth re-run reproduces its digest exactly,
# so an event-core scale or determinism regression fails the gate
# (docs/SIMULATION.md); corepress --quick sweeps reactor shards and
# exits nonzero unless every arm served with zero per-serve body copies
# (counter assertion) and — on hosts with >= 4 cores — the 4-shard arm
# beats 1.5× the 1-shard CPS, so a broken zero-copy path or an inert
# shard toggle fails here.
if [[ $quick -eq 0 ]]; then
    # Quick runs write under target/ so they never overwrite the
    # committed full-size artifacts in bench_results/.
    out=target/bench-quick
    step env DCWS_BENCH_OUT=$out DCWS_BENCH_QUICK=1 cargo run --release -q -p dcws-bench --bin fig6 -- --status-dump
    step env DCWS_BENCH_OUT=$out DCWS_BENCH_QUICK=1 cargo run --release -q -p dcws-bench --bin cachepress -- --status-dump
    step env DCWS_BENCH_OUT=$out cargo run --release -q -p dcws-bench --bin lockpress -- --quick
    step env DCWS_BENCH_OUT=$out cargo run --release -q -p dcws-bench --bin connpress -- --quick
    step env DCWS_BENCH_OUT=$out cargo run --release -q -p dcws-bench --bin c10kpress -- --quick
    step env DCWS_BENCH_OUT=$out cargo run --release -q -p dcws-bench --bin bigpress -- --quick
    step env DCWS_BENCH_OUT=$out cargo run --release -q -p dcws-bench --bin scalepress -- --quick
    step env DCWS_BENCH_OUT=$out cargo run --release -q -p dcws-bench --bin corepress -- --quick
    test -s $out/fig6.csv
    test -s $out/cachepress.csv
    test -s $out/lockpress.csv
    test -s $out/BENCH_lockpress.json
    test -s $out/connpress.csv
    test -s $out/BENCH_connpress.json
    test -s $out/c10kpress.csv
    test -s $out/BENCH_c10kpress.json
    test -s $out/bigpress.csv
    test -s $out/BENCH_bigpress.json
    test -s $out/scalepress.csv
    test -s $out/BENCH_scalepress.json
    test -s $out/corepress.csv
    test -s $out/BENCH_corepress.json
fi

echo
echo "All checks passed."
