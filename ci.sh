#!/usr/bin/env bash
# Tier-1 gate: build, full test suite, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test -q --release --offline --no-fail-fast
# Telemetry schema is a published contract: pin it against the committed golden
# explicitly so drift fails loudly even when the suite above is filtered.
cargo test -q --release --offline -p telemetry schema_matches_golden
# Same contract for the standard-format exporters: the fixed-seed mini-campaign's
# Perfetto trace and OpenMetrics exposition are byte-pinned in tests/golden/.
cargo test -q --release --offline -p atlas-integration-tests --test telemetry_export \
    perfetto_and_openmetrics_exports_match_goldens
# The trace-query layer's text rendering (group-by tables and the chaos diff
# attribution waterfall over the fixed-seed mini-campaign) is byte-pinned too:
# a drift here means either the query engine or the recorded log moved.
cargo test -q --release --offline -p atlas-integration-tests --test trace_query \
    trace_query_text_matches_golden
# The SLO engine's OpenMetrics exposition (sketch summaries, budget gauges,
# ledger rollups) is pinned the same way, alongside its pure-observer proof.
cargo test -q --release --offline -p atlas-integration-tests --test slo_campaign
# Replay determinism is a merge gate, not just a test: the discrete-event kernel
# must reproduce a campaign byte-for-byte from identical config + workload on
# chaos-seeded and fleet-scale campaigns, even when the suite above is filtered.
cargo test -q --release --offline -p atlas-integration-tests --test devent_diff
# Replay only proves a run agrees with itself. The absolute pins (digest, event
# count, stripped-log and OpenMetrics hashes of five fixed campaigns) are what
# catch a change that moves both sides of a replay together.
cargo test -q --release --offline -p atlas-integration-tests --test campaign_pins
# `--runThreadN` is real threads: the vendored rayon shim is a persistent pool with
# one lifetime-erasing `unsafe`, so its protocol tests (panic hand-back, concurrent
# installs, nested calls, drop joins) gate every merge, and so does the proof that
# nothing a run reports depends on the thread count or the schedule.
cargo test -q --release --offline -p rayon
cargo test -q --release --offline -p atlas-integration-tests --test thread_invariance
cargo clippy --offline -- -D warnings
# The detached benchmark crate (benchmarks/e2e) is a client of the public API and
# is not a workspace member, so nothing above compiles it: build it, read-only.
# `--locked` also fails if a crate's dependency set drifted from its committed
# Cargo.lock.
cargo build --release --offline --locked --manifest-path benchmarks/e2e/Cargo.toml

# Benches must keep compiling (they are not covered by `cargo test`), and the
# bench-regression comparator must accept the committed baseline against itself.
# Full bench runs stay manual (BENCH_JSON_DIR=... cargo bench -p atlas-bench,
# then bench_compare benchmarks/baseline <fresh_dir>): wall-clock means from a
# loaded CI box are not comparable to the pinned baseline.
cargo build --release --offline -p atlas-bench --benches
# Every criterion group named by a literal has a committed baseline, so a new group
# cannot land unmeasured. (The cloud_campaign* / spot_recovery_* groups take their
# names from a table; the --overhead gates below fail if their files are missing.)
for group in $(grep -rhoE 'benchmark_group\("[A-Za-z0-9_]+"\)' crates/bench/benches | cut -d'"' -f2 | sort -u); do
    if [ ! -f "benchmarks/baseline/BENCH_${group}.json" ]; then
        echo "criterion group ${group} has no benchmarks/baseline/BENCH_${group}.json" >&2
        exit 1
    fi
done
# The campaign addresses per-accession state by handle (`campaign::Acc`, the submit
# index): a collection keyed by the accession's name must not grow back.
if grep -nE 'BTree(Map|Set)<String|HashMap<String' crates/atlas/src/campaign.rs \
    crates/atlas/src/campaign/state.rs crates/atlas/src/recovery.rs; then
    echo "string-keyed per-accession state in the campaign: key it by campaign::Acc" >&2
    exit 1
fi
cargo build --release --offline -p atlas-bench --bin bench_compare
./target/release/bench_compare benchmarks/baseline benchmarks/baseline
# What the three --overhead steps below do and do not say. Each compares two
# *committed* files under benchmarks/baseline/ and executes no code from this
# tree: it checks the numbers captured when those files were last refreshed, not
# this commit. And the base cell of each pair is 120 accessions of real alignment
# with telemetry already on, so "within 2%" means "the monitor / the SLO engine /
# recovery adds under 2% to a campaign whose time is alignment and whose recorder
# is already running" — not that observing a campaign costs 2%. What observation
# costs is atlas-e2e's observed_fleet_20k (20 000 modeled accessions, so nothing
# but kernel and telemetry): telemetry.observer.overhead_frac there was 21-28
# before the one-sample-path change (PR 20) and 7.3 after, the recorder alone
# 2.9-3.0 (DESIGN.md "Live monitor" has the table).
#
# Monitor-overhead gate: the committed campaign baselines come from the
# bench_cloud_campaign binary, which times all three variants in one process,
# interleaved round-robin with a min-of-rounds estimator so machine-load drift
# cancels (see its module doc). Watching the campaign (live alert rules +
# streamed progress + rendered exports) must stay within 2% of running it
# unobserved. Refresh all three files together — run the capture 2-3 times on an
# idle box; BENCH_KEEP_MIN merges passes by keeping each cell's fastest run:
# BENCH_ITERS=10 BENCH_BEST_OF=10 BENCH_KEEP_MIN=1 BENCH_JSON_DIR=benchmarks/baseline \
#     cargo bench -p atlas-bench --bench bench_cloud_campaign
./target/release/bench_compare --overhead benchmarks/baseline \
    BENCH_cloud_campaign.json BENCH_cloud_campaign_monitor.json --tolerance 0.02
# Same bound for the SLO engine: sketches, burn-rate evaluation, budget gauges
# and the settlement-time attribution ledger together must stay within 2% of
# the unobserved campaign.
./target/release/bench_compare --overhead benchmarks/baseline \
    BENCH_cloud_campaign.json BENCH_cloud_campaign_slo.json --tolerance 0.02
# Recovery-overhead gate: arming graceful spot degradation (notice scheduling,
# checkpoint-store GC, resume lookups) on a fault-free campaign must
# stay within 2% of the recovery-off path. Captured by bench_spot_recovery with
# the same interleaved protocol as the campaign baselines.
./target/release/bench_compare --overhead benchmarks/baseline \
    BENCH_spot_recovery_off.json BENCH_spot_recovery_on.json --tolerance 0.02
