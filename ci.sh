#!/usr/bin/env bash
# Tier-1 gate: build, full test suite, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test -q --release --offline --no-fail-fast
# What telemetry serializes is a published contract, pinned by running the
# serializers: the fixed-seed mini-campaign's Perfetto trace, OpenMetrics exposition
# and `telemetry.json` summary are byte-pinned in tests/golden/, explicitly so drift
# fails loudly even when the suite above is filtered.
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
# The oracles of the two structures every campaign event goes through: the queue
# against its scan-based reference model (delivery order, receipt numbering,
# dead-letter order) and the kernel's integer-keyed heap against a stable sort.
cargo test -q --release --offline -p atlas-integration-tests --test sqs_props --test devent_props
# `--runThreadN` is real threads: `genomics::pool` is a persistent pool whose workers
# borrow the caller's stack through a lifetime-erased job pointer. It holds every
# `unsafe` line of the libraries (the other crates forbid `unsafe`, genomics denies
# it outside `pool`, and clippy rejects a block without a `// SAFETY:` comment), so
# its protocol tests (panic hand-back, concurrent callers, nested calls) and the
# crate's fill-as-a-map tests (each index filled once, every length and thread
# count) gate every merge, and so does the proof that nothing a run reports depends
# on the thread count or the schedule.
cargo test -q --release --offline -p genomics --lib
cargo test -q --release --offline -p atlas-integration-tests --test thread_invariance
# The shared batch loop (`BatchDriver::drive`) is where early stopping, spot cancellation,
# checkpoint resume and panic hand-back happen: its tests run by name in both runners.
cargo test -q --release --offline -p star-aligner --lib runner::
cargo test -q --release --offline -p pseudo-aligner --lib runner::
# What seeding costs in dependent index loads, counted per read on fixed-seed reads
# (`PhaseWork::seed_probes`): exact for the seed and equal at 1, 2 and 8 threads, so it
# gates the seed phase where wall-clock cannot. No MMP search may start at the root of
# the suffix array: the test checks the widest starting interval, the grep that the
# whole-array interval is named in `mmp.rs` by test code only (the refinement oracle).
cargo test -q --release --offline -p star-aligner --test seed_cost
if sed '/#\[cfg(test)\]/,$d' crates/star/src/mmp.rs | grep -n 'sa\.full()'; then
    echo "crates/star/src/mmp.rs: a search starts from sa.full() outside #[cfg(test)]" >&2
    exit 1
fi
# The index keeps the genome 2-bit packed, and nothing unpacks it: SA-IS reads the
# packing (`SuffixArray::build(&Packed2)`) and every prefix rung reads
# `Packed2::word_from`. Any `.unpack()` / `.to_codes()` outside test code under
# crates/star/src fails here.
unpacked=$(for f in $(find crates/star/src -name '*.rs' | sort); do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -E '\.(unpack|to_codes)\(' | sed "s|^|$f:|" || true
done)
if [ -n "$unpacked" ]; then
    printf '%s\n' "$unpacked" >&2
    echo "a byte-per-base copy of the genome under crates/star/src" >&2
    exit 1
fi
# The paper experiments share one substrate (both assemblies and indexes): the caller
# builds it, the `experiments` binary once per run, and passes it in. An experiment
# function that builds its own would rebuild both indexes per experiment.
if sed '/#\[cfg(test)\]/,$d' crates/atlas/src/experiments.rs | grep -n 'Substrate::build('; then
    echo "crates/atlas/src/experiments.rs: an experiment builds its own Substrate outside #[cfg(test)]" >&2
    exit 1
fi
# The event log's readers (`Query::run`, `RunProfile::from_event_log`) read each line in
# place through `json::Fields`; a `json::parse(` outside test code in either file would
# build a `JsonValue` tree per line again.
for f in crates/telemetry/src/query.rs crates/telemetry/src/diff.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'json::parse\(|json::\{[^}]*\bparse\b'; then
        echo "$f: a log reader calls json::parse( outside #[cfg(test)]: read lines with json::Fields" >&2
        exit 1
    fi
done
# What the per-read path asks the allocator for, counted: steady-state alignment, and
# alignment with a gene assignment, make no call; a whole quant-on run makes as many
# for 4 000 reads as for 400 (gene counting builds no record and allocates nothing).
cargo test -q --release --offline -p star-aligner --test zero_alloc
# What building an index costs the allocator, counted: the peak of live heap bytes per
# genome base, the calls and the bytes requested by `StarIndex::build` on both tiny
# releases, each a ceiling with a 0.9x floor.
cargo test -q --release --offline -p star-aligner --test index_build_alloc
cargo clippy --offline -- -D warnings
# Doc links are checked: a link to a deleted, renamed or private item, or an
# ambiguous one, fails here instead of rendering as plain text.
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --offline --workspace
# The detached benchmark crate (benchmarks/e2e) is a client of the public API and
# is not a workspace member, so nothing above compiles it: build it, read-only.
# `--locked` fails when a crate needs something its committed Cargo.lock does not
# list; it passes with a lock that lists *more* than the crates need (PR 23 deleted
# three shims under it), so deleting a dependency does not require touching
# benchmarks/e2e.
cargo build --release --offline --locked --manifest-path benchmarks/e2e/Cargo.toml
# Its own tests: the pin that BENCHMARK.json is what `spec.rs` emits, and the only
# code compiled against the probes' use of `Kernel` and `SqsQueue`.
cargo test --release --offline --locked --manifest-path benchmarks/e2e/Cargo.toml

# One timing instrument (atlas-e2e); every other performance gate is an exact counter, so no second harness grows back.
if [ "$(ls benchmarks)" != "e2e" ] || grep -rl --include=Cargo.toml '^\[\[bench\]\]' Cargo.toml crates shims tests examples; then
    echo "benchmarks/ holds more than e2e, or a crate declares a [[bench]] target" >&2
    exit 1
fi
# A test asserts on counters, not on the wall clock: a file under tests/ or the
# `#[cfg(test)]` part of a source file may not read a measured time (`.elapsed_secs`,
# `.measured_align_secs`, `.actual_secs`, Fig. 3's `.secs_108` / `.secs_111` /
# `.weighted_speedup`, `Instant::now`) inside an `assert`, directly or through a
# `let` it binds. There is no allow-list: a test that needs seconds charges modeled
# ones (`align_secs_per_read`) and asserts on those.
measured='\.(elapsed_secs|measured_align_secs|actual_secs|secs_108|secs_111|weighted_speedup)\b'
for f in $(grep -rlE "$measured|Instant::now" --include='*.rs' crates tests examples | sort); do
    case "$f" in */tests/*) test_code=$(cat "$f") ;; *) test_code=$(sed -n '/#\[cfg(test)\]/,$p' "$f") ;; esac
    if printf '%s' "$test_code" | MEASURED="$measured" perl -0777 -ne '
        my $read = qr/$ENV{MEASURED}/;
        my @names;
        while (/\blet\s+(?:mut\s+)?(\w+)[^=;]*=([^;]*);/g) { my ($n, $e) = ($1, $2); push @names, $n if $e =~ $read }
        my $names = join "|", @names;
        while (/\b(?:prop_)?assert(?:_eq|_ne)?!\s*(\((?:[^()]++|(?1))*\))/g) {
            my $args = $1;
            exit 0 if $args =~ $read || $args =~ /Instant::now/ || ($names ne "" && $args =~ /\b(?:$names)\b/);
        }
        exit 1'; then
        echo "$f: a test asserts on a measured time; assert on a counter (PhaseWork, seed probes) instead" >&2
        exit 1
    fi
done
# Goldens and tests, both ways: every file under tests/golden/ is named by a test
# (an orphan pins nothing), and every golden a test names —
# `assert_matches_golden("<file>", ..)` or a local `golden("<file>", ..)` — is
# committed, so a first run cannot pass by writing its own expectation.
for golden in $(ls tests/golden); do
    if ! grep -rqF "\"$golden\"" --include='*.rs' tests crates; then
        echo "tests/golden/$golden: no *.rs under tests/ or crates/ names it" >&2
        exit 1
    fi
done
for golden in $(grep -rhoE 'golden\("[A-Za-z0-9_.]+"' --include='*.rs' tests crates | cut -d'"' -f2 | sort -u); do
    if [ ! -f "tests/golden/$golden" ]; then
        echo "a test names the golden $golden, which is not under tests/golden/" >&2
        exit 1
    fi
done
# A shim is a directory under shims/ and a `path = "shims/<name>"` line in
# [workspace.dependencies], both or neither, and it runs code: the `serde`,
# `serde_derive` and `bytes` stand-ins (derives that expanded to nothing, a second
# byte cursor) stay deleted.
shim_dirs=$(ls shims | sort)
shim_deps=$(sed -n 's/.*path = "shims\/\([^"]*\)".*/\1/p' Cargo.toml | sort)
if [ "$shim_dirs" != "$shim_deps" ]; then
    echo "shims/ and [workspace.dependencies] differ (< directory only, > Cargo.toml only):" >&2
    diff <(echo "$shim_dirs") <(echo "$shim_deps") >&2 || true
    exit 1
fi
if grep -rnE 'derive\(.*(Serialize|Deserialize)|^use (serde|bytes)\b' crates tests examples; then
    echo "a serde derive or a serde / bytes import: nothing here links either crate" >&2
    exit 1
fi
# The campaign addresses per-accession state by handle (`campaign::Acc`, the submit
# index): a collection keyed by the accession's name must not grow back.
if grep -nE 'BTree(Map|Set)<String|HashMap<String' crates/atlas/src/campaign.rs \
    crates/atlas/src/campaign/state.rs crates/atlas/src/recovery.rs; then
    echo "string-keyed per-accession state in the campaign: key it by campaign::Acc" >&2
    exit 1
fi
# The campaign holds what it reads (`AccessionRun`, `Completion`), not what the pipeline produces.
if grep -n 'PipelineResult' crates/atlas/src/campaign.rs crates/atlas/src/campaign/state.rs; then
    echo "the campaign names PipelineResult: hold an AccessionRun or a Completion instead" >&2
    exit 1
fi
# What observers and an armed-but-idle recovery layer cost, counted under the
# counting allocator on three fixed-seed campaigns: exact for the seed, so the host's
# wall-clock drift cannot blur it (wall-clock stays with atlas-e2e's observed_fleet_20k).
cargo test -q --release --offline -p atlas-integration-tests --test observer_cost
# The SRA read path, counted the same way: fetch allocates per accession, never per read; the dump three times per read.
cargo test -q --release --offline -p sra-sim --test read_path_alloc
# Reading a saved event log, counted the same way: `Query::run` and
# `RunProfile::from_event_log` over a recorder-written log and over that log twice.
cargo test -q --release --offline -p telemetry --test read_path_alloc
