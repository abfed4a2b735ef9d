#!/usr/bin/env bash
# Full pre-change gate: build, tests, formatting, lints. Entirely offline —
# everything it needs ships with the repo and the Rust toolchain.
#
#   ./scripts/check.sh            # run everything
#   ./scripts/check.sh --fast     # skip the release build
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo build --workspace
if [[ $fast -eq 0 ]]; then
    run cargo build --workspace --release
fi
run cargo test --quiet --workspace
# Range-finder stress gate: 600,000 fixed-seed ladder inputs (ratios at
# exact (1+ε) steps, nudged by an ulp) must emit exactly the ranges of
# range::oracle, with pairwise distinct gene sets, which the finder
# guarantees by construction instead of a dedupe. About 5 s in release
# on a 2-vCPU host.
run cargo test --release --quiet -p tricluster-core --lib ladder_stress -- --ignored
run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
# Doc gate: no broken or private intra-doc links (a deleted function must
# not leave dangling links behind).
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Benchmark-build gate: e2ebench/ is its own cargo workspace that imports
# the library crates by path, so the workspace build above never compiles
# it. Build it and run its unit tests, in the same gitignored target dir
# e2ebench/run.sh uses, so a change to an API it imports fails here. The
# build must leave every file under e2ebench/ as it found it: without
# --locked, cargo rewrites e2ebench/Cargo.lock silently after a dependency
# edit to a crate e2ebench imports, and the benchmark may not change.
bench_files() {
    find e2ebench -path e2ebench/target -prune -o -type f -print0 | sort -z | xargs -0 sha256sum
}
bench_before=$(bench_files)
run env CARGO_TARGET_DIR=.bench_build \
    cargo test --quiet --offline --manifest-path e2ebench/Cargo.toml
if ! bench_diff=$(diff <(echo "$bench_before") <(bench_files)); then
    echo "error: building e2ebench changed files under e2ebench/:" >&2
    echo "$bench_diff" >&2
    exit 1
fi

# Schema gate: a real `mine --report-json` run must emit a valid
# tricluster.report/v2 document (validated in-process, no external tools).
run cargo test --quiet -p tricluster-cli report_json_matches_v2_schema

# Work-budget gate: every report counter of five fixed mines (Table 1,
# the 3-slice input below with and without δ thresholds, the wide 2-slice
# input below, and a 16-slice input) must
# equal scripts/work_budget.json exactly. The counters are deterministic,
# so this perf gate cannot be noisy: `bicluster.dfs.range_tests` and
# `tricluster.coherence.computed` pin the work candidate inheritance and
# the coherence memo save. A failure lists each differing counter (a rise
# is a regression) and prints the input's actual object; move the budget
# only by pasting that object in by hand, and name the edit in CHANGES.md.
run cargo test --quiet --test work_budget

# Fault-injection gate: every named failpoint site, hit with every action,
# must degrade into a typed error or a valid truncated subset — never a
# process abort — and budget-truncated runs must stay deterministic.
# (These compile tricluster-core with the `failpoints` feature; release
# binaries compile the sites to nothing. The suite includes the JSON-lines
# torn-line regression: a panic mid-event must never tear the stream.)
run cargo test --quiet --test fault_injection
run cargo test --quiet --test fault_injection jsonlines_panic_never_tears_a_line
run cargo test --quiet --test cancellation

# Unwrap-budget gate: panics in crates/core are either isolated at worker
# boundaries or converted to typed errors, so the count of potentially
# panicking call sites must not creep up. Lower the baseline when you
# remove some; raising it needs a deliberate edit of the baseline file.
unwrap_count=$(grep -rEo '\.unwrap\(\)|\.expect\(|panic!\(' crates/core/src | wc -l)
unwrap_budget=$(tr -dc '0-9' < scripts/unwrap_budget.txt)
echo
echo "==> unwrap budget: $unwrap_count potentially panicking call sites in crates/core/src (budget $unwrap_budget)"
if (( unwrap_count > unwrap_budget )); then
    echo "error: crates/core/src has $unwrap_count unwrap()/expect(/panic!( call sites," >&2
    echo "       exceeding the committed budget of $unwrap_budget (scripts/unwrap_budget.txt)." >&2
    echo "       Prefer typed errors or worker isolation; raise the budget only deliberately." >&2
    exit 1
fi

# A/B-script gate: scripts/ab.sh --dry-run must plan one run per side for
# every (seed, workload), the parent first on odd seeds and the change first
# on even ones, and compare exactly the documents it planned.
ab_plan=$(scripts/ab.sh . . --seeds 1-2 --workloads mine-deep,serve-open \
    --seconds 1 --out /tmp/tricluster-ab-smoke --dry-run)
ab_runs=$(grep -c '^ab: \[' <<<"$ab_plan")
ab_first=$(grep '^ab: \[' <<<"$ab_plan" | sed -n '1p;5p' | cut -d' ' -f3 | tr -d '\n')
ab_docs=$(grep '^ab: compare:' <<<"$ab_plan" | grep -o 'seed[0-9]*-timed.json' | wc -l)
echo
echo "==> ab.sh plan: $ab_runs runs, sides first $ab_first, $ab_docs documents compared"
if [[ $ab_runs != 8 || $ab_first != "A:B:" || $ab_docs != 8 ]]; then
    echo "error: scripts/ab.sh --dry-run planned the wrong A/B (want 8 runs, A: then B:, 8 documents):" >&2
    echo "$ab_plan" >&2
    exit 1
fi

if [[ $fast -eq 0 ]]; then
    det_tsv="$(mktemp /tmp/tricluster-det-XXXXXX.tsv)"
    det_t1="$(mktemp /tmp/tricluster-det-t1-XXXXXX.json)"
    det_t2="$(mktemp /tmp/tricluster-det-t2-XXXXXX.json)"
    det_t4="$(mktemp /tmp/tricluster-det-t4-XXXXXX.json)"
    det_crlf="$(mktemp /tmp/tricluster-det-crlf-XXXXXX.tsv)"
    det_crlf_json="$(mktemp /tmp/tricluster-det-crlf-XXXXXX.json)"
    wide_tsv="$(mktemp /tmp/tricluster-wide-XXXXXX.tsv)"
    wide_t1="$(mktemp /tmp/tricluster-wide-t1-XXXXXX.json)"
    wide_t3="$(mktemp /tmp/tricluster-wide-t3-XXXXXX.json)"
    fanout_log="$(mktemp /tmp/tricluster-fanout-XXXXXX.log)"
    trace_json="$(mktemp /tmp/tricluster-trace-XXXXXX.json)"
    flame_txt="$(mktemp /tmp/tricluster-flame-XXXXXX.folded)"
    ledger_dir="$(mktemp -d /tmp/tricluster-ledger-XXXXXX)"
    met_tsv="$(mktemp /tmp/tricluster-met-XXXXXX.tsv)"
    met_base="$(mktemp /tmp/tricluster-met-base-XXXXXX.json)"
    met_json="$(mktemp /tmp/tricluster-met-XXXXXX.json)"
    met_log="$(mktemp /tmp/tricluster-met-XXXXXX.log)"
    serve_log="$(mktemp /tmp/tricluster-serve-XXXXXX.log)"
    serve_json="$(mktemp /tmp/tricluster-serve-XXXXXX.json)"
    serve_ledger="$(mktemp -d /tmp/tricluster-serve-ledger-XXXXXX)"
    serve_access="$(mktemp /tmp/tricluster-serve-access-XXXXXX.jsonl)"
    serve_pid=""
    trap 'rm -f "$det_tsv" "$det_t1" "$det_t2" "$det_t4" "$det_crlf" "$det_crlf_json" "$wide_tsv" "$wide_t1" "$wide_t3" "$fanout_log" "$trace_json" "$flame_txt" "$met_tsv" "$met_base" "$met_json" "$met_log" "$serve_log" "$serve_json" "$serve_access"; rm -rf "$ledger_dir" "$serve_ledger"; [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null' EXIT

    # Kernel-smoke gate: the per-pair range-kernel microbenchmark must run
    # end to end and report every stage (transpose/pair/classify/ranges/
    # intersect) and the range test's scan-vs-walk crossover grid. No
    # thresholds — per-stage nanoseconds are too machine-dependent to gate
    # on; the smoke exists so the harness itself cannot silently rot.
    run cargo run --release --quiet -p tricluster-bench --bin bench -- \
        kernel --genes 100 --min-ms 5

    # mine_fanout RANGE_GRAPH BICLUSTER ARGS...: `tricluster mine -v ARGS`,
    # whose `-v` fan-out line on stderr must name the given levels.
    mine_fanout() {
        local rg=$1 bc=$2
        shift 2
        if ! run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
            mine -v "$@" 2> "$fanout_log"; then
            cat "$fanout_log" >&2
            exit 1
        fi
        if ! grep -q "^fanout: range-graph at $rg level, bicluster DFS at $bc level" "$fanout_log"; then
            echo "error: expected $rg/$bc fan-out, got: $(grep '^fanout:' "$fanout_log")" >&2
            exit 1
        fi
    }

    # Determinism gate: the same input mined at --threads 1, --threads 2
    # (slice-level fan-out: as many slices as threads or more) and
    # --threads 4 (intra-slice pair/branch fan-out: more threads than
    # slices) must produce byte-identical input-determined report sections —
    # clusters, counters, histograms, logical memory, search space.
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        synth "$det_tsv" --genes 300 --samples 10 --times 3 --clusters 3 --noise 0.01
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        mine "$det_tsv" --eps 0.012 --threads 1 --report-json "$det_t1"
    mine_fanout slice slice "$det_tsv" --eps 0.012 --threads 2 --report-json "$det_t2"
    mine_fanout pair branch "$det_tsv" --eps 0.012 --threads 4 --report-json "$det_t4"
    run cargo run --release --quiet -p tricluster-bench --bin bench -- \
        determinism "$det_t1" "$det_t2"
    run cargo run --release --quiet -p tricluster-bench --bin bench -- \
        determinism "$det_t1" "$det_t4"
    # Popcount gate: .cargo/config.toml builds x86_64 binaries for
    # x86-64-v2, so every count_ones in the bitset kernels is one `popcnt`.
    # An exported RUSTFLAGS replaces that setting silently, so on x86_64
    # hosts the release binary must report hardware popcount among the
    # compile-time CPU features `mine -v` prints.
    if [[ $(uname -m) == x86_64 ]]; then
        run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
            mine -v "$det_tsv" --eps 0.012 2> "$fanout_log" >/dev/null
        features=$(grep '^cpu features:' "$fanout_log" || true)
        if ! grep -Eq ' popcnt( |$)' <<< "$features"; then
            echo "error: the release binary has no hardware popcount (\"$features\");" >&2
            echo "       does an exported RUSTFLAGS override .cargo/config.toml?" >&2
            exit 1
        fi
        echo "==> popcount gate: $features"
    fi
    # Ingest determinism gate: the same input in the format variants the
    # reader documents — a preamble line before the first `# time`, a
    # `# note` comment after every header, CRLF line endings — must mine to
    # the same input-determined report sections as the plain file.
    awk 'BEGIN { print "preamble: lines before the first # time are ignored" }
         { print }
         /^# time/ || /^gene\t/ { print "# note" }' "$det_tsv" | sed 's/$/\r/' > "$det_crlf"
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        mine "$det_crlf" --eps 0.012 --threads 1 --report-json "$det_crlf_json"
    run cargo run --release --quiet -p tricluster-bench --bin bench -- \
        determinism "$det_t1" "$det_crlf_json"
    # The same gate on a wide 2-slice input, where BICLUSTER does most of
    # the work: the branch-parallel DFS (3 threads on 2 slices) must
    # reproduce the serial one.
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        synth "$wide_tsv" --genes 2000 --samples 12 --times 2 --noise 0.03
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        mine "$wide_tsv" --eps 0.135 --mx 40 --my 4 --threads 1 --report-json "$wide_t1"
    mine_fanout pair branch \
        "$wide_tsv" --eps 0.135 --mx 40 --my 4 --threads 3 --report-json "$wide_t3"
    run cargo run --release --quiet -p tricluster-bench --bin bench -- \
        determinism "$wide_t1" "$wide_t3"

    # Trace-smoke gate: a multi-threaded run with a live timeline and
    # heartbeat must still exit 0 and leave a non-empty Chrome Trace Event
    # file that covers every pipeline stage, the quality metrics included
    # (the in-process test trace_out_writes_valid_chrome_trace validates
    # its structure; this exercises the release binary).
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        mine "$det_tsv" --eps 0.012 --threads 2 --trace-out "$trace_json" --progress=0.1
    if [[ ! -s "$trace_json" ]] || ! grep -q '"traceEvents"' "$trace_json"; then
        echo "error: --trace-out produced no usable trace at $trace_json" >&2
        exit 1
    fi
    if ! grep -q '"phase.metrics"' "$trace_json"; then
        echo "error: --trace-out lacks the phase.metrics stage at $trace_json" >&2
        exit 1
    fi
    echo "==> trace smoke: $(grep -c '"ph"' "$trace_json") events in $trace_json"

    # Ledger-smoke gate: two archived runs over the same input must list,
    # show, and diff through the release binary. The diff is exact: same
    # input and params, so no input-determined counter may rise and every
    # deterministic section must match (timings are shown, not judged).
    # The flamegraph export must be non-empty with phase-span roots, the
    # metrics stage among them.
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        mine "$det_tsv" --eps 0.012 --threads 1 --ledger "$ledger_dir" --flame-out "$flame_txt"
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        mine "$det_tsv" --eps 0.012 --threads 1 --ledger "$ledger_dir"
    if ! grep -q '^phase\.slices\.wall' "$flame_txt"; then
        echo "error: --flame-out produced no phase-rooted stacks at $flame_txt" >&2
        exit 1
    fi
    if ! grep -q '^phase\.metrics ' "$flame_txt"; then
        echo "error: --flame-out has no phase.metrics root at $flame_txt" >&2
        exit 1
    fi
    ids=$(cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        runs list "$ledger_dir" --ids)
    if [[ $(wc -l <<< "$ids") -ne 2 ]]; then
        echo "error: expected 2 archived runs in $ledger_dir, got: $ids" >&2
        exit 1
    fi
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        runs show "$ledger_dir" "$(head -n1 <<< "$ids")"
    echo
    echo "==> runs diff $ledger_dir" $ids
    if ! ledger_diff=$(cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
            runs diff "$ledger_dir" $ids) \
        || ! grep -qx 'deterministic sections match' <<< "$ledger_diff"; then
        echo "error: two runs of one input must diff exactly:" >&2
        echo "$ledger_diff" >&2
        exit 1
    fi
    echo "$ledger_diff"
    echo "==> ledger smoke: 2 runs archived, shown, and diffed in $ledger_dir"

    # Metrics-smoke gate: a mine with a live metrics endpoint must serve
    # /healthz, /metrics, and /progress *while mining* (the workload is
    # sized to run a couple of seconds; scrapes go through the release
    # binary's own `watch` client), and serving metrics must not change a
    # byte of the input-determined report sections relative to a plain run
    # at a different thread count.
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        synth "$met_tsv" --genes 1200 --samples 12 --times 4 --clusters 4 --noise 0.02
    run cargo run --release --quiet -p tricluster-cli --bin tricluster -- \
        mine "$met_tsv" --eps 0.012 --threads 1 --report-json "$met_base"
    echo
    echo "==> metrics smoke: mine --metrics-addr with live scrapes"
    ./target/release/tricluster mine "$met_tsv" --eps 0.012 --threads 4 \
        --metrics-addr 127.0.0.1:0 --report-json "$met_json" >/dev/null 2> "$met_log" &
    met_pid=$!
    met_url=""
    for _ in $(seq 1 500); do
        met_url=$(sed -n 's/^metrics: serving on //p' "$met_log" | head -n1)
        [[ -n "$met_url" ]] && break
        sleep 0.01
    done
    if [[ -z "$met_url" ]]; then
        echo "error: mine --metrics-addr never announced its endpoint (log: $(cat "$met_log"))" >&2
        exit 1
    fi
    ./target/release/tricluster watch "$met_url" --get /healthz | grep -q '^ok$'
    ./target/release/tricluster watch "$met_url" --get /metrics | grep -q '^# EOF$'
    ./target/release/tricluster watch "$met_url" --once | grep -q 'slices'
    if ! kill -0 "$met_pid" 2>/dev/null; then
        echo "error: mine finished before the scrapes — metrics smoke did not observe a live run" >&2
        wait "$met_pid" || true
        exit 1
    fi
    wait "$met_pid"
    echo "==> metrics smoke: scraped /healthz, /metrics, /progress mid-run at $met_url"
    run cargo run --release --quiet -p tricluster-bench --bin bench -- \
        determinism "$met_base" "$met_json"

    # Serve-smoke gate: the multi-tenant daemon must admit concurrent jobs,
    # shed load with a machine-readable 429 when its bounded queue fills,
    # degrade an over-quota job into a structured failed record, cancel a
    # job mid-flight, drain cleanly on POST /shutdown — and a job mined
    # through the daemon must reproduce the one-shot report byte-for-byte
    # across the input-determined sections (`bench determinism`).
    echo
    echo "==> serve smoke: daemon admission, backpressure, cancellation, drain"
    # stdout AND stderr go to the log: an inherited stdout would hold any
    # pipe this script writes to open for as long as the daemon lives.
    ./target/release/tricluster serve 127.0.0.1:0 --workers 1 --queue-depth 2 \
        --ledger "$serve_ledger" --access-log "$serve_access" > "$serve_log" 2>&1 &
    serve_pid=$!
    serve_url=""
    for _ in $(seq 1 500); do
        serve_url=$(sed -n 's/^serve: listening on //p' "$serve_log" | head -n1)
        [[ -n "$serve_url" ]] && break
        sleep 0.01
    done
    if [[ -z "$serve_url" ]]; then
        echo "error: serve never announced its endpoint (log: $(cat "$serve_log"))" >&2
        exit 1
    fi
    # Occupy the single worker with a multi-second job, then fill the queue:
    # one over-quota job (64-byte per-job memory cap, far below the matrix)
    # and one clean deterministic job behind it.
    long_id=$(./target/release/tricluster submit "$serve_url" "$met_tsv" \
        --eps 0.02 --threads 1 --label long 2>/dev/null)
    fail_id=$(./target/release/tricluster submit "$serve_url" "$det_tsv" \
        --max-memory 64 --label over-quota 2>/dev/null)
    det_id=$(./target/release/tricluster submit "$serve_url" "$det_tsv" \
        --eps 0.012 --label deterministic 2>/dev/null)
    # Queue capacity 2 is now exhausted: the next submission must shed with
    # a machine-readable queue_full rejection (submit exits non-zero).
    if shed=$(./target/release/tricluster submit "$serve_url" "$det_tsv" 2>&1); then
        echo "error: fourth submission was admitted past a full queue" >&2
        exit 1
    fi
    if ! grep -q 'queue_full' <<< "$shed"; then
        echo "error: shed submission carried no queue_full reason: $shed" >&2
        exit 1
    fi
    # Mid-job observability: with the long job still occupying the worker,
    # the daemon-lifetime exposition must be live, carry the serve
    # families, and be well-terminated.
    serve_metrics=$(./target/release/tricluster watch "$serve_url" --get /metrics)
    for needle in 'tricluster_serve_jobs_accepted_total 3' \
                  'tricluster_serve_jobs_rejected_queue_full_total 1' \
                  'tricluster_serve_workers_busy 1' \
                  '# TYPE tricluster_serve_job_queue_wait_seconds histogram' \
                  '# EOF'; do
        if ! grep -qF "$needle" <<< "$serve_metrics"; then
            echo "error: mid-job /metrics scrape lacks \"$needle\": $serve_metrics" >&2
            exit 1
        fi
    done
    # Kill the occupying job mid-flight; the daemon keeps serving.
    ./target/release/tricluster submit "$serve_url" --cancel "$long_id" >/dev/null
    # Wait out a clean job and collect its report; the queue may still be
    # full while the cancelled job winds down, so retry the submission
    # until a slot frees up. This one goes by path, so the daemon's file
    # read is held to the one-shot report below.
    submitted=0
    for _ in $(seq 1 40); do
        if ./target/release/tricluster submit "$serve_url" "$det_tsv" --eps 0.012 \
            --by-path --wait --report-json "$serve_json" >/dev/null 2>&1; then
            submitted=1
            break
        fi
        sleep 0.5
    done
    if (( submitted != 1 )); then
        echo "error: the deterministic serve job never completed" >&2
        exit 1
    fi
    ./target/release/tricluster watch "$serve_url" --get "/jobs/$fail_id" \
        | grep -q '"failed"' || {
        echo "error: over-quota job $fail_id is not a structured failed record" >&2
        exit 1
    }
    ./target/release/tricluster watch "$serve_url" --jobs | grep -q 'over-quota'
    # Request-scoped audit: the job's originating request id (from its
    # status) must appear in the access log on the submission record.
    det_rid=$(./target/release/tricluster watch "$serve_url" --get "/jobs/$det_id" \
        | tr -d ' ' | sed -n 's/.*"request_id":\([0-9]*\).*/\1/p' | head -n1)
    if [[ -z "$det_rid" ]]; then
        echo "error: job $det_id carries no request_id" >&2
        exit 1
    fi
    if ! grep "\"request_id\":$det_rid," "$serve_access" | grep -q "\"job_id\":$det_id"; then
        echo "error: access log has no record tying request $det_rid to job $det_id:" >&2
        cat "$serve_access" >&2
        exit 1
    fi
    # Graceful drain: stop admitting, finish in-flight, exit 0.
    ./target/release/tricluster submit "$serve_url" --shutdown drain >/dev/null
    wait "$serve_pid"
    serve_pid=""
    archived=$(./target/release/tricluster runs list "$serve_ledger" --ids | wc -l)
    if (( archived < 2 )); then
        echo "error: expected >=2 jobs archived by the draining daemon, got $archived" >&2
        exit 1
    fi
    echo "==> serve smoke: shed, scraped /metrics mid-job, audited request $det_rid, drained ($archived jobs archived) at $serve_url"
    # The served job ran under full observability (service metrics, access
    # log, lifecycle trace); its deterministic sections must still match
    # the unmonitored one-shot mine byte for byte.
    run cargo run --release --quiet -p tricluster-bench --bin bench -- \
        determinism "$det_t1" "$serve_json"
fi

# Size report (no gate): the non-test line count CHANGES.md quotes.
echo
echo "==> non-test lines: $(scripts/nontest_lines.sh)"

echo
echo "All checks passed."
