//! The `mine`, `synth`, `demo`, and `runs` subcommands.

use crate::args;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Duration;
use tricluster_core::obs::httpd::{http_get, http_get_retry, scrape_handler, HttpServer};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, IndexEntry, Ledger, NewEntry};
use tricluster_core::obs::metrics::Registry;
use tricluster_core::obs::progress::{Progress, ProgressSink, ProgressTicker};
use tricluster_core::obs::timeline::Timeline;
use tricluster_core::obs::{names, EventSink, Fanout, HistogramTap, JsonLinesSink, NullSink};
use tricluster_core::runreport;
use tricluster_core::{
    cluster_metrics_observed, mine_shifting, MergeParams, MineError, MiningResult, Params,
    Reported, Session,
};
use tricluster_matrix::{io, Labels, Matrix3};
use tricluster_synth::{generate, SynthSpec};

pub const USAGE: &str = "\
tricluster — mining coherent clusters in 3D microarray data (SIGMOD 2005)

USAGE:
  tricluster mine <stacked.tsv> [options]     mine a stacked-TSV 3D matrix
  tricluster synth <out.tsv> [options]        generate synthetic data
  tricluster demo [--export PATH]             run the paper's Table 1 example
                                              (or export it as a stacked TSV)
  tricluster runs <subcommand> ...            inspect an archived run ledger
  tricluster watch <URL> [options]            live-monitor a serving run
  tricluster serve <HOST:PORT> [options]      run the multi-tenant mining daemon
  tricluster submit <URL> <stacked.tsv> ...   submit a job to a serve daemon

MINE OPTIONS:
  --eps E          maximum ratio threshold ε             (default 0.01)
  --eps-time E     relaxed ε along the time dimension    (default: ε)
  --mx N           minimum genes per cluster             (default 3)
  --my N           minimum samples per cluster           (default 3)
  --mz N           minimum time points per cluster       (default 2)
  --delta-x D      max value range across genes per column
  --delta-y D      max value range across samples per row
  --delta-z D      max value range across times per fiber
  --merge ETA GAMMA    enable merge/delete post-processing
  --max-candidates N   bound the DFS search (truncates on exhaustion)
  --deadline SECS  wall-clock budget; on expiry the run stops cooperatively
                   and reports the clusters mined so far as truncated
  --max-memory B   logical-bytes budget for mined structures, with optional
                   K/M/G suffix (e.g. 64M); on exhaustion later slices are
                   dropped deterministically and the run reports truncated
  --threads N      worker threads for the per-slice phases (default: cores);
                   with more threads than time slices, each slice fans out
                   over its column pairs and DFS branches instead
  --shifting       mine shifting (additive) clusters via Lemma 2
  --auto           transpose so the largest dimension is mined as genes
  --names          print gene/sample/time names instead of indices
  --csv            emit clusters as CSV (cluster,shape,type,members)
  -v, -vv          phase timings (-vv adds counters, histograms, and the
                   search-space profile) on stderr
  --trace          stream per-decision trace events as JSON lines on stderr
                   (flushed per event)
  --explain        print the search-space profile (nodes expanded, prunes by
                   reason, dedup hits, histograms, memory) as JSON on stdout
  --report-json PATH   write the structured run report (spans, counters,
                       histograms, memory, search space) as JSON
  --trace-out PATH     write a timeline of the run in Chrome Trace Event
                       format (open in Perfetto or chrome://tracing; one
                       track per worker thread)
  --flame-out PATH     write the run's timeline as folded flamegraph stacks
                       (`phase;span;span N` self-time lines in microseconds,
                       loadable by inferno, speedscope, flamegraph.pl)
  --ledger DIR         archive the run (v2 report, timeline artifacts when
                       traced, dataset/params content hashes, build metadata)
                       into the append-only run ledger at DIR
  --progress[=SECS]    emit live progress snapshots as JSON lines on stderr
                       every SECS seconds (default 1.0): phase, slices/pairs/
                       branches done vs. total, candidates, bytes, budgets
  --metrics-addr HOST:PORT   serve live run metrics over HTTP for the
                       lifetime of the mine (port 0 picks one; the bound
                       address is printed on stderr): GET /metrics is
                       OpenMetrics text exposition (counters, phase timing
                       histograms, progress/budget gauges, live/peak heap
                       bytes under --features track-alloc), GET /progress a
                       JSON gauge snapshot, GET /healthz a liveness probe

WATCH OPTIONS (tricluster watch http://HOST:PORT):
  --interval SECS  poll /progress every SECS seconds (default 1.0) and
                   render a live one-line status; exits 0 when the watched
                   run's server goes away after at least one snapshot
  --once           print a single status snapshot and exit
  --get PATH       print one raw HTTP response body from URL+PATH (e.g.
                   --get /metrics scrapes a mine's — or a serve daemon's —
                   OpenMetrics exposition without external tooling)
  --jobs           print a serve daemon's job table (GET /jobs) and exit,
                   headed by its service counters and cache effectiveness

SERVE OPTIONS (tricluster serve HOST:PORT; port 0 picks one, the bound
address is printed on stderr; POST /shutdown drains the daemon):
  --workers N          concurrent mining jobs (default 2)
  --queue-depth N      most jobs waiting in the queue; further submissions
                       are shed with a machine-readable 429 (default 16)
  --memory-budget B    aggregate logical-bytes admission budget across all
                       queued + running matrices (K/M/G suffix allowed)
  --cap-deadline SECS, --cap-memory B, --cap-candidates N, --cap-threads N
                       server-wide ceilings clamped onto every job's
                       requested per-job budgets
  --max-body B         largest accepted request body (default 64M)
  --ledger DIR         archive every finished job's v2 report (plus its
                       Chrome trace with job-lifecycle instants) into the
                       run ledger at DIR (kind \"serve\"), flushed per job
  --cache-entries N    parsed datasets kept by the content-hash cache
                       (default 8; 0 disables)
  --access-log PATH    append one JSONL audit record per HTTP request:
                       request id, method, path, status, bytes, duration,
                       clamp verdict, shed reason. GET /metrics exposes the
                       daemon-lifetime counters, queue-wait/run/archive
                       histograms, and live gauges as OpenMetrics text

SUBMIT OPTIONS (tricluster submit http://HOST:PORT DATA.tsv):
  mine param flags     --eps/--mx/--my/--mz/--merge/--deadline/... forwarded
                       verbatim; the daemon parses them exactly like `mine`
  --label L            free-form job label for listings
  --by-path            send the dataset path instead of its bytes (the
                       daemon must see the same filesystem)
  --wait [--poll SECS] block until the job finishes (poll default 0.2s)
  --report-json PATH   with --wait: write the finished job's v2 report
  --cancel ID          cancel a queued or running job instead of submitting
  --shutdown MODE      drain | cancel: gracefully shut the daemon down

SYNTH OPTIONS:
  --genes N --samples N --times N --clusters N
  --noise F --overlap F --seed N

RUNS SUBCOMMANDS (over a --ledger DIR archive):
  runs list <DIR> [--ids]            list archived runs (--ids: ids only)
  runs show <DIR> <ID> [--json]      summarize one run (--json: raw report);
                                     ID may be any unique id prefix
  runs diff <DIR> <BASE> <CURRENT>   compare two archived mine runs: every
                                     input-determined counter with its exact
                                     delta (exits 1 when one rose), whether
                                     the deterministic sections match, and
                                     timings and allocator counters side by
                                     side with no verdict
  runs top <DIR> [--metric KEY] [--limit N]
                                     rank runs by a dotted report metric
                                     (default timings.total_secs)

EXIT CODES:
  0   success (including budget-truncated runs, which are reported as such)
  1   mining error: unreadable or non-finite input, escaped worker panic
  2   usage error: unknown command/flag or invalid parameter value
";

/// A CLI failure, split by who is at fault so `main` can pick the exit code:
/// `Usage` (exit 2) means the invocation itself is wrong — unknown flag,
/// unparsable value, parameters rejected by [`Params::validate`] — while
/// `Run` (exit 1) means a well-formed invocation failed at runtime (missing
/// or malformed input file, non-finite cells, escaped panic).
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Run(m) => f.write_str(m),
        }
    }
}

impl CliError {
    /// Classifies a mining failure: parameter rejections are the caller's
    /// fault (exit 2), everything else is a runtime error (exit 1).
    fn from_mine(e: MineError) -> Self {
        match e {
            MineError::InvalidParams(_) => CliError::Usage(e.to_string()),
            _ => CliError::Run(e.to_string()),
        }
    }
}

/// Parses a byte count with an optional binary `K`/`M`/`G` suffix
/// (case-insensitive, trailing `b` allowed: `64M`, `2gb`, `131072`).
pub(crate) fn parse_bytes(flag: &str, s: &str) -> Result<u64, String> {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, mult) = ["gb", "g", "mb", "m", "kb", "k", "b", ""]
        .iter()
        .find_map(|suf| {
            let mult = match suf.chars().next() {
                Some('g') => 1u64 << 30,
                Some('m') => 1 << 20,
                Some('k') => 1 << 10,
                _ => 1,
            };
            lower.strip_suffix(suf).map(|d| (d, mult))
        })
        .unwrap_or((lower.as_str(), 1));
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("--{flag} expects BYTES with an optional K/M/G suffix, got {s:?}"))
}

/// The value flags that set mining [`Params`] (read by
/// [`mine_params_from`]), with their arities. `mine`, `submit` and the
/// daemon's `POST /jobs` all accept exactly these.
pub(crate) const PARAM_FLAGS: &[(&str, usize)] = &[
    ("eps", 1),
    ("eps-time", 1),
    ("mx", 1),
    ("my", 1),
    ("mz", 1),
    ("delta-x", 1),
    ("delta-y", 1),
    ("delta-z", 1),
    ("merge", 2),
    ("max-candidates", 1),
    ("deadline", 1),
    ("max-memory", 1),
    ("threads", 1),
];

/// `mine`'s value flags besides [`PARAM_FLAGS`], and its switches.
const MINE_FLAGS: &[(&str, usize)] = &[
    ("report-json", 1),
    ("trace-out", 1),
    ("flame-out", 1),
    ("ledger", 1),
    ("metrics-addr", 1),
];
const MINE_SWITCHES: &[&str] = &[
    "shifting", "auto", "names", "csv", "trace", "explain", "progress", "-v", "-vv",
];

pub fn mine_params_from(a: &args::Args) -> Result<Params, String> {
    let mut b = Params::builder()
        .epsilon(a.get_f64("eps")?.unwrap_or(0.01))
        .min_genes(a.get_usize("mx")?.unwrap_or(3))
        .min_samples(a.get_usize("my")?.unwrap_or(3))
        .min_times(a.get_usize("mz")?.unwrap_or(2));
    if let Some(e) = a.get_f64("eps-time")? {
        b = b.epsilon_time(e);
    }
    if let Some(d) = a.get_f64("delta-x")? {
        b = b.delta_gene(d);
    }
    if let Some(d) = a.get_f64("delta-y")? {
        b = b.delta_sample(d);
    }
    if let Some(d) = a.get_f64("delta-z")? {
        b = b.delta_time(d);
    }
    if let Some((eta, gamma)) = a.get_pair_f64("merge")? {
        b = b.merge(MergeParams { eta, gamma });
    }
    if let Some(n) = a.get_u64("max-candidates")? {
        b = b.max_candidates(n);
    }
    if let Some(secs) = a.get_f64("deadline")? {
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!(
                "--deadline expects a non-negative number of seconds, got {secs}"
            ));
        }
        b = b.deadline(Duration::from_secs_f64(secs));
    }
    if let Some(s) = a.get_str("max-memory") {
        b = b.max_memory(parse_bytes("max-memory", s)?);
    }
    if let Some(n) = a.get_usize("threads")? {
        b = b.threads(n);
    }
    b.build().map_err(|e| e.to_string())
}

pub fn mine(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[PARAM_FLAGS, MINE_FLAGS].concat(), MINE_SWITCHES)
        .map_err(CliError::Usage)?;
    let Some(path) = a.positional.first() else {
        return Err(CliError::Usage(
            "mine: missing input file (stacked TSV)".into(),
        ));
    };
    let params = mine_params_from(&a).map_err(CliError::Usage)?;
    let verbosity = if a.has("-vv") {
        2u8
    } else if a.has("-v") {
        1
    } else {
        0
    };
    let report_json = a.get_str("report-json").map(str::to_string);
    let trace_out = a.get_str("trace-out").map(str::to_string);
    let flame_out = a.get_str("flame-out").map(str::to_string);
    let ledger_dir = a.get_str("ledger").map(str::to_string);
    let metrics_addr = a.get_str("metrics-addr").map(str::to_string);
    // `--progress` alone means the default heartbeat; `--progress=SECS`
    // overrides the interval. Parse (and reject) up front so a bad value is
    // a usage error before any I/O.
    let progress_interval = if a.has("progress") {
        let secs = a
            .get_f64("progress")
            .map_err(CliError::Usage)?
            .unwrap_or(1.0);
        if !secs.is_finite() || secs <= 0.0 {
            return Err(CliError::Usage(format!(
                "--progress expects a positive number of seconds, got {secs}"
            )));
        }
        Some(Duration::from_secs_f64(secs))
    } else {
        None
    };
    if a.has("shifting")
        && (report_json.is_some()
            || a.has("trace")
            || a.has("explain")
            || trace_out.is_some()
            || flame_out.is_some()
            || ledger_dir.is_some()
            || progress_interval.is_some()
            || metrics_addr.is_some())
    {
        return Err(CliError::Usage(
            "--report-json/--trace/--explain/--trace-out/--flame-out/--ledger/--progress\
             /--metrics-addr are not supported with --shifting"
                .into(),
        ));
    }

    // The bytes are read once and parsed in one pass. The content hash is a
    // full pass of its own that only the ledger reads, so only an archived
    // run pays for it; the bytes are dropped before mining either way.
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Run(format!("cannot open {path}: {e}")))?;
    let (matrix, labels) = io::read_stacked_tsv(bytes.as_slice())
        .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    let dataset_hash = ledger_dir.as_ref().map(|_| content_hash(&bytes));
    drop(bytes);
    eprintln!(
        "matrix: {} genes x {} samples x {} times",
        matrix.n_genes(),
        matrix.n_samples(),
        matrix.n_times()
    );

    let start = std::time::Instant::now();
    if a.has("shifting") {
        let (clusters, _) = mine_shifting(&matrix, &params).map_err(CliError::from_mine)?;
        eprintln!(
            "{} shifting clusters in {:?}",
            clusters.len(),
            start.elapsed()
        );
        for (i, sc) in clusters.iter().enumerate() {
            print_cluster(i, &sc.cluster, &labels, a.has("names"));
            let offs: Vec<String> = sc
                .sample_offsets
                .iter()
                .map(|o| format!("{o:+.3}"))
                .collect();
            println!("  offsets: [{}]", offs.join(", "));
        }
        return Ok(());
    }
    // Trace events stream to stderr as they happen (flushed per event so a
    // killed run keeps its tail); aggregate data comes out of the result's
    // embedded report. A run that writes a report (`--report-json` file or
    // `--ledger` archive) gets it from `Session::run_report`, which collects
    // histograms and adds the metrics phase. Other runs skip both: histogram
    // collection costs bucket work on the DFS hot paths, so it is switched
    // on only when `--explain` or `-vv` will show it. The timeline and
    // progress sinks are pure discovery vehicles: they record nothing
    // through the event interface, the miner finds them via
    // `EventSink::timeline`/`EventSink::progress`.
    let writes_report = report_json.is_some() || ledger_dir.is_some();
    let want_hists = !writes_report && (a.has("explain") || verbosity >= 2);
    let trace_sink;
    let timeline = (trace_out.is_some() || flame_out.is_some()).then(Timeline::new);
    // `--metrics-addr` implies progress gauges even without `--progress`:
    // the `/progress` endpoint and the gauge exposition serve them live.
    let progress =
        (progress_interval.is_some() || metrics_addr.is_some()).then(|| Arc::new(Progress::new()));
    let progress_sink;
    // The metrics registry aggregates whatever the run publishes; the
    // scrape server holds its own handle, so the registry keeps answering
    // (with the completed run's totals) until the server shuts down.
    let registry = metrics_addr.as_ref().map(|_| {
        let registry = Arc::new(Registry::new());
        if let Some(p) = &progress {
            registry.attach_progress(p.clone());
        }
        registry
    });
    // Held for the rest of the run; dropping it (any exit path) stops the
    // serve thread, so the endpoint dies with the mine.
    let _metrics_server = match (&metrics_addr, &registry) {
        (Some(addr), Some(registry)) => {
            let server = HttpServer::serve(addr, 0, scrape_handler(registry.clone()))
                .map_err(|e| CliError::Run(format!("cannot serve metrics on {addr}: {e}")))?;
            eprintln!("metrics: serving on {}", server.url());
            Some(server)
        }
        _ => None,
    };
    let mut sinks: Vec<&dyn EventSink> = Vec::new();
    if a.has("trace") {
        trace_sink = JsonLinesSink::stderr();
        sinks.push(&trace_sink);
    }
    if want_hists {
        sinks.push(&HistogramTap);
    }
    if let Some(t) = &timeline {
        sinks.push(t);
    }
    if let Some(p) = &progress {
        progress_sink = ProgressSink(p.clone());
        sinks.push(&progress_sink);
    }
    if let Some(r) = &registry {
        sinks.push(&**r);
    }
    let fanout_sink;
    let sink: &dyn EventSink = match sinks.len() {
        0 => &NullSink,
        1 => sinks[0],
        _ => {
            fanout_sink = Fanout(sinks);
            &fanout_sink
        }
    };
    // The heartbeat lives exactly as long as the mining call: dropping it
    // stops the thread after one final snapshot.
    let ticker = match (&progress, progress_interval) {
        (Some(p), Some(interval)) => Some(ProgressTicker::start(
            p.clone(),
            interval,
            Box::new(std::io::stderr()),
        )),
        _ => None,
    };
    // A one-shot run is a session with no caps: identical code path to a
    // daemon job, minus the clamping.
    let mut session = Session::new(params.clone());
    if a.has("auto") {
        session = session.auto_transpose();
    }
    let run = if writes_report {
        session.run_report(&matrix, sink).map(
            |Reported {
                 result,
                 metrics,
                 doc,
             }| (result, Some((metrics, doc))),
        )
    } else {
        session.run(&matrix, sink).map(|result| (result, None))
    };
    drop(ticker);
    // Write the trace before bailing on a mining error: a partial timeline
    // is most useful exactly when the run went wrong. The mining error
    // still wins if both fail.
    let trace_status = match (&timeline, &trace_out) {
        (Some(t), Some(out_path)) => {
            let trace = t.to_chrome_json().render_pretty() + "\n";
            Some(
                std::fs::write(out_path, trace)
                    .map(|()| eprintln!("timeline trace written to {out_path}"))
                    .map_err(|e| CliError::Run(format!("cannot write {out_path}: {e}"))),
            )
        }
        _ => None,
    };
    // The folded flamegraph gets the same treatment: written from whatever
    // the timeline captured even when mining failed.
    let flame_status = match (&timeline, &flame_out) {
        (Some(t), Some(out_path)) => Some(
            std::fs::write(out_path, t.to_folded())
                .map(|()| eprintln!("folded flamegraph stacks written to {out_path}"))
                .map_err(|e| CliError::Run(format!("cannot write {out_path}: {e}"))),
        ),
        _ => None,
    };
    let (result, reported) = run.map_err(CliError::from_mine)?;
    if let Some(status) = trace_status {
        status?;
    }
    if let Some(status) = flame_status {
        status?;
    }
    let truncated_note = match result.truncation {
        Some(reason) => format!(" (TRUNCATED: {} budget exhausted)", reason.as_str()),
        None => String::new(),
    };
    eprintln!(
        "{} triclusters in {:?}{}",
        result.triclusters.len(),
        start.elapsed(),
        truncated_note
    );
    for f in &result.worker_failures {
        eprintln!("worker failure: {} [{}]: {}", f.phase, f.unit, f.message);
    }
    if verbosity > 0 {
        print_verbose(&result, verbosity);
    }
    let doc = reported.as_ref().map(|(_, doc)| doc);
    if let (Some(out_path), Some(doc)) = (&report_json, doc) {
        std::fs::write(out_path, doc.render_pretty() + "\n")
            .map_err(|e| CliError::Run(format!("cannot write {out_path}: {e}")))?;
    }
    if let (Some(dir), Some(doc), Some(dataset_hash)) = (&ledger_dir, doc, dataset_hash) {
        // The dataset hash covers the input bytes as given, so two runs over
        // the same file are comparable even when labels differ in memory;
        // the params hash covers every knob that shapes the search.
        let params_hash = content_hash(format!("{params:?}").as_bytes());
        let trace_doc = timeline
            .as_ref()
            .map(|t| t.to_chrome_json().render_pretty() + "\n");
        let flame_doc = timeline.as_ref().map(|t| t.to_folded());
        let ledger = Ledger::open(dir)
            .map_err(|e| CliError::Run(format!("cannot open ledger {dir}: {e}")))?;
        let id = ledger
            .archive(&NewEntry {
                kind: "mine",
                label: Some(path.clone()),
                dataset_hash,
                params_hash,
                report: doc,
                trace: trace_doc.as_deref(),
                flame: flame_doc.as_deref(),
            })
            .map_err(|e| CliError::Run(format!("cannot archive run in {dir}: {e}")))?;
        eprintln!("run archived as {id} in {dir}");
    }
    if a.has("explain") {
        print!(
            "{}",
            runreport::explain_json(&result.report).render_pretty()
        );
        return Ok(());
    }
    if a.has("csv") {
        let mut out = std::io::stdout().lock();
        tricluster_core::report::write_csv(&mut out, &matrix, &result.triclusters, 1e-9)
            .map_err(|e| CliError::Run(e.to_string()))?;
        return Ok(());
    }
    for (i, c) in result.triclusters.iter().enumerate() {
        print_cluster(i, c, &labels, a.has("names"));
    }
    let metrics = match reported {
        Some((metrics, _)) => metrics,
        None => cluster_metrics_observed(&matrix, &result.triclusters, &NullSink),
    };
    println!("\n{metrics}");
    Ok(())
}

/// The `watch` subcommand: polls a serving run's `/progress` endpoint
/// (see `mine --metrics-addr`) and renders a live one-line status on
/// stdout. Exits 0 once the watched server goes away after at least one
/// successful snapshot — that is how a finished run looks from outside.
pub fn watch(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[("interval", 1), ("get", 1)], &["once", "jobs"])
        .map_err(CliError::Usage)?;
    let Some(url) = a.positional.first() else {
        return Err(CliError::Usage(
            "watch: missing URL (as printed by mine --metrics-addr, \
             e.g. http://127.0.0.1:9185)"
                .into(),
        ));
    };
    let base = url.trim_end_matches('/').to_string();
    // `--get PATH`: one raw scrape, printed verbatim — gives scripts an
    // HTTP client with zero external tooling.
    if let Some(path) = a.get_str("get") {
        let path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        let (status, body) = http_get(&format!("{base}{path}")).map_err(CliError::Run)?;
        print!("{body}");
        return if status == 200 {
            Ok(())
        } else {
            Err(CliError::Run(format!("GET {path}: HTTP {status}")))
        };
    }
    let interval = a
        .get_f64("interval")
        .map_err(CliError::Usage)?
        .unwrap_or(1.0);
    if !interval.is_finite() || interval <= 0.0 {
        return Err(CliError::Usage(format!(
            "--interval expects a positive number of seconds, got {interval}"
        )));
    }
    // `--jobs`: one formatted listing of a serve daemon's job table,
    // headed by the daemon's service counters and cache effectiveness.
    if a.has("jobs") {
        let endpoint = format!("{base}/jobs");
        let (status, body) = http_get_retry(&endpoint, 8, Duration::from_millis(50))
            .into_result()
            .map_err(CliError::Run)?;
        if status != 200 {
            return Err(CliError::Run(format!("GET /jobs: HTTP {status}")));
        }
        let doc = Json::parse(body.trim())
            .map_err(|e| CliError::Run(format!("{endpoint}: unparseable listing: {e}")))?;
        if let Some(line) = render_service_line(&doc) {
            println!("{line}");
        }
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| CliError::Run(format!("{endpoint}: no jobs array in response")))?;
        if jobs.is_empty() {
            println!("no jobs");
            return Ok(());
        }
        for job in jobs {
            println!("{}", render_job_line(job));
        }
        return Ok(());
    }
    let endpoint = format!("{base}/progress");
    let mut seen = false;
    let mut width = 0usize;
    // Bounded retry absorbs the startup race against a just-spawned run
    // whose listener has not bound yet; after the first response, every
    // later refusal means the run ended.
    let mut response = http_get_retry(&endpoint, 8, Duration::from_millis(50)).into_result();
    loop {
        match response {
            Ok((200, body)) => {
                let line = Json::parse(body.trim())
                    .ok()
                    .as_ref()
                    .and_then(render_watch_line)
                    .ok_or_else(|| {
                        CliError::Run(format!("{endpoint}: unparseable progress snapshot"))
                    })?;
                seen = true;
                if a.has("once") {
                    println!("{line}");
                    return Ok(());
                }
                // Overwrite in place, blank-padding leftovers of a longer
                // previous line.
                let pad = width.saturating_sub(line.len());
                print!("\r{line}{:pad$}", "");
                let _ = std::io::Write::flush(&mut std::io::stdout());
                width = line.len();
            }
            Ok((status, _)) => {
                return Err(CliError::Run(format!(
                    "{endpoint}: HTTP {status} — is this a tricluster --metrics-addr endpoint?"
                )));
            }
            Err(e) => {
                if seen {
                    println!();
                    eprintln!("watch: {endpoint} went away; run ended");
                    return Ok(());
                }
                return Err(CliError::Run(format!("watch: {e}")));
            }
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
        response = http_get(&endpoint);
    }
}

/// The daemon-level header over a `GET /jobs` listing: lifecycle counters
/// plus dataset-cache effectiveness.
fn render_service_line(doc: &Json) -> Option<String> {
    let s = doc.get("service")?;
    let n = |key: &str| s.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut line = format!(
        "serve: queue {} | running {} | accepted {} done {} failed {} cancelled {}",
        n("queue_depth"),
        n("running"),
        n("accepted"),
        n("completed"),
        n("failed"),
        n("cancelled"),
    );
    if let Some(cache) = doc.get("dataset_cache") {
        let c = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap_or(0);
        line.push_str(&format!(
            " | cache {} hit / {} miss / {} evicted",
            c("hits"),
            c("misses"),
            c("evictions"),
        ));
    }
    Some(line)
}

/// One line per job from a serve daemon's `GET /jobs` listing.
fn render_job_line(job: &Json) -> String {
    let id = job.get("id").and_then(Json::as_u64).unwrap_or(0);
    let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
    let label = job.get("label").and_then(Json::as_str).unwrap_or("?");
    let mut line = format!("#{id:<4} {state:<10} {label}");
    if let Some(rid) = job.get("request_id").and_then(Json::as_u64) {
        line.push_str(&format!("  req {rid}"));
    }
    if let Some(clusters) = job.get("clusters").and_then(Json::as_u64) {
        line.push_str(&format!("  clusters {clusters}"));
    }
    if let Some(err) = job.get("error").and_then(Json::as_str) {
        line.push_str(&format!("  error: {err}"));
    }
    if let Some(reason) = job.get("truncation").and_then(Json::as_str) {
        line.push_str(&format!("  truncated: {reason}"));
    }
    if let Some(secs) = job.get("secs").and_then(Json::as_f64) {
        line.push_str(&format!("  ({secs:.2}s)"));
    }
    line
}

/// One status line from a `/progress` snapshot: phase, work done vs.
/// discovered, candidates, live logical bytes, budget headroom.
fn render_watch_line(snap: &Json) -> Option<String> {
    let p = snap.get("progress")?;
    let phase = p.get("phase")?.as_str()?;
    let elapsed = p.get("elapsed_secs")?.as_f64()?;
    let pair = |key: &str| -> Option<(u64, u64)> {
        Some((
            p.get_path(&[key, "done"])?.as_u64()?,
            p.get_path(&[key, "total"])?.as_u64()?,
        ))
    };
    let (slices_done, slices_total) = pair("slices")?;
    let (pairs_done, pairs_total) = pair("pairs")?;
    let (branches_done, branches_total) = pair("branches")?;
    let candidates = p.get("candidates")?.as_u64()?;
    let bytes = p.get("logical_bytes")?.as_u64()?;
    let mut line = format!(
        "[{elapsed:7.1}s] {phase:<10} slices {slices_done}/{slices_total} | \
         pairs {pairs_done}/{pairs_total} | branches {branches_done}/{branches_total} | \
         candidates {candidates} | {}",
        human_bytes(bytes)
    );
    if let Some(budgets) = p.get("budgets").and_then(|b| b.as_obj()) {
        for (name, budget) in budgets {
            if let Some(frac) = budget.get("used_frac").and_then(|v| v.as_f64()) {
                line.push_str(&format!(
                    " | {name} headroom {:.0}%",
                    (1.0 - frac).max(0.0) * 100.0
                ));
            }
        }
    }
    Some(line)
}

/// `1536` → `1.5 KiB`; plain byte counts below 1 KiB.
fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

const RUNS_USAGE: &str = "runs: expected a subcommand — \
list <DIR> [--ids] | show <DIR> <ID> [--json] | \
diff <DIR> <BASE> <CURRENT> | top <DIR> [--metric KEY] [--limit N]";

/// The `runs` subcommand family: inspection and cross-run analytics over a
/// `--ledger` archive.
pub fn runs(argv: &[String]) -> Result<(), CliError> {
    let Some(sub) = argv.first() else {
        return Err(CliError::Usage(RUNS_USAGE.into()));
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "list" => runs_list(rest),
        "show" => runs_show(rest),
        "diff" => runs_diff(rest),
        "top" => runs_top(rest),
        other => Err(CliError::Usage(format!(
            "runs: unknown subcommand {other:?}\n{RUNS_USAGE}"
        ))),
    }
}

/// Opens the ledger named by the first positional argument. Read-side
/// commands refuse a directory that does not exist instead of silently
/// creating an empty archive there (a typoed path should not look like an
/// empty ledger).
fn open_ledger(a: &args::Args, sub: &str) -> Result<Ledger, CliError> {
    let Some(dir) = a.positional.first() else {
        return Err(CliError::Usage(format!(
            "runs {sub}: missing ledger directory"
        )));
    };
    if !std::path::Path::new(dir).is_dir() {
        return Err(CliError::Run(format!("no ledger directory at {dir}")));
    }
    Ledger::open(dir).map_err(|e| CliError::Run(format!("cannot open ledger {dir}: {e}")))
}

fn read_archived_report(
    ledger: &Ledger,
    sub: &str,
    selector: &str,
) -> Result<(IndexEntry, Json), CliError> {
    let entry = ledger
        .resolve(selector)
        .map_err(|e| CliError::Run(format!("runs {sub}: {e}")))?;
    let doc = ledger
        .read_report(&entry.id)
        .map_err(|e| CliError::Run(format!("runs {sub}: {e}")))?;
    Ok((entry, doc))
}

fn runs_list(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[], &["ids"]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "list")?;
    let entries = ledger
        .list()
        .map_err(|e| CliError::Run(format!("runs list: {e}")))?;
    if a.has("ids") {
        for e in &entries {
            println!("{}", e.id);
        }
        return Ok(());
    }
    if entries.is_empty() {
        eprintln!("ledger at {} is empty", ledger.dir().display());
        return Ok(());
    }
    println!(
        "{:<16} {:<5} {:>11} {:>8} {:>9} {:>7} {:>5}  label",
        "id", "kind", "created", "clusters", "secs", "threads", "req"
    );
    let dash = || "-".to_string();
    for e in &entries {
        println!(
            "{:<16} {:<5} {:>11} {:>8} {:>9} {:>7} {:>5}  {}",
            e.id,
            e.kind,
            e.created_unix,
            e.clusters.map_or_else(dash, |c| c.to_string()),
            e.total_secs.map_or_else(dash, |s| format!("{s:.3}")),
            e.threads.map_or_else(dash, |t| t.to_string()),
            e.request_id.map_or_else(dash, |r| r.to_string()),
            e.label.as_deref().unwrap_or("-"),
        );
    }
    Ok(())
}

fn runs_show(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[], &["json"]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "show")?;
    let Some(selector) = a.positional.get(1) else {
        return Err(CliError::Usage("runs show: missing entry id".into()));
    };
    let (entry, doc) = read_archived_report(&ledger, "show", selector)?;
    if a.has("json") {
        println!("{}", doc.render_pretty());
        return Ok(());
    }
    println!("id:       {}", entry.id);
    println!("kind:     {}", entry.kind);
    if let Some(label) = &entry.label {
        println!("label:    {label}");
    }
    println!("created:  {} (unix seconds)", entry.created_unix);
    if let Some(rid) = entry.request_id {
        println!("request:  {rid} (daemon request id)");
    }
    println!("dataset:  {}", entry.dataset_hash);
    println!("params:   {}", entry.params_hash);
    let meta: Vec<String> = [
        entry.version.as_ref().map(|v| format!("v{v}")),
        entry.git.clone(),
        entry.host.clone(),
        entry.threads.map(|t| format!("{t} thread(s)")),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !meta.is_empty() {
        println!("build:    {}", meta.join(", "));
    }
    if let Some(clusters) = entry.clusters {
        println!("clusters: {clusters}");
    }
    if let Some(timings) = doc.get("timings").and_then(Json::as_obj) {
        println!("timings:");
        for (key, v) in timings {
            if let Some(secs) = v.as_f64() {
                println!("  {key:<22} {secs:>12.6} s");
            }
        }
    }
    if let Some(phases) = doc
        .get_path(&["memory", "phase_bytes"])
        .and_then(Json::as_obj)
    {
        println!("phase allocation:");
        for (phase, v) in phases {
            let bytes = v.get("bytes").and_then(Json::as_u64).unwrap_or(0);
            let allocs = v.get("allocs").and_then(Json::as_u64).unwrap_or(0);
            println!("  {phase:<22} {bytes:>12} bytes in {allocs} allocation(s)");
        }
    }
    for (name, path) in [
        ("trace", ledger.trace_path(&entry.id)),
        ("flame", ledger.flame_path(&entry.id)),
    ] {
        if path.is_file() {
            println!("{name}:    {}", path.display());
        }
    }
    Ok(())
}

/// `runs diff`: the work budget's rule applied to two archived runs. Every
/// input-determined counter is printed with its exact delta, and one that
/// rose fails the command; the deterministic sections are compared as
/// `bench determinism` compares them. Timings and the measured allocator
/// counters are shown side by side without a verdict: one pair of wall
/// times is noise, and only a same-window A/B can judge time.
fn runs_diff(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[], &[]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "diff")?;
    let (Some(base_sel), Some(cur_sel)) = (a.positional.get(1), a.positional.get(2)) else {
        return Err(CliError::Usage(
            "runs diff: expected <DIR> <BASE-ID> <CURRENT-ID>".into(),
        ));
    };
    let base = read_archived_report(&ledger, "diff", base_sel)?;
    let cur = read_archived_report(&ledger, "diff", cur_sel)?;
    let (text, rose) =
        diff_runs(&base, &cur).map_err(|e| CliError::Usage(format!("runs diff: {e}")))?;
    print!("{text}");
    if rose.is_empty() {
        Ok(())
    } else {
        Err(CliError::Run(format!(
            "{} input-determined counter(s) rose: {}",
            rose.len(),
            rose.join(", ")
        )))
    }
}

/// The `runs diff` report on two archived runs, and the input-determined
/// counters that rose from `base` to `cur` (a counter one report lacks
/// counts as 0). Everything printed comes from the two entries, so the
/// same pair always gives the same bytes.
fn diff_runs(
    (base, base_doc): &(IndexEntry, Json),
    (cur, cur_doc): &(IndexEntry, Json),
) -> Result<(String, Vec<String>), String> {
    let differing = runreport::determinism_diff(base_doc, cur_doc)?;
    let mut lines = vec![format!("runs diff {} -> {}", base.id, cur.id)];
    for (what, b, c) in [
        ("dataset", &base.dataset_hash, &cur.dataset_hash),
        ("params", &base.params_hash, &cur.params_hash),
    ] {
        if b != c {
            lines.push(format!("note: the runs differ in {what} ({b} vs {c})"));
        }
    }
    let counters = |doc: &Json| -> BTreeMap<String, u64> {
        doc.get_path(&["report", "counters"])
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect()
    };
    let (base_counters, cur_counters) = (counters(base_doc), counters(cur_doc));
    let names: BTreeSet<&String> = base_counters.keys().chain(cur_counters.keys()).collect();
    let (measured, logical): (Vec<&String>, Vec<&String>) = names
        .into_iter()
        .partition(|name| runreport::is_measured_counter(name));
    let row = |name: &str, b: &str, c: &str| format!("{name:<40} {b:>14} {c:>14}");
    let num = |v: Option<&u64>| v.map_or_else(|| "-".to_string(), u64::to_string);
    let mut rose = Vec::new();
    lines.push(format!(
        "{} {:>12}",
        row("input-determined counter", "base", "current"),
        "delta"
    ));
    for name in logical {
        let (b, c) = (base_counters.get(name), cur_counters.get(name));
        let delta = i128::from(c.copied().unwrap_or(0)) - i128::from(b.copied().unwrap_or(0));
        if delta > 0 {
            rose.push(name.clone());
        }
        lines.push(format!("{} {delta:>+12}", row(name, &num(b), &num(c))));
    }
    lines.push(match differing.as_slice() {
        [] => "deterministic sections match".to_string(),
        d => format!("deterministic sections differ: {}", d.join(", ")),
    });
    lines.push(row("measured (no verdict)", "base", "current"));
    let secs = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |s| format!("{s:.6}"));
    for (key, b) in base_doc
        .get("timings")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let c = cur_doc.get_path(&["timings", key]).and_then(Json::as_f64);
        lines.push(row(&format!("timings.{key}"), &secs(b.as_f64()), &secs(c)));
    }
    for name in measured {
        let (b, c) = (base_counters.get(name), cur_counters.get(name));
        lines.push(row(name, &num(b), &num(c)));
    }
    Ok((lines.join("\n") + "\n", rose))
}

fn runs_top(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[("metric", 1), ("limit", 1)], &[]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "top")?;
    let metric = a
        .get_str("metric")
        .unwrap_or("timings.total_secs")
        .to_string();
    let limit = a.get_usize("limit").map_err(CliError::Usage)?.unwrap_or(10);
    let path: Vec<&str> = metric.split('.').collect();
    let entries = ledger
        .list()
        .map_err(|e| CliError::Run(format!("runs top: {e}")))?;
    let mut ranked: Vec<(f64, &IndexEntry)> = entries
        .iter()
        .filter_map(|e| {
            let doc = ledger.read_report(&e.id).ok()?;
            let v = doc.get_path(&path)?.as_f64()?;
            Some((v, e))
        })
        .collect();
    if ranked.is_empty() {
        return Err(CliError::Run(format!(
            "no archived run carries metric {metric}"
        )));
    }
    ranked.sort_by(|x, y| y.0.total_cmp(&x.0).then_with(|| x.1.id.cmp(&y.1.id)));
    println!(
        "top {} of {} by {metric}:",
        ranked.len().min(limit),
        ranked.len()
    );
    for (v, e) in ranked.iter().take(limit) {
        println!("{v:>16.6}  {}  {}", e.id, e.label.as_deref().unwrap_or("-"));
    }
    Ok(())
}

/// Phase timings (and, at `-vv`, the full counter report) on stderr.
fn print_verbose(result: &MiningResult, verbosity: u8) {
    let t = &result.timings;
    eprintln!(
        "timings: slices {:?} wall ({:?} range-graph + {:?} bicluster CPU) | \
         triclusters {:?} | prune {:?}",
        t.slices_wall, t.range_graphs, t.biclusters, t.triclusters, t.prune
    );
    eprintln!(
        "fanout: range-graph at {} level, bicluster DFS at {} level, {} threads",
        result.fanout.range_graph.as_str(),
        result.fanout.bicluster.as_str(),
        result.fanout.threads
    );
    let features = runreport::cpu_features();
    eprintln!(
        "cpu features: {}",
        if features.is_empty() {
            "none (software popcount)".to_string()
        } else {
            features.join(" ")
        }
    );
    if verbosity >= 2 {
        eprint!("{}", result.report.render_human());
        eprint!("{}", runreport::render_search_space_human(&result.report));
    } else {
        let r = &result.report;
        eprintln!(
            "search: {} range edges, {} bicluster DFS nodes, {} tricluster DFS nodes",
            r.counter(names::RG_EDGES),
            r.counter(names::BC_NODES),
            r.counter(names::TC_NODES),
        );
    }
}

fn print_cluster(i: usize, c: &tricluster_core::Tricluster, labels: &Labels, names: bool) {
    let (x, y, z) = c.shape();
    println!("cluster {i}: {x} genes x {y} samples x {z} times");
    if names {
        let genes: Vec<String> = c.genes.iter().map(|g| labels.gene(g)).collect();
        let samples: Vec<String> = c.samples.iter().map(|&s| labels.sample(s)).collect();
        let times: Vec<String> = c.times.iter().map(|&t| labels.time(t)).collect();
        println!("  genes:   {}", genes.join(" "));
        println!("  samples: {}", samples.join(" "));
        println!("  times:   {}", times.join(" "));
    } else {
        println!("  genes:   {:?}", c.genes.to_vec());
        println!("  samples: {:?}", c.samples);
        println!("  times:   {:?}", c.times);
    }
}

pub fn synth(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(
        argv,
        &[
            ("genes", 1),
            ("samples", 1),
            ("times", 1),
            ("clusters", 1),
            ("noise", 1),
            ("overlap", 1),
            ("seed", 1),
        ],
        &[],
    )
    .map_err(CliError::Usage)?;
    let Some(path) = a.positional.first() else {
        return Err(CliError::Usage("synth: missing output file".into()));
    };
    let mut spec = SynthSpec::default();
    if let Some(v) = a.get_usize("genes").map_err(CliError::Usage)? {
        spec.n_genes = v;
        let gx = (v / 12).max(4);
        spec.gene_range = (gx, gx);
    }
    if let Some(v) = a.get_usize("samples").map_err(CliError::Usage)? {
        spec.n_samples = v;
        let sy = (v / 3).max(2);
        spec.sample_range = (sy, sy);
    }
    if let Some(v) = a.get_usize("times").map_err(CliError::Usage)? {
        spec.n_times = v;
        let tz = (v / 2).max(2);
        spec.time_range = (tz, tz);
    }
    if let Some(v) = a.get_usize("clusters").map_err(CliError::Usage)? {
        spec.n_clusters = v;
    }
    if let Some(v) = a.get_f64("noise").map_err(CliError::Usage)? {
        spec.noise = v;
    }
    if let Some(v) = a.get_f64("overlap").map_err(CliError::Usage)? {
        spec.overlap_fraction = v;
    }
    if let Some(v) = a.get_u64("seed").map_err(CliError::Usage)? {
        spec.seed = v;
    }
    let data = generate(&spec);
    write_matrix(path, &data.matrix)?;
    eprintln!(
        "wrote {} genes x {} samples x {} times with {} embedded clusters to {path}",
        spec.n_genes,
        spec.n_samples,
        spec.n_times,
        data.truth.len()
    );
    eprintln!("suggested mining epsilon: {}", spec.suggested_epsilon());
    for (i, c) in data.truth.iter().enumerate() {
        let (x, y, z) = c.shape();
        eprintln!("  truth {i}: {x} x {y} x {z}");
    }
    Ok(())
}

fn write_matrix(path: &str, m: &Matrix3) -> Result<(), CliError> {
    let labels = Labels::default_for(m.n_genes(), m.n_samples(), m.n_times());
    let file =
        File::create(path).map_err(|e| CliError::Run(format!("cannot create {path}: {e}")))?;
    let mut w = BufWriter::new(file);
    io::write_stacked_tsv(&mut w, m, &labels).map_err(|e| CliError::Run(e.to_string()))
}

pub fn demo(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[("export", 1)], &[]).map_err(CliError::Usage)?;
    if let Some(stray) = a.positional.first() {
        return Err(CliError::Usage(format!(
            "demo takes no positional arguments, got {stray:?}"
        )));
    }
    let m = tricluster_core::testdata::paper_table1();
    if let Some(path) = a.get_str("export") {
        write_matrix(path, &m)?;
        eprintln!("wrote the Table 1 running example (10 genes x 7 samples x 2 times) to {path}");
        return Ok(());
    }
    let params = Params::builder()
        .epsilon(0.01)
        .min_genes(3)
        .min_samples(3)
        .min_times(2)
        .build()
        .unwrap();
    let Reported {
        result, metrics, ..
    } = Session::new(params)
        .run_report(&m, &NullSink)
        .expect("the built-in Table 1 fixture is finite and mines without budgets");
    println!("Table 1 running example (mx=my=3, mz=2, ε=0.01):\n");
    let labels = Labels::default_for(10, 7, 2);
    for (i, c) in result.triclusters.iter().enumerate() {
        print_cluster(i, c, &labels, true);
    }
    println!("\n{metrics}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricluster_core::obs::json::Json;

    fn parse_mine(argv: &[&str]) -> args::Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        args::parse(&argv, &[PARAM_FLAGS, MINE_FLAGS].concat(), MINE_SWITCHES).unwrap()
    }

    #[test]
    fn defaults_when_no_flags() {
        let p = mine_params_from(&parse_mine(&["file.tsv"])).unwrap();
        assert_eq!(p.epsilon, 0.01);
        assert_eq!((p.min_genes, p.min_samples, p.min_times), (3, 3, 2));
        assert_eq!(p.merge, None);
        assert_eq!(p.max_candidates, None);
        assert_eq!(p.deadline, None);
        assert_eq!(p.max_memory, None);
    }

    #[test]
    fn all_flags_thread_through() {
        let a = parse_mine(&[
            "f.tsv",
            "--eps",
            "0.05",
            "--eps-time",
            "0.2",
            "--mx",
            "10",
            "--my",
            "4",
            "--mz",
            "3",
            "--delta-x",
            "1.5",
            "--delta-y",
            "2.5",
            "--delta-z",
            "3.5",
            "--merge",
            "0.2",
            "0.1",
            "--max-candidates",
            "5000",
            "--deadline",
            "2.5",
            "--max-memory",
            "64M",
        ]);
        let p = mine_params_from(&a).unwrap();
        assert_eq!(p.epsilon, 0.05);
        assert_eq!(p.epsilon_time, 0.2);
        assert_eq!((p.min_genes, p.min_samples, p.min_times), (10, 4, 3));
        assert_eq!(p.delta_gene, Some(1.5));
        assert_eq!(p.delta_sample, Some(2.5));
        assert_eq!(p.delta_time, Some(3.5));
        assert_eq!(
            p.merge,
            Some(MergeParams {
                eta: 0.2,
                gamma: 0.1
            })
        );
        assert_eq!(p.max_candidates, Some(5000));
        assert_eq!(p.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(p.max_memory, Some(64 << 20));
    }

    #[test]
    fn invalid_params_are_reported() {
        let a = parse_mine(&["f.tsv", "--eps", "-1"]);
        let e = mine_params_from(&a).unwrap_err();
        assert!(e.contains("epsilon"));
        let a = parse_mine(&["f.tsv", "--mx", "0"]);
        assert!(mine_params_from(&a).is_err());
    }

    #[test]
    fn byte_suffixes_parse() {
        for (text, want) in [
            ("0", 0),
            ("131072", 131072),
            ("8k", 8 << 10),
            ("8KB", 8 << 10),
            ("64M", 64 << 20),
            ("64mb", 64 << 20),
            ("2G", 2 << 30),
            ("2gb", 2 << 30),
            ("512b", 512),
        ] {
            assert_eq!(parse_bytes("max-memory", text).unwrap(), want, "{text}");
        }
        for bad in ["", "M", "-5", "4.5G", "64X", "999999999999G"] {
            let e = parse_bytes("max-memory", bad).unwrap_err();
            assert!(e.contains("--max-memory"), "{bad}: {e}");
        }
        // zero is parseable but rejected by Params::validate
        let e = mine_params_from(&parse_mine(&["f.tsv", "--max-memory", "0"])).unwrap_err();
        assert!(e.contains("max_memory"), "{e}");
    }

    #[test]
    fn bad_deadline_is_rejected() {
        for bad in ["-1", "nan", "inf"] {
            let e = mine_params_from(&parse_mine(&["f.tsv", "--deadline", bad])).unwrap_err();
            assert!(e.contains("--deadline"), "{bad}: {e}");
        }
        let p = mine_params_from(&parse_mine(&["f.tsv", "--deadline", "0"])).unwrap();
        assert_eq!(p.deadline, Some(Duration::ZERO));
    }

    #[test]
    fn demo_runs() {
        demo(&[]).unwrap();
    }

    /// `demo --export` writes the Table 1 fixture as a mineable stacked
    /// TSV — the dataset the EXPERIMENTS.md live-monitoring walkthrough
    /// points `mine --metrics-addr` at.
    #[test]
    fn demo_exports_a_mineable_table1_tsv() {
        let dir = std::env::temp_dir().join(format!("tricluster-demo-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table1.tsv");
        let path_str = path.to_str().unwrap().to_string();
        demo(&["--export".to_string(), path_str.clone()]).unwrap();
        mine(&[path_str, "--eps".to_string(), "0.01".to_string()]).unwrap();
        let e = demo(&["stray".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("positional")),
            "{e}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_missing_file_errors() {
        // unreadable input is a runtime error (exit 1)...
        let e = mine(&["/nonexistent/path.tsv".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Run(m) if m.contains("cannot open")),
            "{e}"
        );
        // ...while a malformed invocation is a usage error (exit 2)
        let e = mine(&[]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("missing input file")),
            "{e}"
        );
        let e = mine(&["f.tsv".to_string(), "--bogus-flag".to_string()]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        // invalid parameters are usage errors even though the file is absent:
        // validation runs before any I/O
        let e = mine(&[
            "/nonexistent/path.tsv".to_string(),
            "--eps".to_string(),
            "-1".to_string(),
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
    }

    #[test]
    fn synth_roundtrip_through_tmpfile() {
        let dir = std::env::temp_dir().join(format!("tricluster-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synth.tsv");
        let path_str = path.to_str().unwrap().to_string();
        synth(&[
            path_str.clone(),
            "--genes".into(),
            "120".into(),
            "--samples".into(),
            "8".into(),
            "--times".into(),
            "4".into(),
            "--clusters".into(),
            "2".into(),
            "--noise".into(),
            "0".into(),
        ])
        .unwrap();
        // the written file parses back into the declared dimensions
        let file = std::fs::File::open(&path).unwrap();
        let (m, _) = io::read_stacked_tsv(std::io::BufReader::new(file)).unwrap();
        assert_eq!(m.dims(), (120, 8, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_missing_path_errors() {
        let e = synth(&[]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("missing output")),
            "{e}"
        );
    }

    /// Extracts the `"counters": { ... }` block of a pretty-printed report.
    fn counters_block(report: &str) -> &str {
        let start = report.find("\"counters\"").expect("has counters");
        let end = report[start..].find('}').expect("closed") + start;
        &report[start..end]
    }

    #[test]
    fn report_json_is_written_and_deterministic() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("synth.tsv");
        let data_str = data.to_str().unwrap().to_string();
        synth(&[
            data_str.clone(),
            "--genes".into(),
            "80".into(),
            "--samples".into(),
            "8".into(),
            "--times".into(),
            "4".into(),
            "--clusters".into(),
            "2".into(),
            "--noise".into(),
            "0".into(),
        ])
        .unwrap();
        let run = |out: &std::path::Path, threads: &str| {
            mine(&[
                data_str.clone(),
                "--eps".into(),
                "0.01".into(),
                "--threads".into(),
                threads.into(),
                "--report-json".into(),
                out.to_str().unwrap().into(),
            ])
            .unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let a = run(&dir.join("a.json"), "1");
        let b = run(&dir.join("b.json"), "4");
        for needle in [
            "\"schema\": \"tricluster.report/v2\"",
            "\"spans\"",
            "phase.tricluster",
            "rangegraph.edges",
            "bicluster.dfs.nodes",
        ] {
            assert!(a.contains(needle), "missing {needle}");
        }
        assert_eq!(
            counters_block(&a),
            counters_block(&b),
            "counters must not depend on thread count"
        );
        // the v2 profile sections must render byte-identically across
        // thread counts (they hold input-determined values only)
        let sections = |text: &str| {
            let doc = Json::parse(text).unwrap();
            ["histograms", "memory", "search_space"]
                .map(|k| doc.get(k).expect(k).render())
                .join("\n")
        };
        assert_eq!(
            sections(&a),
            sections(&b),
            "v2 profile sections must not depend on thread count"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a `--report-json` for the given extra flags and parses it.
    fn mined_report(tag: &str, extra: &[&str]) -> Json {
        let dir =
            std::env::temp_dir().join(format!("tricluster-{tag}-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("synth.tsv");
        let data_str = data.to_str().unwrap().to_string();
        synth(&[
            data_str.clone(),
            "--genes".into(),
            "60".into(),
            "--samples".into(),
            "8".into(),
            "--times".into(),
            "4".into(),
            "--clusters".into(),
            "2".into(),
            "--noise".into(),
            "0".into(),
        ])
        .unwrap();
        let out = dir.join("report.json");
        let mut argv = vec![
            data_str,
            "--report-json".to_string(),
            out.to_str().unwrap().to_string(),
        ];
        argv.extend(extra.iter().map(|s| s.to_string()));
        mine(&argv).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        doc
    }

    /// The end-to-end schema gate used by `scripts/check.sh`: a real
    /// `mine --report-json` run must produce a valid, populated v2 report.
    #[test]
    fn report_json_matches_v2_schema() {
        let doc = mined_report("schema", &[]);
        runreport::validate_v2(&doc).unwrap();
        assert!(
            !doc.get("histograms").unwrap().as_obj().unwrap().is_empty(),
            "histograms section must be non-empty"
        );
    }

    /// A budget-truncated run still exits 0 and its report carries the
    /// machine-readable truncation reason.
    #[test]
    fn truncated_report_carries_reason() {
        let doc = mined_report("truncated", &["--max-candidates", "1"]);
        runreport::validate_v2(&doc).unwrap();
        assert_eq!(doc.get("truncated").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get_path(&["fault", "truncation_reason"])
                .and_then(|v| v.as_str()),
            Some("max_candidates")
        );
    }

    /// v1 consumers keep working: every key the v1 schema defined is still
    /// present (and still the same JSON type) in a v2 document.
    #[test]
    fn report_v2_is_backward_compatible_with_v1_readers() {
        let doc = mined_report("v1compat", &[]);
        let v1_u64_keys = [
            &["matrix", "genes"][..],
            &["matrix", "samples"],
            &["matrix", "times"],
            &["clusters"],
            &["metrics", "cluster_count"],
            &["metrics", "element_sum"],
            &["metrics", "coverage"],
        ];
        for path in v1_u64_keys {
            let v = doc.get_path(path).unwrap_or_else(|| panic!("{path:?}"));
            assert!(v.as_u64().is_some(), "{path:?} is no longer an integer");
        }
        let v1_f64_keys = [
            &["timings", "slices_wall_secs"][..],
            &["timings", "range_graphs_cpu_secs"],
            &["timings", "biclusters_cpu_secs"],
            &["timings", "triclusters_secs"],
            &["timings", "prune_secs"],
            &["timings", "total_secs"],
            &["metrics", "overlap"],
            &["metrics", "fluctuation_gene"],
            &["metrics", "fluctuation_sample"],
            &["metrics", "fluctuation_time"],
        ];
        for path in v1_f64_keys {
            let v = doc.get_path(path).unwrap_or_else(|| panic!("{path:?}"));
            assert!(v.as_f64().is_some(), "{path:?} is no longer a number");
        }
        assert!(doc.get("truncated").is_some());
        assert!(doc.get_path(&["report", "counters"]).is_some());
        assert!(doc.get_path(&["report", "spans"]).is_some());
        // a clean run has no fault section at all
        assert!(doc.get("fault").is_none());
    }

    /// End-to-end tentpole gate: `mine --trace-out --threads 2` on the
    /// paper's Table 1 matrix writes a loadable Chrome Trace Event file —
    /// well-formed events, balanced B/E per track, at least one event per
    /// pipeline phase, and slice work attributed to a worker track.
    #[test]
    fn trace_out_writes_valid_chrome_trace() {
        use std::collections::HashMap;
        let dir =
            std::env::temp_dir().join(format!("tricluster-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("table1.tsv");
        {
            let m = tricluster_core::testdata::paper_table1();
            let labels = Labels::default_for(m.n_genes(), m.n_samples(), m.n_times());
            let file = std::fs::File::create(&data).unwrap();
            let mut w = BufWriter::new(file);
            io::write_stacked_tsv(&mut w, &m, &labels).unwrap();
        }
        let trace_path = dir.join("trace.json");
        mine(&[
            data.to_str().unwrap().to_string(),
            "--threads".into(),
            "2".into(),
            "--trace-out".into(),
            trace_path.to_str().unwrap().into(),
            "--progress=0.01".into(),
        ])
        .unwrap();

        let doc = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(|v| v.as_str()),
            Some("ms")
        );
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());

        let mut open: HashMap<u64, i64> = HashMap::new(); // tid -> B depth
        let mut track_names: HashMap<u64, String> = HashMap::new();
        let mut seen_names: Vec<String> = Vec::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
            let tid = ev.get("tid").and_then(|v| v.as_u64()).expect("tid");
            let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
            assert_eq!(ev.get("pid").and_then(|v| v.as_u64()), Some(1));
            match ph {
                "M" => {
                    assert_eq!(name, "thread_name");
                    let label = ev
                        .get_path(&["args", "name"])
                        .and_then(|v| v.as_str())
                        .expect("thread_name label");
                    track_names.insert(tid, label.to_string());
                }
                "B" | "E" | "i" => {
                    assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some(), "ts");
                    seen_names.push(name.to_string());
                    match ph {
                        "B" => *open.entry(tid).or_insert(0) += 1,
                        "E" => {
                            let d = open.entry(tid).or_insert(0);
                            *d -= 1;
                            assert!(*d >= 0, "E without B on tid {tid}");
                        }
                        _ => {}
                    }
                }
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert!(open.values().all(|&d| d == 0), "unbalanced B/E: {open:?}");
        // one event per pipeline phase
        for phase in [
            names::SPAN_SLICES_WALL,
            names::SPAN_RANGE_GRAPH,
            names::SPAN_BICLUSTER,
            names::SPAN_TRICLUSTER,
            names::SPAN_PRUNE,
            names::T_SLICE,
        ] {
            assert!(
                seen_names.iter().any(|n| n == phase),
                "no timeline event named {phase}"
            );
        }
        // worker attribution: the main track exists, and under --threads 2
        // the per-slice work ran on (and is attributed to) worker tracks
        assert!(
            track_names.values().any(|l| l.contains("main")),
            "{track_names:?}"
        );
        assert!(
            track_names.values().any(|l| l.contains("slice")),
            "no slice worker track: {track_names:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_progress_interval_is_rejected() {
        for bad in ["--progress=0", "--progress=-1", "--progress=nan"] {
            let e = mine(&["f.tsv".to_string(), bad.to_string()]).unwrap_err();
            assert!(
                matches!(&e, CliError::Usage(m) if m.contains("--progress")),
                "{bad}: {e}"
            );
        }
    }

    #[test]
    fn trace_out_and_progress_rejected_with_shifting() {
        for extra in [
            vec!["--trace-out", "t.json"],
            vec!["--progress"],
            vec!["--flame-out", "f.folded"],
            vec!["--ledger", "ldir"],
            vec!["--metrics-addr", "127.0.0.1:0"],
        ] {
            let mut argv = vec!["f.tsv".to_string(), "--shifting".to_string()];
            argv.extend(extra.iter().map(|s| s.to_string()));
            let e = mine(&argv).unwrap_err();
            assert!(
                matches!(&e, CliError::Usage(m) if m.contains("--shifting")),
                "{e}"
            );
        }
    }

    /// Writes a synthetic stacked-TSV dataset into `dir` and returns its
    /// path as a string.
    fn synth_into(dir: &std::path::Path) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let data = dir.join("synth.tsv");
        let data_str = data.to_str().unwrap().to_string();
        synth(&[
            data_str.clone(),
            "--genes".into(),
            "60".into(),
            "--samples".into(),
            "8".into(),
            "--times".into(),
            "4".into(),
            "--clusters".into(),
            "2".into(),
            "--noise".into(),
            "0".into(),
        ])
        .unwrap();
        data_str
    }

    /// A `--deadline`-truncated run still writes a well-formed trace:
    /// the file parses, B/E events balance on every track, and the
    /// truncation instant is present so the trace explains why the run
    /// stopped short.
    #[test]
    fn trace_out_survives_deadline_truncation() {
        use std::collections::HashMap;
        let dir = std::env::temp_dir().join(format!(
            "tricluster-trunc-trace-test-{}",
            std::process::id()
        ));
        let data = synth_into(&dir);
        let trace_path = dir.join("trace.json");
        mine(&[
            data,
            "--deadline".into(),
            "0".into(),
            "--trace-out".into(),
            trace_path.to_str().unwrap().into(),
        ])
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let mut open: HashMap<u64, i64> = HashMap::new();
        let mut saw_truncation = false;
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
            let tid = ev.get("tid").and_then(|v| v.as_u64()).expect("tid");
            let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
            match ph {
                "B" => *open.entry(tid).or_insert(0) += 1,
                "E" => {
                    let d = open.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E without B on tid {tid}");
                }
                "i" if name == names::T_TRUNCATED => saw_truncation = true,
                _ => {}
            }
        }
        assert!(open.values().all(|&d| d == 0), "unbalanced B/E: {open:?}");
        assert!(saw_truncation, "no {} instant in trace", names::T_TRUNCATED);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flamegraph tentpole gate: `mine --flame-out --threads 1` writes
    /// non-empty folded stacks where every line is `stack;parts N`, the
    /// stack roots are exactly the pipeline phases, and each root's
    /// accumulated self time agrees with the report's span stats.
    #[test]
    fn flame_out_structure_matches_report_spans() {
        use std::collections::BTreeMap;
        let dir =
            std::env::temp_dir().join(format!("tricluster-flame-test-{}", std::process::id()));
        let data = synth_into(&dir);
        let flame_path = dir.join("flame.folded");
        let report_path = dir.join("report.json");
        mine(&[
            data,
            "--threads".into(),
            "1".into(),
            "--flame-out".into(),
            flame_path.to_str().unwrap().into(),
            "--report-json".into(),
            report_path.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&flame_path).unwrap();
        assert!(!text.trim().is_empty(), "flame file is empty");
        let mut per_root: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("`stack N` shape");
            assert!(!stack.is_empty(), "empty stack in {line:?}");
            assert!(
                stack.split(';').all(|part| !part.is_empty()),
                "empty stack segment in {line:?}"
            );
            let micros: u64 = count
                .parse()
                .unwrap_or_else(|_| panic!("bad count in {line:?}"));
            let root = stack.split(';').next().unwrap().to_string();
            *per_root.entry(root).or_insert(0) += micros;
        }
        // With one thread the whole pipeline runs on the main track, so
        // the roots are exactly the three phase spans.
        let phases = [
            names::SPAN_SLICES_WALL,
            names::SPAN_TRICLUSTER,
            names::SPAN_PRUNE,
        ];
        let roots: Vec<&str> = per_root.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = phases.to_vec();
        want.sort_unstable();
        assert_eq!(roots, want, "unexpected flame roots");
        // Per-phase totals agree with the report's span stats: the folded
        // self times under a root sum back to that root's span duration
        // (modulo per-line microsecond rounding and the independent clocks).
        let doc = Json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        for phase in phases {
            let span_ns = doc
                .get_path(&["report", "spans", phase, "total_ns"])
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("no span stats for {phase}"));
            let span_us = span_ns / 1_000;
            let flame_us = per_root[phase];
            let allowed = (span_us / 5).max(20_000); // 20% or 20ms, whichever is larger
            assert!(
                flame_us.abs_diff(span_us) <= allowed,
                "{phase}: flame total {flame_us}us vs span {span_us}us (allowed {allowed}us)"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Ledger end to end: two `mine --ledger` runs of the same input
    /// archive under distinct sequenced ids with equal content hashes, and
    /// `runs list`/`show`/`top` round-trip the archive. `runs diff` passes
    /// the pair with matching sections. A third run at a smaller `--mx`
    /// does strictly more search work: `runs diff` fails naming the
    /// counters that rose, and passes the other direction while naming the
    /// sections that differ.
    #[test]
    fn ledger_archives_runs_and_diff_judges_counters() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-ledger-test-{}", std::process::id()));
        let data = synth_into(&dir);
        let ledger_path = dir.join("ledger");
        let ldir = ledger_path.to_str().unwrap().to_string();
        let arg = |s: &str| s.to_string();
        let run = |extra: &[&str]| {
            let mut argv = vec![data.clone(), arg("--ledger"), ldir.clone()];
            argv.extend(extra.iter().map(|s| arg(s)));
            mine(&argv).unwrap();
        };
        run(&[]);
        run(&[]);
        run(&["--mx", "2"]);
        let ledger = Ledger::open(&ledger_path).unwrap();
        let entries = ledger.list().unwrap();
        assert_eq!(entries.len(), 3, "{entries:?}");
        let (base, again, more) = (&entries[0], &entries[1], &entries[2]);
        assert_ne!(base.id, again.id);
        assert!(base.id.starts_with("r0001-") && again.id.starts_with("r0002-"));
        assert!(more.id.starts_with("r0003-"));
        assert_eq!(base.dataset_hash, again.dataset_hash, "same input bytes");
        assert_eq!(base.params_hash, again.params_hash, "same parameters");
        assert_eq!(base.dataset_hash, more.dataset_hash);
        assert_ne!(base.params_hash, more.params_hash, "--mx is a parameter");
        assert_eq!(base.kind, "mine");
        assert_eq!(base.label.as_deref(), Some(data.as_str()));
        assert!(base.clusters.is_some() && base.total_secs.is_some());
        // archived reports are valid v2 documents (the `runs show --json`
        // payload is exactly this file)
        let read = |e: &IndexEntry| (e.clone(), ledger.read_report(&e.id).unwrap());
        let (base_run, again_run, more_run) = (read(base), read(again), read(more));
        for (_, doc) in [&base_run, &again_run, &more_run] {
            runreport::validate_v2(doc).unwrap();
        }
        // the CLI surface round-trips: list, show by unique id prefix
        runs(&[arg("list"), ldir.clone(), arg("--ids")]).unwrap();
        runs(&[arg("show"), ldir.clone(), base.id.clone()]).unwrap();
        runs(&[arg("show"), ldir.clone(), arg("--json"), arg("r0002")]).unwrap();
        let diff = |b: &str, c: &str| runs(&[arg("diff"), ldir.clone(), arg(b), arg(c)]);
        // same input, same params: nothing rose and the sections match,
        // in the same bytes every time the pair is read
        diff(&base.id, &again.id).unwrap();
        let (text, rose) = diff_runs(&base_run, &again_run).unwrap();
        assert!(rose.is_empty(), "{rose:?}");
        assert!(text.contains("\ndeterministic sections match\n"), "{text}");
        assert!(!text.contains("note:"), "{text}");
        assert_eq!(diff_runs(&read(base), &read(again)).unwrap().0, text);
        // a smaller --mx does more work: the diff fails naming what rose
        let (text, rose) = diff_runs(&base_run, &more_run).unwrap();
        assert!(rose.iter().any(|n| n == names::BC_NODES), "{rose:?}");
        assert!(text.contains("note: the runs differ in params"), "{text}");
        let e = diff(&base.id, &more.id).unwrap_err();
        assert!(
            matches!(&e, CliError::Run(m) if m.contains(names::BC_NODES)),
            "{e}"
        );
        // the other direction only fell: exit 0, differing sections named
        let (text, rose) = diff_runs(&more_run, &base_run).unwrap();
        assert!(rose.is_empty(), "{rose:?}");
        assert!(
            text.contains("deterministic sections differ: report.counters"),
            "{text}"
        );
        diff(&more.id, &base.id).unwrap();
        // the wall-clock tolerance flags are gone: one is a usage error
        let removed = ["time", "tol"].join("-");
        let e = runs(&[
            arg("diff"),
            ldir.clone(),
            base.id.clone(),
            again.id.clone(),
            format!("--{removed}"),
            arg("1"),
        ])
        .unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains(&removed)),
            "{e}"
        );
        runs(&[arg("top"), ldir.clone(), arg("--limit"), arg("1")]).unwrap();
        // selector errors surface as runtime errors, not panics
        let e = runs(&[arg("show"), ldir.clone(), arg("r")]).unwrap_err();
        assert!(
            matches!(&e, CliError::Run(m) if m.contains("ambiguous")),
            "{e}"
        );
        let e = runs(&[arg("show"), ldir, arg("zzz")]).unwrap_err();
        assert!(matches!(e, CliError::Run(_)), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `m` as a stacked TSV into `dir` and returns its path.
    fn tsv_into(dir: &std::path::Path, m: &Matrix3) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("data.tsv");
        write_matrix(path.to_str().unwrap(), m).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// A `--ledger` archive and a `--report-json` file of the same input
    /// agree on every input-determined section, histograms included.
    #[test]
    fn ledger_report_matches_report_json_sections() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-ledger-sections-{}", std::process::id()));
        let data = tsv_into(&dir, &tricluster_core::testdata::paper_table1());
        let ldir = dir.join("ledger").to_str().unwrap().to_string();
        let out = dir.join("report.json").to_str().unwrap().to_string();
        mine(&[data.clone(), "--ledger".into(), ldir.clone()]).unwrap();
        mine(&[data.clone(), "--report-json".into(), out.clone()]).unwrap();
        let ledger = Ledger::open(&ldir).unwrap();
        let entries = ledger.list().unwrap();
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert_eq!(
            entries[0].dataset_hash,
            content_hash(&std::fs::read(&data).unwrap()),
            "the ledger names a dataset by the hash of its file's bytes"
        );
        let archived = ledger.read_report(&entries[0].id).unwrap();
        let written = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        for path in runreport::DETERMINISTIC_SECTIONS {
            assert!(
                written.get_path(path).is_some(),
                "--report-json lacks section {path:?}"
            );
        }
        assert_eq!(
            runreport::determinism_diff(&archived, &written),
            Ok(vec![]),
            "sections differ between ledger and file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `mine --auto --report-json` on a matrix whose largest axis is time:
    /// the report is a valid v2 document in the input's coordinates and
    /// describes exactly the clusters an in-process `mine_auto` finds.
    #[test]
    fn auto_report_json_matches_in_process_mine_auto() {
        let dir = std::env::temp_dir().join(format!("tricluster-auto-test-{}", std::process::id()));
        let twisted = tricluster_core::testdata::paper_table1().permuted([
            tricluster_matrix::Axis::Sample,
            tricluster_matrix::Axis::Time,
            tricluster_matrix::Axis::Gene,
        ]);
        let data = tsv_into(&dir, &twisted);
        let out = dir.join("report.json").to_str().unwrap().to_string();
        mine(&[
            data.clone(),
            "--auto".into(),
            "--report-json".into(),
            out.clone(),
        ])
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        runreport::validate_v2(&doc).unwrap();

        let file = std::fs::File::open(&data).unwrap();
        let (m, _) = io::read_stacked_tsv(std::io::BufReader::new(file)).unwrap();
        assert_eq!(m.dims(), (7, 2, 10));
        let params = mine_params_from(&parse_mine(&[&data])).unwrap();
        let want = tricluster_core::mine_auto(&m, &params, &NullSink).unwrap();
        let met = tricluster_core::cluster_metrics_observed(&m, &want.triclusters, &NullSink);
        assert_eq!(want.triclusters.len(), 3, "the paper's C1-C3");
        let u64_at = |path: &[&str]| doc.get_path(path).and_then(Json::as_u64);
        let f64_at = |path: &[&str]| doc.get_path(path).and_then(Json::as_f64);
        assert_eq!(
            (
                u64_at(&["matrix", "genes"]),
                u64_at(&["matrix", "samples"]),
                u64_at(&["matrix", "times"])
            ),
            (Some(7), Some(2), Some(10))
        );
        assert_eq!(u64_at(&["clusters"]), Some(want.triclusters.len() as u64));
        assert_eq!(
            u64_at(&["metrics", "element_sum"]),
            Some(met.element_sum as u64)
        );
        assert_eq!(u64_at(&["metrics", "coverage"]), Some(met.coverage as u64));
        assert_eq!(f64_at(&["metrics", "overlap"]), Some(met.overlap));
        assert_eq!(
            f64_at(&["metrics", "fluctuation_gene"]),
            Some(met.fluctuation_gene)
        );
        assert_eq!(
            f64_at(&["metrics", "fluctuation_sample"]),
            Some(met.fluctuation_sample)
        );
        assert_eq!(
            f64_at(&["metrics", "fluctuation_time"]),
            Some(met.fluctuation_time)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `runs` usage errors: missing subcommand, unknown subcommand, and a
    /// read command pointed at a directory that does not exist.
    #[test]
    fn runs_rejects_bad_invocations() {
        let e = runs(&[]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("subcommand")),
            "{e}"
        );
        let e = runs(&["bogus".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("bogus")),
            "{e}"
        );
        let e = runs(&["list".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("ledger")),
            "{e}"
        );
        let e = runs(&["list".to_string(), "/nonexistent/ledger-dir".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Run(m) if m.contains("no ledger")),
            "{e}"
        );
    }

    /// Binds an ephemeral port, then releases it — the returned address is
    /// free for the code under test to bind (the usual reserve-port trick;
    /// nothing else in this process grabs ports in between).
    fn reserve_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        addr
    }

    /// Metrics tentpole gate, end to end: a mine with `--metrics-addr`
    /// serves `/healthz`, `/metrics` (valid exposition with slices-phase
    /// counters, span timings, and budget headroom), and `/progress`
    /// *while mining* — the tricluster phase is held open by an injected
    /// delay so the mid-run window is deterministic — and `tricluster
    /// watch` renders a live snapshot from it. When the mine ends the
    /// endpoint dies with it, and the run's report is a valid v2 document.
    #[test]
    fn metrics_server_serves_scrapes_mid_run() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-metrics-test-{}", std::process::id()));
        let data = synth_into(&dir);
        let addr = reserve_addr();
        let url = format!("http://{addr}");
        let report_path = dir.join("metrics-report.json");
        let report_str = report_path.to_str().unwrap().to_string();
        let _scenario = tricluster_failpoint::scenario();
        tricluster_failpoint::configure(
            "core.tricluster.phase",
            tricluster_failpoint::Action::Delay(Duration::from_millis(700)),
        );
        let mine_argv: Vec<String> = vec![
            data.clone(),
            "--metrics-addr".into(),
            addr.clone(),
            "--deadline".into(),
            "60".into(),
            "--report-json".into(),
            report_str.clone(),
        ];
        let miner = std::thread::spawn(move || mine(&mine_argv));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match http_get(&format!("{url}/healthz")) {
                Ok((200, body)) => {
                    assert_eq!(body, "ok\n");
                    break;
                }
                other => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "healthz never came up: {other:?}"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        // Slices-phase counters publish before the delayed tricluster phase
        // begins, so they must become scrapeable mid-run.
        let exposition = loop {
            let (status, body) = http_get(&format!("{url}/metrics")).expect("server up mid-run");
            assert_eq!(status, 200);
            if body.contains("tricluster_rangegraph_pairs_total") {
                break body;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "slices counters never appeared in {body:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(exposition.ends_with("# EOF\n"), "{exposition}");
        assert!(
            exposition.contains("tricluster_phase_range_graph_seconds_count"),
            "{exposition}"
        );
        assert!(
            exposition.contains("tricluster_budget_headroom_ratio{budget=\"deadline\"}"),
            "{exposition}"
        );
        assert!(
            exposition.contains("tricluster_progress_phase{phase="),
            "{exposition}"
        );
        let (status, body) = http_get(&format!("{url}/progress")).unwrap();
        assert_eq!(status, 200);
        let snap = Json::parse(body.trim()).expect("valid progress JSON");
        assert!(snap.get_path(&["progress", "phase"]).is_some(), "{body}");
        // `watch` renders a live snapshot, and its raw-get mode scrapes
        // (also exercising the missing-leading-slash normalization).
        watch(&[url.clone(), "--once".into()]).unwrap();
        watch(&[url.clone(), "--get".into(), "healthz".into()]).unwrap();
        miner.join().unwrap().unwrap();
        assert!(
            http_get(&format!("{url}/healthz")).is_err(),
            "endpoint must die with the mine"
        );
        let doc = Json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        runreport::validate_v2(&doc).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serving metrics must not change any input-determined report
    /// section: a threads-1 run without metrics and an intra-slice run
    /// (5 threads on 4 slices) with a live metrics server render those
    /// sections byte-identically (`runreport::determinism_diff`).
    #[test]
    fn deterministic_sections_unchanged_by_metrics() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-metrics-det-{}", std::process::id()));
        let data = synth_into(&dir);
        let base_path = dir.join("base.json");
        let met_path = dir.join("met.json");
        mine(&[
            data.clone(),
            "--threads".into(),
            "1".into(),
            "--report-json".into(),
            base_path.to_str().unwrap().into(),
        ])
        .unwrap();
        mine(&[
            data.clone(),
            "--threads".into(),
            "5".into(),
            "--metrics-addr".into(),
            "127.0.0.1:0".into(),
            "--report-json".into(),
            met_path.to_str().unwrap().into(),
        ])
        .unwrap();
        let base = Json::parse(&std::fs::read_to_string(&base_path).unwrap()).unwrap();
        let met = Json::parse(&std::fs::read_to_string(&met_path).unwrap()).unwrap();
        for path in runreport::DETERMINISTIC_SECTIONS {
            assert!(
                base.get_path(path).is_some(),
                "section {path:?} missing from baseline"
            );
        }
        assert_eq!(
            runreport::determinism_diff(&base, &met),
            Ok(vec![]),
            "sections must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `watch` against a live endpoint: keeps polling until the server
    /// goes away, then exits 0 (that is what a finished run looks like).
    #[test]
    fn watch_polls_until_the_server_goes_away() {
        let registry = Arc::new(Registry::new());
        let progress = Arc::new(Progress::new());
        registry.attach_progress(progress);
        let server = HttpServer::serve("127.0.0.1:0", 0, scrape_handler(registry)).unwrap();
        let url = server.url();
        let handle = std::thread::spawn(move || watch(&[url, "--interval".into(), "0.02".into()]));
        std::thread::sleep(Duration::from_millis(150));
        drop(server);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn watch_rejects_bad_invocations() {
        let e = watch(&[]).unwrap_err();
        assert!(matches!(&e, CliError::Usage(m) if m.contains("URL")), "{e}");
        let e = watch(&[
            "http://127.0.0.1:1".to_string(),
            "--interval".to_string(),
            "0".to_string(),
        ])
        .unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("--interval")),
            "{e}"
        );
        // A released port refuses connections: `--get` surfaces that as a
        // runtime error immediately (no startup grace for one-shot gets).
        let addr = reserve_addr();
        let e = watch(&[
            format!("http://{addr}"),
            "--get".to_string(),
            "/metrics".to_string(),
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Run(_)), "{e}");
    }
}
