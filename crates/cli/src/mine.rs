//! The `mine` subcommand: one stacked TSV in, clusters out. Every run goes
//! through [`Session::run_report`], the call a served job makes too.

use crate::args;
use crate::commands::{mine_params_from, print_cluster, CliError, PARAM_FLAGS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tricluster_core::obs::httpd::{scrape_handler, HttpServer};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, Ledger, NewEntry};
use tricluster_core::obs::metrics::Registry;
use tricluster_core::obs::progress::ProgressTicker;
use tricluster_core::obs::timeline::Timeline;
use tricluster_core::obs::{names, EventSink, Fanout, JsonLinesSink};
use tricluster_core::{runreport, shift};
use tricluster_core::{MiningResult, Reported, Session};
use tricluster_matrix::io;

/// `mine`'s value flags besides [`PARAM_FLAGS`], and its switches.
pub(crate) const MINE_FLAGS: &[(&str, usize)] = &[
    ("report-json", 1),
    ("trace-out", 1),
    ("flame-out", 1),
    ("ledger", 1),
    ("metrics-addr", 1),
];
pub(crate) const MINE_SWITCHES: &[&str] = &[
    "shifting", "auto", "names", "csv", "trace", "explain", "progress", "-v", "-vv",
];

pub fn mine(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[PARAM_FLAGS, MINE_FLAGS].concat(), MINE_SWITCHES)
        .map_err(CliError::Usage)?;
    let Some(path) = a.positional.first() else {
        return Err(CliError::Usage(
            "mine: missing input file (stacked TSV)".into(),
        ));
    };
    let params = mine_params_from(&a).map_err(CliError::Usage)?;
    let report_json = a.get_str("report-json");
    let trace_out = a.get_str("trace-out");
    let flame_out = a.get_str("flame-out");
    let ledger_dir = a.get_str("ledger");
    let metrics_addr = a.get_str("metrics-addr");
    // `--progress` alone means the default heartbeat; `--progress=SECS`
    // overrides the interval. Parse (and reject) up front so a bad value is
    // a usage error before any I/O.
    let progress_interval = match a.get_secs("progress", false).map_err(CliError::Usage)? {
        None if a.has("progress") => Some(Duration::from_secs(1)),
        secs => secs,
    };

    // The bytes are read once and parsed on the run's threads. The content
    // hash is a full pass of its own that only the ledger reads, so only an
    // archived run pays for it; the bytes are dropped before mining either
    // way.
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Run(format!("cannot open {path}: {e}")))?;
    let workers = params
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let (matrix, labels) = io::parse_stacked_tsv(&bytes, workers)
        .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    let dataset_hash = ledger_dir.map(|_| content_hash(&bytes));
    drop(bytes);
    eprintln!(
        "matrix: {} genes x {} samples x {} times",
        matrix.n_genes(),
        matrix.n_samples(),
        matrix.n_times()
    );

    let start = Instant::now();
    // Trace events stream to stderr as they happen (flushed per event so a
    // killed run keeps its tail); aggregate data comes out of the result's
    // embedded report. The timeline sink is a pure discovery vehicle: it
    // records nothing through the event interface, the miner finds it via
    // `EventSink::timeline`.
    let trace_sink = a.has("trace").then(JsonLinesSink::stderr);
    let timeline = (trace_out.is_some() || flame_out.is_some()).then(Timeline::new);
    // One registry serves `--progress` and `--metrics-addr`: it aggregates
    // whatever the run publishes, gauges included. The scrape server holds
    // its own handle, so the registry keeps answering (with the completed
    // run's totals) until the server shuts down.
    let registry = (progress_interval.is_some() || metrics_addr.is_some())
        .then(|| Arc::new(Registry::for_run()));
    // Held for the rest of the run; dropping it (any exit path) stops the
    // serve thread, so the endpoint dies with the mine.
    let _metrics_server = match (metrics_addr, &registry) {
        (Some(addr), Some(registry)) => {
            let server = HttpServer::serve(addr, 0, scrape_handler(registry.clone()))
                .map_err(|e| CliError::Run(format!("cannot serve metrics on {addr}: {e}")))?;
            eprintln!("metrics: serving on {}", server.url());
            Some(server)
        }
        _ => None,
    };
    let sink = Fanout(
        [
            trace_sink.as_ref().map(|s| s as &dyn EventSink),
            timeline.as_ref().map(|t| t as &dyn EventSink),
            registry.as_deref().map(|r| r as &dyn EventSink),
        ]
        .into_iter()
        .flatten()
        .collect(),
    );
    // The heartbeat lives exactly as long as the mining call: dropping it
    // stops the thread after one final snapshot.
    let ticker = match (&registry, progress_interval) {
        (Some(r), Some(interval)) => Some(ProgressTicker::start(
            r.clone(),
            interval,
            Box::new(std::io::stderr()),
        )),
        _ => None,
    };
    // A one-shot run is a session with no caps: identical code path to a
    // daemon job, minus the clamping.
    let mut session = Session::new(params);
    if a.has("shifting") {
        session = session.shifting();
    }
    if a.has("auto") {
        session = session.auto_transpose();
    }
    let run = session.run_report(&matrix, &sink);
    drop(ticker);
    // Write the timeline files before bailing on a mining error: a partial
    // timeline is most useful exactly when the run went wrong. The mining
    // error still wins if both fail, and the first failed write wins over
    // the second.
    let mut written = Ok(());
    if let Some(t) = &timeline {
        for (out, what, render) in [
            (
                trace_out,
                "timeline trace",
                chrome_trace as fn(&Timeline) -> String,
            ),
            (flame_out, "folded flamegraph stacks", Timeline::to_folded),
        ] {
            if let Some(out) = out {
                written = written.and(
                    std::fs::write(out, render(t))
                        .map(|()| eprintln!("{what} written to {out}"))
                        .map_err(|e| CliError::Run(format!("cannot write {out}: {e}"))),
                );
            }
        }
    }
    let Reported {
        result,
        metrics,
        doc,
    } = run.map_err(CliError::from_mine)?;
    written?;
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
    if a.has("-v") || a.has("-vv") {
        print_verbose(&result, a.has("-vv"));
    }
    if let Some(out_path) = report_json {
        std::fs::write(out_path, doc.render_pretty() + "\n")
            .map_err(|e| CliError::Run(format!("cannot write {out_path}: {e}")))?;
    }
    if let (Some(dir), Some(dataset_hash)) = (ledger_dir, dataset_hash) {
        let trace = timeline.as_ref().map(chrome_trace);
        let flame = timeline.as_ref().map(Timeline::to_folded);
        let ledger = Ledger::open(dir)
            .map_err(|e| CliError::Run(format!("cannot open ledger {dir}: {e}")))?;
        let entry = ledger_entry(
            "mine",
            path.clone(),
            dataset_hash,
            &session,
            &doc,
            trace.as_deref(),
            flame.as_deref(),
        );
        let id = ledger
            .archive(&entry)
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
        if a.has("shifting") {
            let offsets: Vec<String> = shift::sample_offsets(&matrix, c)
                .iter()
                .map(|o| format!("{o:+.3}"))
                .collect();
            println!("  offsets: [{}]", offsets.join(", "));
        }
    }
    println!("\n{metrics}");
    Ok(())
}

/// The timeline as the pretty Chrome Trace Event document `--trace-out`
/// writes and `--ledger` archives.
fn chrome_trace(t: &Timeline) -> String {
    t.to_chrome_json().render_pretty() + "\n"
}

/// The ledger entry of one finished run, for `mine --ledger` and the serve
/// daemon's per-job archive alike. `dataset_hash` covers the input bytes as
/// given, so two runs over the same file are comparable even when labels
/// differ in memory; the params hash, computed here and nowhere else,
/// covers every knob that shapes the search: the session's params and then
/// its transforms (none for a plain run, which hashes its params alone).
pub(crate) fn ledger_entry<'a>(
    kind: &'a str,
    label: String,
    dataset_hash: String,
    session: &Session,
    report: &'a Json,
    trace: Option<&'a str>,
    flame: Option<&'a str>,
) -> NewEntry<'a> {
    let mut searched = format!("{:?}", session.params());
    for transform in session.transforms() {
        searched.push_str(" +");
        searched.push_str(transform);
    }
    NewEntry {
        kind,
        label: Some(label),
        dataset_hash,
        params_hash: content_hash(searched.as_bytes()),
        report,
        trace,
        flame,
    }
}

/// Phase timings (and, with `all` for `-vv`, the full counter report) on
/// stderr.
fn print_verbose(result: &MiningResult, all: bool) {
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
    if all {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::{parse_mine, reserve_addr, synth_into};
    use crate::commands::{synth, write_matrix};
    use crate::watch::watch;
    use std::io::BufWriter;
    use tricluster_core::obs::httpd::http_get;
    use tricluster_core::obs::NullSink;
    use tricluster_matrix::{io, Labels, Matrix3};

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
        // one event per pipeline phase, the metrics included
        for phase in [
            names::SPAN_SLICES_WALL,
            names::SPAN_RANGE_GRAPH,
            names::SPAN_BICLUSTER,
            names::SPAN_TRICLUSTER,
            names::SPAN_PRUNE,
            names::SPAN_METRICS,
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
        for bad in [
            "--progress=0",
            "--progress=-1",
            "--progress=nan",
            "--progress=1e30",
        ] {
            let e = mine(&["f.tsv".to_string(), bad.to_string()]).unwrap_err();
            assert!(
                matches!(&e, CliError::Usage(m) if m.contains("--progress")),
                "{bad}: {e}"
            );
        }
    }

    /// A deadline no `Duration` holds is a usage error (exit 2), checked
    /// before the input file is opened.
    #[test]
    fn deadline_past_duration_max_is_a_usage_error() {
        let argv = ["f.tsv", "--deadline", "1e30"].map(String::from);
        let e = mine(&argv).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("--deadline")),
            "{e}"
        );
    }

    /// A 6 x 5 x 3 matrix with one planted shifting cluster: genes 0..4 x
    /// samples 0..4 x every time, rows offset by a constant per sample.
    fn shifting_matrix() -> Matrix3 {
        let mut m = Matrix3::zeros(6, 5, 3);
        let mut v = 0.13;
        m.map_in_place(|_| {
            v = (v * 31.7) % 9.0 + 1.0;
            v
        });
        for g in 0..4 {
            for (s, off) in [0.0, 0.9, -0.4, 1.7].into_iter().enumerate() {
                for t in 0..3 {
                    m.set(g, s, t, 2.0 + g as f64 * 0.5 + t as f64 * 0.25 + off);
                }
            }
        }
        m
    }

    /// `--shifting` is a session transform, so it takes every other `mine`
    /// flag: the report, the timeline and the ledger entry describe the
    /// clusters an in-process shifting session finds, and the metrics are
    /// over the input as given.
    #[test]
    fn shifting_runs_with_every_mine_flag() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-shifting-test-{}", std::process::id()));
        let m = shifting_matrix();
        let data = tsv_into(&dir, &m);
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (out, trace, ledger) = (path("report.json"), path("trace.json"), path("ledger"));
        let thresholds = ["--eps", "0.001", "--mx", "4", "--my", "4", "--mz", "3"];
        let mut argv: Vec<String> = [&data, "--shifting", "--csv", "--auto", "-v"]
            .into_iter()
            .chain(thresholds)
            .map(String::from)
            .collect();
        for (flag, value) in [
            ("--report-json", &out),
            ("--trace-out", &trace),
            ("--ledger", &ledger),
        ] {
            argv.extend([flag.to_string(), value.clone()]);
        }
        mine(&argv).unwrap();

        let params =
            mine_params_from(&parse_mine(&[&[data.as_str()][..], &thresholds].concat())).unwrap();
        let want = Session::new(params)
            .shifting()
            .run(&m, &NullSink)
            .unwrap()
            .triclusters;
        assert_eq!(want.len(), 1, "the planted cluster: {want:?}");
        let met = tricluster_core::cluster_metrics_observed(&m, &want, &NullSink);
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        runreport::validate_v2(&doc).unwrap();
        let u64_at = |path: &[&str]| doc.get_path(path).and_then(Json::as_u64);
        assert_eq!(u64_at(&["clusters"]), Some(1));
        assert_eq!(u64_at(&["metrics", "element_sum"]), Some(4 * 4 * 3));
        assert_eq!(u64_at(&["metrics", "coverage"]), Some(met.coverage as u64));
        for (key, value) in [
            ("fluctuation_gene", met.fluctuation_gene),
            ("fluctuation_sample", met.fluctuation_sample),
            ("fluctuation_time", met.fluctuation_time),
        ] {
            assert_eq!(
                doc.get_path(&["metrics", key]).and_then(Json::as_f64),
                Some(value),
                "{key} is over the input as given"
            );
        }
        let trace = std::fs::read_to_string(&trace).unwrap();
        assert!(trace.contains(names::SPAN_METRICS), "{trace}");
        let entries = Ledger::open(&ledger).unwrap().list().unwrap();
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert_eq!(entries[0].clusters, Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The report's `timings` section is its phase spans' totals: at one
    /// thread on Table 1, and on a 4-slice input at 2 threads (slice
    /// fan-out) and 5 threads (intra-slice fan-out).
    #[test]
    fn report_timings_are_the_span_totals() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-timings-test-{}", std::process::id()));
        let table1 = tsv_into(
            &dir.join("table1"),
            &tricluster_core::testdata::paper_table1(),
        );
        let four_slices = synth_into(&dir.join("synth"));
        let out = dir.join("report.json").to_str().unwrap().to_string();
        for (data, threads) in [(&table1, "1"), (&four_slices, "2"), (&four_slices, "5")] {
            mine(&[
                data.clone(),
                "--threads".into(),
                threads.into(),
                "--report-json".into(),
                out.clone(),
            ])
            .unwrap();
            let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
            let mut phases = 0.0;
            for (key, span) in [
                ("range_graphs_cpu_secs", names::SPAN_RANGE_GRAPH),
                ("biclusters_cpu_secs", names::SPAN_BICLUSTER),
                ("slices_wall_secs", names::SPAN_SLICES_WALL),
                ("triclusters_secs", names::SPAN_TRICLUSTER),
                ("prune_secs", names::SPAN_PRUNE),
            ] {
                let total_ns = doc
                    .get_path(&["report", "spans", span, "total_ns"])
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("no {span} span at --threads {threads}"));
                let secs = Duration::from_nanos(total_ns).as_secs_f64();
                assert_eq!(
                    doc.get_path(&["timings", key]).and_then(Json::as_f64),
                    Some(secs),
                    "{key} at --threads {threads}"
                );
                if !key.ends_with("_cpu_secs") {
                    phases += secs;
                }
            }
            let total = doc
                .get_path(&["timings", "total_secs"])
                .and_then(Json::as_f64);
            assert!(
                total.is_some_and(|t| (t - phases).abs() < 1e-9),
                "{total:?} vs {phases} at --threads {threads}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
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
        // the roots are exactly the four sequential stages' spans.
        let phases = [
            names::SPAN_SLICES_WALL,
            names::SPAN_TRICLUSTER,
            names::SPAN_PRUNE,
            names::SPAN_METRICS,
        ];
        let roots: Vec<&str> = per_root.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = phases.to_vec();
        want.sort_unstable();
        assert_eq!(roots, want, "unexpected flame roots");
        // Per-phase totals agree with the report's span stats: the folded
        // self times under a root sum back to that root's span duration
        // (modulo per-line microsecond rounding and the independent clocks).
        let doc = Json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert!(doc.get("clusters").and_then(Json::as_u64).unwrap() > 0);
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
    /// describes exactly the clusters an in-process auto-transposing
    /// session finds.
    #[test]
    fn auto_report_json_matches_in_process_auto_session() {
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
        let want = Session::new(params)
            .auto_transpose()
            .run(&m, &NullSink)
            .unwrap();
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
        assert!(doc.get("clusters").and_then(Json::as_u64).unwrap() > 0);
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
        assert!(base.get("clusters").and_then(Json::as_u64).unwrap() > 0);
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
}
