//! Thread-count and fan-out-mode determinism (the oracle behind the
//! `--threads`/`--fanout` flags): the mined clusters, every report counter,
//! and the v2 report's input-determined sections must be byte-identical
//! whether the run used 1, 2, or 8 workers, and whether it fanned out at
//! slice level or intra-slice (pair/branch) level.

use std::collections::BTreeMap;
use tricluster::core::obs::json::Json;
use tricluster::core::obs::Recorder;
use tricluster::core::runreport::{histograms_json, memory_json, search_space_json};
use tricluster::core::testdata::paper_table1;
use tricluster::prelude::*;

/// Track every allocation in this test binary so the per-phase allocation
/// attribution path is live: runs carry `memory.alloc.*` counters and the
/// `memory.phase_bytes` report section. Measured byte counts are
/// schedule-dependent by nature, so the determinism comparisons below
/// restrict themselves to the logical (input-determined) sections.
#[global_allocator]
static ALLOC: tricluster::core::obs::alloc::TrackingAlloc =
    tricluster::core::obs::alloc::TrackingAlloc;

/// The Figure 7 smoke workload shape: small enough for a tier-1 test, rich
/// enough that every DFS phase, histogram, and prune counter is exercised.
fn smoke_matrix() -> Matrix3 {
    let spec = SynthSpec {
        n_genes: 400,
        n_samples: 10,
        n_times: 5,
        n_clusters: 4,
        gene_range: (50, 50),
        sample_range: (4, 4),
        time_range: (3, 3),
        noise: 0.02,
        ..SynthSpec::default()
    };
    generate(&spec).matrix
}

fn smoke_params(threads: usize, fanout: FanoutMode) -> Params {
    Params::builder()
        .epsilon(0.012)
        .min_size(25, 3, 2)
        .threads(threads)
        .fanout(fanout)
        .build()
        .unwrap()
}

fn table1_params(threads: usize, fanout: FanoutMode) -> Params {
    Params::builder()
        .epsilon(0.01)
        .min_size(3, 3, 2)
        .threads(threads)
        .fanout(fanout)
        .build()
        .unwrap()
}

/// The input-determined report sections, rendered: any byte difference
/// fails the comparison. The measured-allocator sub-objects (`alloc`,
/// `phase_bytes`) are stripped from the memory section — they report real
/// allocator traffic, which legitimately varies with the schedule.
fn deterministic_sections(result: &MiningResult) -> String {
    let logical_memory = match memory_json(&result.report) {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !matches!(k.as_str(), "alloc" | "phase_bytes"))
                .collect(),
        ),
        other => other,
    };
    format!(
        "{}\n{}\n{}",
        histograms_json(&result.report).render(),
        logical_memory.render(),
        search_space_json(&result.report).render(),
    )
}

/// Counters minus the measured-allocator metrics, for the same reason.
fn logical_counters(result: &MiningResult) -> BTreeMap<String, u64> {
    result
        .report
        .counter_map()
        .into_iter()
        .filter(|(k, _)| !k.starts_with("memory.alloc."))
        .collect()
}

fn clusters(result: &MiningResult) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    result
        .triclusters
        .iter()
        .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
        .collect()
}

fn assert_invariant_across_schedules(m: &Matrix3, mk: &dyn Fn(usize, FanoutMode) -> Params) {
    let baseline = Session::new(mk(1, FanoutMode::Slice))
        .run(m, &Recorder::new())
        .unwrap();
    assert!(
        !baseline.report.histograms.is_empty(),
        "recording sink must collect histograms"
    );
    let base_sections = deterministic_sections(&baseline);
    for threads in [1usize, 2, 8] {
        for fanout in [FanoutMode::Auto, FanoutMode::Slice, FanoutMode::Pair] {
            let r = Session::new(mk(threads, fanout))
                .run(m, &Recorder::new())
                .unwrap();
            assert_eq!(
                clusters(&r),
                clusters(&baseline),
                "clusters differ at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                logical_counters(&r),
                logical_counters(&baseline),
                "counters differ at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                deterministic_sections(&r),
                base_sections,
                "report sections differ at threads={threads} fanout={fanout:?}"
            );
        }
    }
}

#[test]
fn smoke_workload_is_thread_and_fanout_invariant() {
    let m = smoke_matrix();
    assert_invariant_across_schedules(&m, &smoke_params);
}

#[test]
fn paper_table1_is_thread_and_fanout_invariant() {
    let m = paper_table1();
    assert_invariant_across_schedules(&m, &table1_params);
}

/// Timeline tracing and progress telemetry must be pure observers: mining
/// with a live trace journal and a running heartbeat ticker leaves every
/// input-determined section byte-identical to a plain run, at every thread
/// count and fan-out mode.
#[test]
fn tracing_and_progress_do_not_perturb_deterministic_sections() {
    use std::sync::Arc;
    use std::time::Duration;
    use tricluster::core::obs::progress::{Progress, ProgressSink, ProgressTicker};
    use tricluster::core::obs::timeline::Timeline;
    use tricluster::core::obs::Fanout;

    let m = smoke_matrix();
    let baseline = Session::new(smoke_params(1, FanoutMode::Slice))
        .run(&m, &Recorder::new())
        .unwrap();
    let base_sections = deterministic_sections(&baseline);
    for threads in [1usize, 2, 8] {
        for fanout in [FanoutMode::Auto, FanoutMode::Slice, FanoutMode::Pair] {
            let recorder = Recorder::new();
            let timeline = Timeline::new();
            let progress = Arc::new(Progress::new());
            let progress_sink = ProgressSink(progress.clone());
            let sink = Fanout(vec![&recorder, &timeline, &progress_sink]);
            // An aggressive heartbeat (1 ms) maximises the chance of racing
            // the miner; its output goes nowhere.
            let ticker = ProgressTicker::start(
                progress.clone(),
                Duration::from_millis(1),
                Box::new(std::io::sink()),
            );
            let r = Session::new(smoke_params(threads, fanout))
                .run(&m, &sink)
                .unwrap();
            drop(ticker);
            assert_eq!(
                clusters(&r),
                clusters(&baseline),
                "clusters differ under tracing at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                logical_counters(&r),
                logical_counters(&baseline),
                "counters differ under tracing at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                deterministic_sections(&r),
                base_sections,
                "report sections differ under tracing at threads={threads} fanout={fanout:?}"
            );
            // the observers actually observed: the timeline journalled work
            // and the gauges saw every slice
            let journals = timeline.journals();
            assert!(
                journals.iter().any(|j| !j.events.is_empty()),
                "timeline recorded nothing at threads={threads} fanout={fanout:?}"
            );
            let snapshot = progress.snapshot_json().render();
            assert!(
                snapshot.contains("\"phase\":\"done\"")
                    && snapshot.contains("\"slices\":{\"done\":5,\"total\":5}"),
                "progress gauges never moved: {snapshot}"
            );
        }
    }
}

/// The metrics registry and its scrape server must be pure observers too:
/// mining with a live `Registry` in the sink fan-out — progress gauges
/// attached, HTTP server scraping `/metrics` after every run — leaves the
/// clusters and every input-determined section byte-identical to a plain
/// run, at every thread count and fan-out mode. This is the tentpole
/// determinism guarantee behind `mine --metrics-addr`.
#[test]
fn metrics_registry_and_server_do_not_perturb_deterministic_sections() {
    use std::sync::Arc;
    use tricluster::core::obs::httpd::{http_get, scrape_handler, HttpServer};
    use tricluster::core::obs::metrics::Registry;
    use tricluster::core::obs::names;
    use tricluster::core::obs::progress::Progress;
    use tricluster::core::obs::Fanout;

    let m = smoke_matrix();
    let baseline = Session::new(smoke_params(1, FanoutMode::Slice))
        .run(&m, &Recorder::new())
        .unwrap();
    let base_sections = deterministic_sections(&baseline);
    for threads in [1usize, 2, 8] {
        for fanout in [FanoutMode::Auto, FanoutMode::Slice, FanoutMode::Pair] {
            let recorder = Recorder::new();
            let registry = Arc::new(Registry::new());
            registry.attach_progress(Arc::new(Progress::new()));
            let server =
                HttpServer::serve("127.0.0.1:0", 0, scrape_handler(registry.clone())).unwrap();
            let sink = Fanout(vec![&recorder, &*registry]);
            let r = Session::new(smoke_params(threads, fanout))
                .run(&m, &sink)
                .unwrap();
            assert_eq!(
                clusters(&r),
                clusters(&baseline),
                "clusters differ under metrics at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                logical_counters(&r),
                logical_counters(&baseline),
                "counters differ under metrics at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                deterministic_sections(&r),
                base_sections,
                "report sections differ under metrics at threads={threads} fanout={fanout:?}"
            );
            // the registry really aggregated the run, and the final scrape
            // reflects it: pair counts match the report, the exposition is
            // well-terminated, and the gauges reached the terminal phase
            assert_eq!(
                registry.counter_value(names::RG_PAIRS),
                r.report.counter_map()[names::RG_PAIRS],
                "registry pair counter diverged at threads={threads} fanout={fanout:?}"
            );
            let (status, body) = http_get(&format!("{}/metrics", server.url())).unwrap();
            assert_eq!(status, 200);
            assert!(body.ends_with("# EOF\n"), "{body}");
            assert!(body.contains("tricluster_rangegraph_pairs_total"), "{body}");
            assert!(
                body.contains("tricluster_progress_phase{phase=\"done\"} 1"),
                "{body}"
            );
            drop(server);
        }
    }
}

/// The full observability stack live at once — tracking allocator with
/// per-phase attribution, a timeline journal folded to flamegraph stacks,
/// and every run archived into one ledger — must leave the mined clusters
/// and input-determined sections invariant across thread counts and
/// fan-out modes, and the archive must round-trip through `diff_reports`
/// with per-phase allocation metrics covered.
#[test]
fn ledger_flame_and_phase_bytes_do_not_perturb_determinism() {
    use tricluster::core::obs::ledger::{
        content_hash, diff_reports, DiffTolerances, Ledger, NewEntry,
    };
    use tricluster::core::obs::timeline::Timeline;
    use tricluster::core::obs::Fanout;
    use tricluster::core::runreport;

    let dir =
        std::env::temp_dir().join(format!("tricluster-det-ledger-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = Ledger::open(dir.join("ledger")).unwrap();
    let m = smoke_matrix();
    let baseline = Session::new(smoke_params(1, FanoutMode::Slice))
        .run(&m, &Recorder::new())
        .unwrap();
    let base_sections = deterministic_sections(&baseline);
    let mut ids = Vec::new();
    for threads in [1usize, 2, 8] {
        for fanout in [FanoutMode::Auto, FanoutMode::Slice, FanoutMode::Pair] {
            let recorder = Recorder::new();
            let timeline = Timeline::new();
            let sink = Fanout(vec![&recorder, &timeline]);
            let r = Session::new(smoke_params(threads, fanout))
                .run(&m, &sink)
                .unwrap();
            assert_eq!(
                clusters(&r),
                clusters(&baseline),
                "clusters differ at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                logical_counters(&r),
                logical_counters(&baseline),
                "counters differ at threads={threads} fanout={fanout:?}"
            );
            assert_eq!(
                deterministic_sections(&r),
                base_sections,
                "report sections differ at threads={threads} fanout={fanout:?}"
            );
            // the allocator really attributed traffic to each phase, and
            // the phases sum to no more than the whole-run total (other
            // test threads share the global counters, so lower bounds only)
            let counters = r.report.counter_map();
            let total = counters["memory.alloc.total_bytes"];
            assert!(total > 0, "no measured allocations");
            let phase_sum: u64 = [
                "memory.alloc.slices.bytes",
                "memory.alloc.triclusters.bytes",
                "memory.alloc.prune.bytes",
            ]
            .iter()
            .map(|k| counters[*k])
            .sum();
            assert!(
                phase_sum > 0 && phase_sum <= total,
                "{phase_sum} vs {total}"
            );
            // the timeline folds into non-empty well-formed stacks
            let folded = timeline.to_folded();
            assert!(!folded.trim().is_empty());
            for line in folded.lines() {
                let (stack, micros) = line.rsplit_once(' ').expect("`stack N` shape");
                assert!(
                    !stack.is_empty() && micros.parse::<u64>().is_ok(),
                    "{line:?}"
                );
            }
            // archive the run, flame artifact included
            let met = cluster_metrics_observed(&m, &r.triclusters, &NullSink);
            let doc = runreport::report_to_json_v2(&m, &r, &r.report, &met);
            runreport::validate_v2(&doc).unwrap();
            let id = ledger
                .archive(&NewEntry {
                    kind: "mine",
                    label: Some(format!("threads{threads}-{fanout:?}")),
                    dataset_hash: content_hash(b"determinism-smoke"),
                    params_hash: content_hash(format!("{threads}/{fanout:?}").as_bytes()),
                    report: &doc,
                    trace: None,
                    flame: Some(&folded),
                })
                .unwrap();
            ids.push(id);
        }
    }
    // the archive round-trips: every run listed, every flame readable
    let entries = ledger.list().unwrap();
    assert_eq!(entries.len(), 9);
    assert_eq!(
        entries.iter().map(|e| e.id.clone()).collect::<Vec<_>>(),
        ids
    );
    assert!(ledger.flame_path(&ids[0]).is_file());
    // cross-run analytics cover timings, allocator totals, and per-phase
    // allocation attribution for archived runs
    let first = ledger.read_report(&ids[0]).unwrap();
    let last = ledger.read_report(&ids[8]).unwrap();
    let deltas = diff_reports(&first, &last, &DiffTolerances::default()).unwrap();
    let metrics: Vec<&str> = deltas.iter().map(|d| d.metric.as_str()).collect();
    for expected in [
        "timings.total_secs",
        "memory.alloc.total_bytes",
        "memory.phase_bytes.slices.bytes",
        "memory.phase_bytes.triclusters.bytes",
        "memory.phase_bytes.prune.bytes",
    ] {
        assert!(metrics.contains(&expected), "{expected} not in {metrics:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The smoke workload actually exercises the intra-slice paths: at 8
/// threads over 5 slices, Auto must pick pair-level range graphs and
/// branch-level DFS.
#[test]
fn auto_fanout_goes_intra_when_workers_outnumber_slices() {
    let m = smoke_matrix();
    let r = mine(&m, &smoke_params(8, FanoutMode::Auto)).unwrap();
    assert_eq!(r.fanout.range_graph, FanoutLevel::Pair);
    assert_eq!(r.fanout.bicluster, FanoutLevel::Branch);
    let r = mine(&m, &smoke_params(2, FanoutMode::Auto)).unwrap();
    assert_eq!(r.fanout.range_graph, FanoutLevel::Slice);
    assert_eq!(r.fanout.bicluster, FanoutLevel::Slice);
}
