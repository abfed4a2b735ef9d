//! The in-process layer pass: the bytes a `tricluster mine --csv
//! --report-json` run reads, pushed through each layer's public function in
//! pipeline order at one thread, with a span around every call. Spans are
//! recorded from the benchmark's side of each call; the program itself is
//! not instrumented for this.

use crate::spans::Trace;
use crate::stats::median;
use crate::workload::{Dataset, Datasets, DATASETS};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::time::{Duration, Instant};
use tricluster_core::bicluster::mine_biclusters_profiled;
use tricluster_core::obs::ledger::content_hash;
use tricluster_core::obs::metrics::Registry;
use tricluster_core::obs::progress::{Progress, ProgressSink};
use tricluster_core::obs::timeline::Timeline;
use tricluster_core::obs::{EventSink, Fanout, JsonLinesSink, NullSink, Recorder};
use tricluster_core::prune::{merge_and_prune_observed, PruneStats};
use tricluster_core::rangegraph::build_range_graph_observed;
use tricluster_core::tricluster::mine_triclusters_profiled;
use tricluster_core::{
    cluster_metrics_observed, runreport, FanoutDecision, FanoutLevel, MiningResult, Params,
    Session, Timings, Tricluster,
};
use tricluster_matrix::io::read_stacked_tsv;

/// Span names of the layers, in pipeline order; each is also the stem of
/// its per-layer metric (see [`crate::metrics`]).
pub const HASH: &str = "obs.ledger.hash";
pub const PARSE: &str = "matrix.io.parse";
pub const RANGEGRAPH: &str = "core.rangegraph";
pub const BICLUSTER: &str = "core.bicluster";
pub const TRICLUSTER: &str = "core.tricluster";
pub const PRUNE: &str = "core.prune";
pub const METRICS: &str = "core.metrics";
pub const RENDER: &str = "core.runreport.render";
pub const CSV: &str = "core.report.csv";
/// The root span of one repetition.
pub const REP: &str = "rep";

/// Every layer span name, in pipeline order.
pub const LAYERS: [&str; 9] = [
    HASH, PARSE, RANGEGRAPH, BICLUSTER, TRICLUSTER, PRUNE, METRICS, RENDER, CSV,
];

/// Work counts of one repetition. All but `report_bytes` repeat exactly;
/// the report carries timings, whose digits vary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub rangegraph_edges: u64,
    pub bicluster_nodes: u64,
    pub biclusters: u64,
    pub tricluster_nodes: u64,
    pub triclusters: u64,
    pub report_bytes: u64,
}

impl Counts {
    fn deterministic(self) -> Counts {
        Counts {
            report_bytes: 0,
            ..self
        }
    }

    fn add(self, o: Counts) -> Counts {
        Counts {
            rangegraph_edges: self.rangegraph_edges + o.rangegraph_edges,
            bicluster_nodes: self.bicluster_nodes + o.bicluster_nodes,
            biclusters: self.biclusters + o.biclusters,
            tricluster_nodes: self.tricluster_nodes + o.tricluster_nodes,
            triclusters: self.triclusters + o.triclusters,
            report_bytes: self.report_bytes + o.report_bytes,
        }
    }
}

/// Runs one repetition of the layer pass over `bytes`, recording a `rep`
/// root span and one child span per layer call into `trace`. Returns the
/// final clusters (for the output check) and the work counts.
fn layer_pass(
    trace: &mut Trace,
    rep: u64,
    bytes: &[u8],
    params: &Params,
) -> Result<(Vec<Tricluster>, Counts), String> {
    let mut params = params.clone();
    params.threads = Some(1);
    let params = &params;
    let root = trace.open(REP, None, rep);
    let mut counts = Counts::default();
    let hash = trace.time(HASH, root, || content_hash(bytes));
    std::hint::black_box(hash);
    let (m, _labels) = trace
        .time(PARSE, root, || read_stacked_tsv(BufReader::new(bytes)))
        .map_err(|e| format!("parse: {e}"))?;
    // Histograms on, as in a `--report-json` run: the CLI then collects
    // them on the DFS hot paths.
    let rec = Recorder::new();
    let mut per_time = Vec::with_capacity(m.n_times());
    for t in 0..m.n_times() {
        let (rg, rg_stats) = trace.time(RANGEGRAPH, root, || {
            build_range_graph_observed(&m, t, params, &NullSink)
        });
        let (bcs, _, bc_stats) = trace.time(BICLUSTER, root, || {
            mine_biclusters_profiled(&m, &rg, params, true)
        });
        counts.rangegraph_edges += rg_stats.edges;
        counts.bicluster_nodes += bc_stats.nodes;
        counts.biclusters += bcs.len() as u64;
        rg_stats.publish(&rec);
        bc_stats.publish(&rec);
        per_time.push(bcs);
    }
    let (triclusters, _, tc_stats) = trace.time(TRICLUSTER, root, || {
        mine_triclusters_profiled(&m, &per_time, params, true)
    });
    counts.tricluster_nodes = tc_stats.nodes;
    tc_stats.publish(&rec);
    let (mut triclusters, prune_stats) = trace.time(PRUNE, root, || match &params.merge {
        Some(merge) => merge_and_prune_observed(triclusters, merge, &rec),
        None => (triclusters, PruneStats::default()),
    });
    counts.triclusters = triclusters.len() as u64;
    // The miner's deterministic output order.
    triclusters.sort_by(|a, b| {
        (a.genes.to_vec(), &a.samples, &a.times).cmp(&(b.genes.to_vec(), &b.samples, &b.times))
    });
    let met = trace.time(METRICS, root, || {
        cluster_metrics_observed(&m, &triclusters, &rec)
    });
    let result = MiningResult {
        triclusters,
        ranges_per_time: Vec::new(),
        per_time_biclusters: per_time,
        prune_stats,
        truncated: false,
        truncation: None,
        worker_failures: Vec::new(),
        timings: Timings::default(),
        report: rec.snapshot(),
        fanout: FanoutDecision {
            range_graph: FanoutLevel::Slice,
            bicluster: FanoutLevel::Slice,
            threads: 1,
        },
    };
    let rendered = trace.time(RENDER, root, || {
        runreport::report_to_json_v2(&m, &result, &result.report, &met).render_pretty()
    });
    counts.report_bytes = rendered.len() as u64;
    let csv = trace.time(CSV, root, || {
        let mut out = Vec::new();
        tricluster_core::report::write_csv(&mut out, &m, &result.triclusters, 1e-9).map(|()| out)
    });
    csv.map_err(|e| format!("csv: {e}"))?;
    trace.close(root);
    Ok((result.triclusters, counts))
}

/// Samples of repeated in-process rounds over a workload's datasets.
#[derive(Debug, Default)]
pub struct InProcess {
    session_1t: Vec<f64>,
    session_2t: Vec<f64>,
    session_observed: Vec<f64>,
    /// Work counts of each dataset's first round; later rounds over the
    /// same dataset must repeat them.
    counts: [Option<Counts>; DATASETS],
    report_bytes: Vec<f64>,
    pub rounds: u64,
    pub failed: u64,
}

impl InProcess {
    /// The dataset round `r` runs over.
    pub fn dataset_of(r: u64) -> usize {
        (r % DATASETS as u64) as usize
    }

    /// One round over the next dataset: a traced layer pass (its clusters
    /// checked against the dataset's reference) plus whole `Session::run`s
    /// at one and two threads and at one thread through the full sink
    /// stack.
    pub fn round(&mut self, trace: &mut Trace, data: &Datasets) -> Result<(), String> {
        let rep = self.rounds;
        let k = Self::dataset_of(rep);
        let d: &Dataset = &data.items[k];
        self.rounds += 1;
        match layer_pass(trace, rep, &d.tsv, &d.params) {
            Ok((clusters, counts)) => {
                self.report_bytes.push(counts.report_bytes as f64);
                let first = *self.counts[k].get_or_insert(counts);
                if clusters != d.reference || counts.deterministic() != first.deterministic() {
                    eprintln!("e2ebench: layer pass {rep} differs from its reference");
                    self.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("e2ebench: layer pass {rep} failed: {e}");
                self.failed += 1;
            }
        }
        self.session_1t
            .push(session_run(&d.matrix, &d.params, 1, false)?.as_secs_f64());
        self.session_2t
            .push(session_run(&d.matrix, &d.params, 2, false)?.as_secs_f64());
        self.session_observed
            .push(session_run(&d.matrix, &d.params, 1, true)?.as_secs_f64());
        Ok(())
    }

    /// Deterministic counts summed over the datasets (one pass each), with
    /// the median report size times the number of datasets.
    pub fn counts(&self) -> Counts {
        let total = self
            .counts
            .iter()
            .flatten()
            .fold(Counts::default(), |acc, c| acc.add(c.deterministic()));
        Counts {
            report_bytes: (median(&self.report_bytes) * DATASETS as f64).round() as u64,
            ..total
        }
    }

    /// Whole-run time at one thread over two threads.
    pub fn speedup_2t(&self) -> f64 {
        median(&self.session_1t) / median(&self.session_2t)
    }

    /// Extra time the full sink stack costs over `NullSink`, in percent.
    pub fn overhead_pct(&self) -> f64 {
        (median(&self.session_observed) / median(&self.session_1t) - 1.0) * 100.0
    }
}

/// Median self time of each layer across repetitions, in seconds.
pub fn layer_self_times(trace: &Trace) -> BTreeMap<&'static str, f64> {
    trace
        .self_times_by_name()
        .into_iter()
        .map(|(name, secs)| (name, median(&secs)))
        .collect()
}

/// Switches histogram collection on and nothing else, like the CLI does for
/// `--report-json`.
struct HistogramTap;

impl EventSink for HistogramTap {
    fn enabled(&self) -> bool {
        false
    }
    fn wants_histograms(&self) -> bool {
        true
    }
}

/// Wall time of one whole `Session::run` over `m` at `threads`, through the
/// CLI's full sink stack (trace events, histograms, timeline, progress
/// gauges, metrics registry) when `observed`, else through `NullSink`.
pub fn session_run(
    m: &tricluster_matrix::Matrix3,
    params: &Params,
    threads: usize,
    observed: bool,
) -> Result<Duration, String> {
    let mut params = params.clone();
    params.threads = Some(threads);
    let session = Session::new(params);
    let trace_sink = JsonLinesSink::new(std::io::sink());
    let timeline = Timeline::new();
    let progress = ProgressSink(std::sync::Arc::new(Progress::new()));
    let registry = Registry::new();
    let full = Fanout(vec![
        &trace_sink as &dyn EventSink,
        &HistogramTap,
        &timeline,
        &progress,
        &registry,
    ]);
    let sink: &dyn EventSink = if observed { &full } else { &NullSink };
    let start = Instant::now();
    let result = session.run(m, sink).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    std::hint::black_box(result);
    Ok(elapsed)
}
