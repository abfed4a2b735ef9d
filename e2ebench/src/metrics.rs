//! The per-layer metric set, printed in full on every workload so traced
//! runs are comparable across workloads.

use crate::layers::{self, InProcess};
use crate::result::{metric, Metric};
use std::collections::BTreeMap;

/// Client- and daemon-side numbers of one served phase.
#[derive(Debug)]
pub struct ServeLayers {
    /// Median `POST /jobs` round trip of jobs whose dataset was cached.
    pub post_hit_s: f64,
    /// Median `POST /jobs` round trip of jobs whose dataset was not.
    pub post_miss_s: f64,
    /// Median duration of the `GET /jobs/<id>` that returned the report.
    pub fetch_s: f64,
    /// Median `Json::parse` time of one finished-job response body.
    pub decode_s: f64,
    /// Mean queue wait per job, from the daemon's `/metrics` deltas.
    pub queue_wait_s: f64,
    /// Mean run time per job (mine, metrics, report, archive), likewise.
    pub run_s: f64,
    /// Mean ledger archive time per job, likewise.
    pub archive_s: f64,
    /// Dataset-cache hits over lookups during the measured phase.
    pub cache_hit_ratio: f64,
    /// Mean `GET /jobs/<id>` polls per job.
    pub polls: f64,
    /// Latest a request left after its due time.
    pub lag_max_s: f64,
}

/// What [`per_layer`] assembles its table from.
pub struct LayerInputs<'a> {
    /// Median self time per layer span, from the in-process pass.
    pub self_s: &'a BTreeMap<&'static str, f64>,
    pub inproc: &'a InProcess,
    /// Parse time per end-to-end operation: every one-shot run parses, a
    /// served job only when its dataset missed the cache.
    pub parse_s: f64,
    pub serve: &'a ServeLayers,
    /// The traced pass's own end-to-end median.
    pub e2e_s: f64,
    /// The part of `e2e_s` its layers account for.
    pub attributed_s: f64,
}

pub fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let s = |name: &str| x.self_s.get(name).copied().unwrap_or(0.0);
    let c = x.inproc.counts();
    let per_node = |found: u64, nodes: u64| {
        if nodes == 0 {
            0.0
        } else {
            found as f64 / nodes as f64
        }
    };
    let sv = x.serve;
    vec![
        metric("matrix.io.parse_s", "s", x.parse_s),
        metric("obs.ledger.hash_s", "s", s(layers::HASH)),
        metric("core.rangegraph.s", "s", s(layers::RANGEGRAPH)),
        metric("core.rangegraph.edges", "count", c.rangegraph_edges as f64),
        metric("core.bicluster.s", "s", s(layers::BICLUSTER)),
        metric("core.bicluster.nodes", "count", c.bicluster_nodes as f64),
        metric(
            "core.bicluster.yield",
            "1/node",
            per_node(c.biclusters, c.bicluster_nodes),
        ),
        metric("core.tricluster.s", "s", s(layers::TRICLUSTER)),
        metric("core.tricluster.nodes", "count", c.tricluster_nodes as f64),
        metric(
            "core.tricluster.yield",
            "1/node",
            per_node(c.triclusters, c.tricluster_nodes),
        ),
        metric("core.prune.s", "s", s(layers::PRUNE)),
        metric("core.metrics.s", "s", s(layers::METRICS)),
        metric("core.runreport.render_s", "s", s(layers::RENDER)),
        metric("core.runreport.bytes", "bytes", c.report_bytes as f64),
        metric("core.report.csv_s", "s", s(layers::CSV)),
        metric("core.miner.speedup_2t", "x", x.inproc.speedup_2t()),
        metric("obs.overhead_pct", "%", x.inproc.overhead_pct()),
        metric("cli.serve.post_s_hit", "s", sv.post_hit_s),
        metric("cli.serve.post_s_miss", "s", sv.post_miss_s),
        metric("cli.serve.fetch_s", "s", sv.fetch_s),
        metric("obs.json.decode_s", "s", sv.decode_s),
        metric("cli.serve.queue_wait_s", "s", sv.queue_wait_s),
        metric("cli.serve.run_s", "s", sv.run_s),
        metric("cli.serve.archive_s", "s", sv.archive_s),
        metric("core.engine.cache_hit_ratio", "ratio", sv.cache_hit_ratio),
        metric("cli.serve.polls", "count", sv.polls),
        metric("bench.client.lag_s_max", "s", sv.lag_max_s),
        metric("bench.traced.e2e_s", "s", x.e2e_s),
        metric("unattributed_s", "s", x.e2e_s - x.attributed_s),
    ]
}
