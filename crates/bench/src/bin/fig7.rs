//! E3 — Figure 7(a)–(f): TriCluster's sensitivity to the synthetic-data
//! parameters. Prints one CSV series per sub-figure
//! (`x, seconds, clusters, recall`); `--json PATH` additionally writes the
//! series with per-phase timing breakdowns (and, when built with
//! `--features track-alloc`, measured peak memory) as a JSON document.
//!
//! ```sh
//! cargo run --release -p tricluster-bench --bin fig7            # scaled
//! TRICLUSTER_FULL=1 cargo run --release -p tricluster-bench --bin fig7
//! cargo run --release -p tricluster-bench --bin fig7 -- --json fig7.json
//! ```
//!
//! `--ledger DIR` archives the sweep document into a run ledger (kind
//! `bench`), browsable with `tricluster runs`. `--metrics-addr HOST:PORT`
//! serves the sweep's live metrics over HTTP (`/metrics`, `/progress`,
//! `/healthz`) for the process lifetime — point `tricluster watch` at it.
//!
//! Expected shapes (paper §5.1): (a) ~linear in genes, (b) exponential in
//! samples, (c) ~linear in time slices over this range, (d) linear in
//! cluster count, (e) flat in overlap %, (f) growing with noise.

use std::sync::Arc;
use tricluster_bench::{fig7_params, fig7_sweeps, full_scale, measure, measure_with_observed};
use tricluster_core::obs::httpd::{scrape_handler, HttpServer};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, Ledger, NewEntry};
use tricluster_core::obs::metrics::Registry;

/// With `--features track-alloc`, measure heap usage so sweep points carry
/// `peak_live_bytes`/`alloc_bytes`.
#[cfg(feature = "track-alloc")]
#[global_allocator]
static ALLOC: tricluster_core::obs::alloc::TrackingAlloc =
    tricluster_core::obs::alloc::TrackingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = None;
    let mut ledger_dir = None;
    let mut metrics_addr: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => usage("--json needs a path"),
            },
            "--ledger" => match it.next() {
                Some(dir) => ledger_dir = Some(dir.clone()),
                None => usage("--ledger needs a directory"),
            },
            "--metrics-addr" => match it.next() {
                Some(addr) => metrics_addr = Some(addr.clone()),
                None => usage("--metrics-addr needs HOST:PORT"),
            },
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    // One registry spans the whole sweep: counters and span histograms
    // accumulate across points, and so do the progress gauges (the
    // registry is created once, so its slice, pair and branch totals and
    // `elapsed_secs` run over the whole sweep), and the server stays
    // scrapeable until the process exits.
    let metrics = metrics_addr.map(|addr| {
        let registry = Arc::new(Registry::for_run());
        let server = match HttpServer::serve(&addr, 0, scrape_handler(registry.clone())) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("cannot serve metrics on {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("metrics: serving on {}", server.url());
        (registry, server)
    });

    let full = full_scale();
    let label = if full { "paper" } else { "scaled-down" };
    let sweeps = fig7_sweeps(full);
    println!("# Figure 7 parameter sensitivity ({label} scale)");
    let mut sweeps_json: Vec<Json> = Vec::new();
    for (figure, xlabel, points) in sweeps {
        println!("\n## {figure}: time vs {xlabel}");
        println!("{xlabel},seconds,clusters,recall");
        let mut points_json: Vec<Json> = Vec::new();
        for (x, spec) in points {
            let p = match &metrics {
                Some((registry, _server)) => {
                    measure_with_observed(&spec, x, fig7_params(&spec), &**registry)
                }
                None => measure(&spec, x),
            };
            println!(
                "{},{:.3},{},{:.2}",
                p.x,
                p.time.as_secs_f64(),
                p.clusters,
                p.recall
            );
            points_json.push(p.to_json());
        }
        sweeps_json.push(
            Json::obj()
                .with("figure", Json::Str(figure.to_string()))
                .with("x_axis", Json::Str(xlabel.to_string()))
                .with("points", Json::Arr(points_json)),
        );
    }
    if json_path.is_some() || ledger_dir.is_some() {
        let doc = Json::obj()
            .with("schema", Json::Str("tricluster.fig7/v2".into()))
            .with("scale", Json::Str(label.into()))
            .with("sweeps", Json::Arr(sweeps_json));
        if let Some(path) = json_path {
            if let Err(e) = std::fs::write(&path, doc.render_pretty() + "\n") {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote per-phase JSON to {path}");
        }
        if let Some(dir) = ledger_dir {
            // Sweep inputs are generated in-process, so the "dataset" hash
            // covers the sweep family and scale instead of file bytes.
            let archived = Ledger::open(&dir).and_then(|ledger| {
                ledger.archive(&NewEntry {
                    kind: "bench",
                    label: Some(format!("fig7 ({label})")),
                    dataset_hash: content_hash(format!("fig7/{label}").as_bytes()),
                    params_hash: content_hash(doc.get("scale").unwrap().render().as_bytes()),
                    report: &doc,
                    trace: None,
                    flame: None,
                })
            });
            match archived {
                Ok(id) => eprintln!("sweep archived as {id} in {dir}"),
                Err(e) => {
                    eprintln!("cannot archive sweep in {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("usage: fig7 [--json PATH] [--ledger DIR] [--metrics-addr HOST:PORT] ({msg})");
    std::process::exit(2);
}
