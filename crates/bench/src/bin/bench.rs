//! `bench` — the determinism gate and two measurement harnesses.
//!
//! ```sh
//! bench determinism <a.json> <b.json>
//! bench scaling [--json PATH] [--threads N,N,...] [--trace-dir DIR]
//! bench kernel [--json PATH] [--ledger DIR] [--genes N,N,...] [--samples N]
//!              [--min-ms MS]
//! ```
//!
//! `determinism` compares the input-determined sections (clusters, report
//! counters but the measured `memory.alloc.*`, histograms, logical memory,
//! search space) of two `mine --report-json` documents with
//! `runreport::determinism_diff` — the same input mined at two thread
//! counts must match byte for byte; exit 1 lists the differing sections.
//!
//! `scaling` mines one fixed few-slice workload at several thread counts
//! (by default every count from 1 to the host's available parallelism)
//! and emits the wall times in the `fig7 --json` schema (x = thread
//! count). With `--trace-dir DIR` each point additionally exports a
//! Chrome Trace Event timeline (`DIR/scaling-threads-N.trace.json`) so the
//! per-worker schedule behind each wall time can be inspected in Perfetto.
//!
//! `kernel` microbenchmarks the range-graph pair kernel stage by stage
//! (transpose, full pair, classify, find-ranges, bitset intersect) on
//! synthetic single-slice workloads at several gene counts, printing
//! ns-per-gene CSV. It then times the range test's block scan and sparse
//! walk apart on a `(slack, blocks)` grid and prints the walk-step cost
//! `K` whose crossover rule loses the least time over the grid, beside the
//! one the hinted test uses. `--json` writes a
//! `tricluster.kernel/v1` document and `--ledger DIR` archives it like a
//! fig7 sweep (kind `bench`).

use std::time::Duration;

use tricluster_bench::{kernel, measure_threads_observed, scaling_spec};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, Ledger, NewEntry};
use tricluster_core::obs::timeline::Timeline;
use tricluster_core::obs::{EventSink, NullSink};
use tricluster_core::runreport::determinism_diff;

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(argv: &[String]) -> i32 {
    match argv.split_first().map(|(c, r)| (c.as_str(), r)) {
        Some(("determinism", rest)) => run_determinism(rest),
        Some(("scaling", rest)) => run_scaling(rest),
        Some(("kernel", rest)) => run_kernel(rest),
        _ => usage("expected a subcommand: determinism | scaling | kernel"),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_determinism(rest: &[String]) -> i32 {
    let [a_path, b_path] = rest else {
        return usage("determinism expects exactly two files: <a.json> <b.json>");
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match determinism_diff(&a, &b) {
        Ok(diffs) if diffs.is_empty() => {
            println!(
                "bench determinism: OK — input-determined sections of {a_path} and {b_path} \
                 are identical"
            );
            0
        }
        Ok(diffs) => {
            eprintln!(
                "bench determinism: {} section(s) differ between {a_path} and {b_path}:",
                diffs.len()
            );
            for d in &diffs {
                eprintln!("  {d}");
            }
            1
        }
        Err(e) => {
            eprintln!("bench determinism: documents are not comparable: {e}");
            2
        }
    }
}

fn run_scaling(rest: &[String]) -> i32 {
    let mut json_path = None;
    let mut trace_dir = None;
    // Counts past the host's cores only add scheduler noise.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts: Vec<usize> = (1..=cores).collect();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => return usage("--json needs a path"),
            },
            "--trace-dir" => match it.next() {
                Some(dir) => trace_dir = Some(std::path::PathBuf::from(dir)),
                None => return usage("--trace-dir needs a directory"),
            },
            "--threads" => match it.next().map(|s| parse_thread_list(s)) {
                Some(Ok(list)) => thread_counts = list,
                Some(Err(e)) => return usage(&e),
                None => return usage("--threads needs a comma-separated list"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return 2;
        }
    }
    let spec = scaling_spec();
    println!(
        "# thread scaling on {} genes x {} samples x {} times",
        spec.n_genes, spec.n_samples, spec.n_times
    );
    println!("threads,seconds,clusters,rg_fanout,bc_fanout");
    let mut points_json = Vec::new();
    for &n in &thread_counts {
        // A fresh timeline per point keeps each trace file to one run.
        let timeline = trace_dir.as_ref().map(|_| Timeline::new());
        let sink: &dyn EventSink = match &timeline {
            Some(t) => t,
            None => &NullSink,
        };
        let p = measure_threads_observed(&spec, n as f64, n, sink);
        if let (Some(t), Some(dir)) = (&timeline, &trace_dir) {
            let path = dir.join(format!("scaling-threads-{n}.trace.json"));
            if let Err(e) = std::fs::write(&path, t.to_chrome_json().render_pretty() + "\n") {
                eprintln!("cannot write {}: {e}", path.display());
                return 2;
            }
            eprintln!("wrote trace to {}", path.display());
        }
        println!(
            "{},{:.3},{},{},{}",
            n,
            p.time.as_secs_f64(),
            p.clusters,
            p.fanout.range_graph.as_str(),
            p.fanout.bicluster.as_str(),
        );
        points_json.push(p.to_json());
    }
    if let Some(path) = json_path {
        let doc = Json::obj()
            .with("schema", Json::Str("tricluster.fig7/v2".into()))
            .with("scale", Json::Str("scaling".into()))
            .with(
                "sweeps",
                Json::Arr(vec![Json::obj()
                    .with("figure", Json::Str("scaling-threads".into()))
                    .with("x_axis", Json::Str("worker threads".into()))
                    .with("points", Json::Arr(points_json))]),
            );
        if let Err(e) = std::fs::write(&path, doc.render_pretty() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
        eprintln!("wrote scaling JSON to {path}");
    }
    0
}

fn parse_thread_list(s: &str) -> Result<Vec<usize>, String> {
    let list: Result<Vec<usize>, _> = s.split(',').map(str::parse).collect();
    match list {
        Ok(v) if !v.is_empty() && v.iter().all(|&n| n > 0) => Ok(v),
        _ => Err(format!("--threads: bad list {s:?} (want e.g. 1,2,4,8)")),
    }
}

fn run_kernel(rest: &[String]) -> i32 {
    let mut json_path = None;
    let mut ledger_dir = None;
    let mut genes = vec![100usize, 200, 400, 800, 1600];
    let mut samples = 10usize;
    let mut min_ms = 25u64;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => return usage("--json needs a path"),
            },
            "--ledger" => match it.next() {
                Some(dir) => ledger_dir = Some(dir.clone()),
                None => return usage("--ledger needs a directory"),
            },
            "--genes" => match it.next().map(|s| parse_thread_list(s)) {
                Some(Ok(list)) => genes = list,
                Some(Err(e)) => return usage(&e.replace("--threads", "--genes")),
                None => return usage("--genes needs a comma-separated list"),
            },
            "--samples" => match it.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n >= 2 => samples = n,
                _ => return usage("--samples needs an integer >= 2"),
            },
            "--min-ms" => match it.next().map(|s| s.parse::<u64>()) {
                Some(Ok(ms)) if ms > 0 => min_ms = ms,
                _ => return usage("--min-ms needs a positive integer"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    println!("# pair-kernel microbenchmark: {samples} samples, >={min_ms}ms per stage");
    println!("genes,pairs,edges,stage,sweeps,ns_per_gene");
    let mut points = Vec::new();
    for &g in &genes {
        let spec = kernel::kernel_spec(g, samples);
        let point = kernel::measure_point(&spec, Duration::from_millis(min_ms));
        for s in &point.stages {
            println!(
                "{},{},{},{},{},{:.2}",
                point.n_genes, point.pairs, point.edges, s.name, s.sweeps, s.ns_per_gene
            );
        }
        points.push(point);
    }
    let crossover = kernel::measure_crossover(Duration::from_millis(min_ms));
    let used = tricluster_bitset::SPARSE_STEP_BLOCKS;
    println!(
        "# range-test crossover: failing tests, scan vs walk; the rule walks \
         when (slack + 1) * {used} <= blocks"
    );
    println!("blocks,slack,scan_ns,walk_ns,faster,rule");
    for p in &crossover.points {
        let path = |walk: bool| if walk { "walk" } else { "scan" };
        println!(
            "{},{},{:.1},{:.1},{},{}",
            p.blocks,
            p.slack,
            p.scan_ns,
            p.walk_ns,
            path(p.walk_ns < p.scan_ns),
            path(p.walks_at(used))
        );
    }
    let k = crossover.measured_k();
    println!(
        "# measured K = {k} (grid regret {:.0} ns); SPARSE_STEP_BLOCKS = {used} (grid regret {:.0} ns)",
        crossover.regret(k),
        crossover.regret(used)
    );
    if json_path.is_some() || ledger_dir.is_some() {
        let doc = kernel::kernel_doc(&points, &crossover);
        if let Some(path) = json_path {
            if let Err(e) = std::fs::write(&path, doc.render_pretty() + "\n") {
                eprintln!("cannot write {path}: {e}");
                return 2;
            }
            eprintln!("wrote kernel JSON to {path}");
        }
        if let Some(dir) = ledger_dir {
            // Workloads are generated in-process, so the "dataset" hash
            // covers the sweep family instead of file bytes.
            let genes_label = genes
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let archived = Ledger::open(&dir).and_then(|ledger| {
                ledger.archive(&NewEntry {
                    kind: "bench",
                    label: Some(format!("kernel (genes {genes_label})")),
                    dataset_hash: content_hash(format!("kernel/{genes_label}").as_bytes()),
                    params_hash: content_hash(format!("{samples}/{min_ms}").as_bytes()),
                    report: &doc,
                    trace: None,
                    flame: None,
                })
            });
            match archived {
                Ok(id) => eprintln!("kernel run archived as {id} in {dir}"),
                Err(e) => {
                    eprintln!("cannot archive kernel run in {dir}: {e}");
                    return 2;
                }
            }
        }
    }
    0
}

fn usage(msg: &str) -> i32 {
    eprintln!(
        "usage:\n  \
         bench determinism <a.json> <b.json>\n  \
         bench scaling [--json PATH] [--threads N,N,...] [--trace-dir DIR]\n  \
         bench kernel [--json PATH] [--ledger DIR] [--genes N,N,...] [--samples N] \
         [--min-ms MS]\n({msg})"
    );
    2
}
