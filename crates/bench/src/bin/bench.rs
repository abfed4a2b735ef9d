//! `bench` — the perf-regression and determinism gates.
//!
//! ```sh
//! bench diff <baseline.json> <current.json> [--time-tol F] [--time-floor S]
//!            [--mem-tol F] [--mem-floor BYTES] [--update]
//! bench determinism <a.json> <b.json>
//! bench scaling [--json PATH] [--threads N,N,...] [--trace-dir DIR]
//! bench kernel [--json PATH] [--ledger DIR] [--genes N,N,...] [--samples N]
//!              [--min-ms MS]
//! ```
//!
//! `diff` compares two `fig7 --json` documents (normally the committed
//! `BENCH_baseline.json` against a fresh `fig7 --smoke --json` run) and
//! fails — exit code 1 — when any point's wall time, per-phase time, or
//! peak memory exceeds the baseline beyond the tolerances. Structural
//! mismatches (different sweeps/points: the baseline is stale) and usage
//! errors exit 2, so CI can tell "regressed" from "regenerate the
//! baseline". `--update` copies the current document over the baseline
//! instead of comparing (the sanctioned way to refresh it).
//!
//! `determinism` compares the input-determined sections (clusters, report
//! counters, histograms, logical memory, search space) of two
//! `mine --report-json` documents — the same input mined at two thread
//! counts must match byte for byte; exit 1 lists the differing sections.
//!
//! `scaling` mines one fixed few-slice workload at several thread counts
//! (by default every count from 1 to the host's available parallelism)
//! and emits the wall times in the `fig7 --json` schema (x = thread
//! count), so thread-scaling runs can be archived and diffed like any
//! other sweep. With `--trace-dir DIR` each point additionally exports a
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

use tricluster_bench::regress::{determinism_diff, diff};
use tricluster_bench::{kernel, measure_threads_observed, scaling_spec};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, DiffTolerances, Ledger, NewEntry};
use tricluster_core::obs::timeline::Timeline;
use tricluster_core::obs::{EventSink, NullSink};

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(argv: &[String]) -> i32 {
    match argv.split_first().map(|(c, r)| (c.as_str(), r)) {
        Some(("diff", rest)) => run_diff(rest),
        Some(("determinism", rest)) => run_determinism(rest),
        Some(("scaling", rest)) => run_scaling(rest),
        Some(("kernel", rest)) => run_kernel(rest),
        _ => usage("expected a subcommand: diff | determinism | scaling | kernel"),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_diff(rest: &[String]) -> i32 {
    let mut paths = Vec::new();
    let mut tol = DiffTolerances::default();
    let mut update = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut float_flag = |tag: &str| -> Result<f64, String> {
            it.next()
                .ok_or_else(|| format!("{tag} needs a value"))?
                .parse::<f64>()
                .map_err(|e| format!("{tag}: {e}"))
        };
        match arg.as_str() {
            "--time-tol" => match float_flag("--time-tol") {
                Ok(v) => tol.time_rel = v,
                Err(e) => return usage(&e),
            },
            "--time-floor" => match float_flag("--time-floor") {
                Ok(v) => tol.time_floor_secs = v,
                Err(e) => return usage(&e),
            },
            "--mem-tol" => match float_flag("--mem-tol") {
                Ok(v) => tol.mem_rel = v,
                Err(e) => return usage(&e),
            },
            "--mem-floor" => match float_flag("--mem-floor") {
                Ok(v) => tol.mem_floor_bytes = v as u64,
                Err(e) => return usage(&e),
            },
            "--update" => update = true,
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage("expected exactly two files: <baseline.json> <current.json>");
    };
    if update {
        // Refresh the baseline: validate the current document parses, then
        // copy it over wholesale (tolerances are irrelevant here).
        let current = match load(current_path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        match current.get("schema").and_then(Json::as_str) {
            Some(s) if s.starts_with("tricluster.fig7/") => {}
            other => {
                eprintln!("error: {current_path}: unexpected schema {other:?}");
                return 2;
            }
        }
        if let Err(e) = std::fs::write(baseline_path, current.render_pretty() + "\n") {
            eprintln!("error: cannot write {baseline_path}: {e}");
            return 2;
        }
        println!("bench diff: baseline {baseline_path} updated from {current_path}");
        return 0;
    }
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match diff(&baseline, &current, &tol) {
        Ok(regressions) if regressions.is_empty() => {
            println!(
                "bench diff: OK — {current_path} within tolerances of {baseline_path} \
                 (time +{:.0}% + {:.0} ms, mem +{:.0}% + {} KiB)",
                tol.time_rel * 100.0,
                tol.time_floor_secs * 1000.0,
                tol.mem_rel * 100.0,
                tol.mem_floor_bytes >> 10,
            );
            0
        }
        Ok(regressions) => {
            eprintln!("bench diff: {} regression(s):", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            1
        }
        Err(e) => {
            eprintln!(
                "bench diff: documents are not comparable: {e}\n\
                 (if the sweep set changed on purpose, regenerate the baseline with\n\
                  `cargo run --release -p tricluster-bench --bin fig7 -- --smoke --json current.json`\n\
                  followed by `bench diff BENCH_baseline.json current.json --update`)"
            );
            2
        }
    }
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
         bench diff <baseline.json> <current.json> [--time-tol F] [--time-floor SECS] \
         [--mem-tol F] [--mem-floor BYTES] [--update]\n  \
         bench determinism <a.json> <b.json>\n  \
         bench scaling [--json PATH] [--threads N,N,...] [--trace-dir DIR]\n  \
         bench kernel [--json PATH] [--ledger DIR] [--genes N,N,...] [--samples N] \
         [--min-ms MS]\n({msg})"
    );
    2
}
