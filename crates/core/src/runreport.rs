//! The structured `--report-json` document (schema `tricluster.report/v2`)
//! and its validator.
//!
//! Version history:
//!
//! * **v1** — `schema`, `matrix`, `clusters`, `truncated`, `timings`,
//!   `metrics`, and `report` (counters + spans).
//! * **v2** — adds three top-level sections: `histograms` (value
//!   distributions, input-determined and therefore byte-identical across
//!   thread counts), `memory` (logical data-structure sizes plus measured
//!   allocator counters when a tracking allocator is installed), and
//!   `search_space` (nodes expanded, prunes by reason, maximality
//!   rejections, dedup hits). Every v1 key is preserved.
//!
//! A degraded run (budget truncation or isolated worker panics) additionally
//! carries a top-level `fault` object with the machine-readable
//! `truncation_reason` and, when any worker was lost, a `worker_failures`
//! array. Clean runs omit the object entirely so their documents stay
//! byte-identical to reports from before the fault layer existed.
//!
//! The builder lives in core (not the CLI) so library users and the schema
//! validator share one definition. So does the one run comparator,
//! [`determinism_diff`] over [`DETERMINISTIC_SECTIONS`], which
//! `bench determinism`, `runs diff` and the determinism tests all call.

use crate::metrics::Metrics;
use crate::miner::MiningResult;
use tricluster_matrix::Matrix3;
use tricluster_obs::json::Json;
use tricluster_obs::{names, RunReport};

/// The current report schema identifier.
pub const SCHEMA_V2: &str = "tricluster.report/v2";

/// Builds the full v2 report document.
pub fn report_to_json_v2(
    m: &Matrix3,
    result: &MiningResult,
    report: &RunReport,
    met: &Metrics,
) -> Json {
    let t = &result.timings;
    let secs = |d: std::time::Duration| Json::F64(d.as_secs_f64());
    Json::obj()
        .with("schema", Json::Str(SCHEMA_V2.into()))
        .with(
            "matrix",
            Json::obj()
                .with("genes", Json::U64(m.n_genes() as u64))
                .with("samples", Json::U64(m.n_samples() as u64))
                .with("times", Json::U64(m.n_times() as u64)),
        )
        .with("clusters", Json::U64(result.triclusters.len() as u64))
        .with("truncated", Json::Bool(result.truncated))
        .with(
            "timings",
            Json::obj()
                .with("slices_wall_secs", secs(t.slices_wall))
                .with("range_graphs_cpu_secs", secs(t.range_graphs))
                .with("biclusters_cpu_secs", secs(t.biclusters))
                .with("triclusters_secs", secs(t.triclusters))
                .with("prune_secs", secs(t.prune))
                .with("total_secs", secs(t.total())),
        )
        .with(
            "metrics",
            Json::obj()
                .with("cluster_count", Json::U64(met.cluster_count as u64))
                .with("element_sum", Json::U64(met.element_sum as u64))
                .with("coverage", Json::U64(met.coverage as u64))
                .with("overlap", Json::F64(met.overlap))
                .with("fluctuation_gene", Json::F64(met.fluctuation_gene))
                .with("fluctuation_sample", Json::F64(met.fluctuation_sample))
                .with("fluctuation_time", Json::F64(met.fluctuation_time)),
        )
        .with("report", report.to_json())
        .with("histograms", histograms_json(report))
        .with("memory", memory_json(report))
        .with("search_space", search_space_json(report))
        .with("meta", meta_json(result.fanout.threads))
        .maybe_with("fault", fault_json(result))
}

/// The `meta` section: build/environment provenance (crate version, git
/// commit when the process runs inside a checkout, host triple, the
/// kernels' compile-time CPU features, worker count) so archived reports
/// are self-describing. Host-, build- and checkout-dependent by nature, so
/// it is never part of the deterministic sections.
pub fn meta_json(threads: usize) -> Json {
    Json::obj()
        .with("version", Json::Str(env!("CARGO_PKG_VERSION").into()))
        .maybe_with("git", git_hash().map(Json::Str))
        .with(
            "host",
            Json::Str(format!(
                "{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS
            )),
        )
        .with(
            "cpu_features",
            Json::Arr(
                cpu_features()
                    .into_iter()
                    .map(|f| Json::Str(f.into()))
                    .collect(),
            ),
        )
        .with("threads", Json::U64(threads as u64))
}

/// The compile-time CPU features that shape the bitset kernels, as enabled
/// in this build: `popcnt` makes each `count_ones` one instruction (x86_64
/// builds get it from `.cargo/config.toml`'s `x86-64-v2` target), `sse4.2`
/// comes with that level, and `avx2` would widen the four-lane block loops.
/// Empty for a baseline x86-64 build, whose popcounts run in software.
pub fn cpu_features() -> Vec<&'static str> {
    [
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect()
}

/// Best-effort current commit hash: walks up from the working directory to
/// the nearest `.git` and follows `HEAD` through one level of ref
/// indirection (loose ref file, then `packed-refs`). `None` anywhere
/// outside a checkout — no git binary is invoked.
fn git_hash() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return git_head_hash(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn git_head_hash(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // detached HEAD carries the hash directly
        return (head.len() >= 7).then(|| head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git.join(refname)) {
        let loose = loose.trim();
        if !loose.is_empty() {
            return Some(loose.to_string());
        }
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name.trim() == refname).then(|| hash.to_string())
    })
}

/// The `fault` section of a degraded run; `None` for clean runs.
pub fn fault_json(result: &MiningResult) -> Option<Json> {
    let reason = result.truncation?;
    let mut obj = Json::obj().with("truncation_reason", Json::Str(reason.as_str().into()));
    if !result.worker_failures.is_empty() {
        obj = obj.with(
            "worker_failures",
            Json::Arr(
                result
                    .worker_failures
                    .iter()
                    .map(|f| {
                        Json::obj()
                            .with("phase", Json::Str(f.phase.into()))
                            .with("unit", Json::Str(f.unit.clone()))
                            .with("message", Json::Str(f.message.clone()))
                    })
                    .collect(),
            ),
        );
    }
    Some(obj)
}

/// The `histograms` section: every value histogram of the report. These are
/// input-determined (no wall-clock values), so the section renders
/// byte-identically across thread counts; span latency distributions live
/// under `report.spans` instead.
pub fn histograms_json(report: &RunReport) -> Json {
    Json::Obj(
        report
            .histograms
            .iter()
            .map(|(k, h)| (k.to_string(), h.to_json()))
            .collect(),
    )
}

/// The `memory` section: deterministic logical sizes, plus — when the
/// binary installed the tracking allocator (feature `track-alloc`) — an
/// `alloc` sub-object with measured totals and a `phase_bytes` sub-object
/// attributing bytes and allocation calls to each pipeline phase.
pub fn memory_json(report: &RunReport) -> Json {
    let c = |name| Json::U64(report.counter(name));
    let mut obj = Json::obj()
        .with("matrix_bytes", c(names::M_MATRIX_BYTES))
        .with("rangegraph_peak_bytes", c(names::M_RANGEGRAPH_BYTES))
        .with("bicluster_bytes", c(names::M_BICLUSTER_BYTES))
        .with("tricluster_bytes", c(names::M_TRICLUSTER_BYTES));
    if report.counter(names::M_ALLOC_TOTAL_CALLS) > 0 {
        let phase = |bytes, allocs| {
            Json::obj()
                .with("bytes", c(bytes))
                .with("allocs", c(allocs))
        };
        obj = obj
            .with(
                "alloc",
                Json::obj()
                    .with("total_bytes", c(names::M_ALLOC_TOTAL_BYTES))
                    .with("total_calls", c(names::M_ALLOC_TOTAL_CALLS))
                    .with("peak_live_bytes", c(names::M_ALLOC_PEAK_BYTES)),
            )
            .with(
                "phase_bytes",
                Json::obj()
                    .with(
                        "slices",
                        phase(names::M_ALLOC_SLICES_BYTES, names::M_ALLOC_SLICES_CALLS),
                    )
                    .with(
                        "triclusters",
                        phase(
                            names::M_ALLOC_TRICLUSTERS_BYTES,
                            names::M_ALLOC_TRICLUSTERS_CALLS,
                        ),
                    )
                    .with(
                        "prune",
                        phase(names::M_ALLOC_PRUNE_BYTES, names::M_ALLOC_PRUNE_CALLS),
                    ),
            );
    }
    obj
}

/// The `search_space` section: how much of the candidate space the DFS
/// phases expanded and why the rest was cut.
pub fn search_space_json(report: &RunReport) -> Json {
    let c = |name| report.counter(name);
    Json::obj()
        .with(
            "nodes_expanded",
            Json::obj()
                .with("bicluster", Json::U64(c(names::BC_NODES)))
                .with("tricluster", Json::U64(c(names::TC_NODES)))
                .with("total", Json::U64(c(names::BC_NODES) + c(names::TC_NODES))),
        )
        .with(
            "prunes",
            Json::obj()
                .with(
                    "delta_threshold",
                    Json::U64(c(names::BC_REJECTED_DELTA) + c(names::TC_REJECTED_DELTA)),
                )
                .with("too_small", Json::U64(c(names::TC_REJECTED_SMALL)))
                .with("incoherent", Json::U64(c(names::TC_REJECTED_INCOHERENT)))
                .with("merged", Json::U64(c(names::PR_MERGED)))
                .with("deleted_pairwise", Json::U64(c(names::PR_DELETED_PAIRWISE)))
                .with(
                    "deleted_multicover",
                    Json::U64(c(names::PR_DELETED_MULTICOVER)),
                ),
        )
        .with(
            "maximality_rejections",
            Json::obj()
                .with("bicluster", Json::U64(c(names::BC_REJECTED_SUBSUMED)))
                .with(
                    "bicluster_cross_branch",
                    Json::U64(c(names::BC_MERGE_SUBSUMED)),
                )
                .with("tricluster", Json::U64(c(names::TC_REJECTED_SUBSUMED)))
                .with("bicluster_replaced", Json::U64(c(names::BC_REPLACED)))
                .with("tricluster_replaced", Json::U64(c(names::TC_REPLACED))),
        )
        .with(
            "dedup_hits",
            Json::obj()
                .with("bicluster", Json::U64(c(names::BC_DEDUP_HITS)))
                .with("tricluster", Json::U64(c(names::TC_DEDUP_HITS))),
        )
        .with(
            "budget",
            Json::obj()
                .with("bicluster_spent", Json::U64(c(names::BC_BUDGET_SPENT)))
                .with("tricluster_spent", Json::U64(c(names::TC_BUDGET_SPENT))),
        )
}

/// The `--explain` document: the three v2 profile sections on their own.
pub fn explain_json(report: &RunReport) -> Json {
    Json::obj()
        .with("schema", Json::Str("tricluster.explain/v1".into()))
        .with("search_space", search_space_json(report))
        .with("histograms", histograms_json(report))
        .with("memory", memory_json(report))
}

/// Human rendering of the search-space profile (the `-vv` view), read from
/// the [`search_space_json`] section so counter names are mapped to the
/// profile in one place.
pub fn render_search_space_human(report: &RunReport) -> String {
    let section = search_space_json(report);
    let line = |label: &str, group: &str, parts: &[(&str, &str)]| {
        let n = |key| {
            section
                .get_path(&[group, key])
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let total: u64 = parts.iter().map(|&(key, _)| n(key)).sum();
        let detail: Vec<String> = parts
            .iter()
            .map(|&(key, shown)| format!("{shown} {}", n(key)))
            .collect();
        format!("  {label:<21} {total:>12}  ({})\n", detail.join(", "))
    };
    let both = [("bicluster", "bicluster"), ("tricluster", "tricluster")];
    [
        line("nodes expanded", "nodes_expanded", &both),
        line(
            "pruned",
            "prunes",
            &[
                ("delta_threshold", "delta"),
                ("too_small", "small"),
                ("incoherent", "incoherent"),
            ],
        ),
        line(
            "maximality rejections",
            "maximality_rejections",
            &[
                ("bicluster", "bicluster"),
                ("bicluster_cross_branch", "cross-branch"),
                ("tricluster", "tricluster"),
            ],
        ),
        line("dedup hits", "dedup_hits", &both),
    ]
    .into_iter()
    .fold(String::from("search space:\n"), |out, l| out + &l)
}

/// Validates a parsed v2 report document: schema string, all v1-era keys,
/// and the three v2 sections with their required members. Returns the first
/// problem found.
pub fn validate_v2(doc: &Json) -> Result<(), String> {
    let need = |path: &[&str]| -> Result<&Json, String> {
        doc.get_path(path)
            .ok_or_else(|| format!("missing key: {}", path.join(".")))
    };
    match need(&["schema"])?.as_str() {
        Some(SCHEMA_V2) => {}
        other => return Err(format!("schema is {other:?}, want {SCHEMA_V2:?}")),
    }
    // v1 compatibility: every key a v1 consumer reads must still exist.
    for path in [
        &["matrix", "genes"][..],
        &["matrix", "samples"],
        &["matrix", "times"],
        &["clusters"],
        &["truncated"],
        &["timings", "slices_wall_secs"],
        &["timings", "range_graphs_cpu_secs"],
        &["timings", "biclusters_cpu_secs"],
        &["timings", "triclusters_secs"],
        &["timings", "prune_secs"],
        &["timings", "total_secs"],
        &["metrics", "cluster_count"],
        &["metrics", "element_sum"],
        &["metrics", "coverage"],
        &["metrics", "overlap"],
        &["report", "counters"],
        &["report", "spans"],
    ] {
        need(path)?;
    }
    // v2 sections.
    let hists = need(&["histograms"])?
        .as_obj()
        .ok_or("histograms is not an object")?;
    for (name, h) in hists {
        for key in ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"] {
            if h.get(key).is_none() {
                return Err(format!("histogram {name} missing {key}"));
            }
        }
        if h.get("buckets").and_then(Json::as_arr).is_none() {
            return Err(format!("histogram {name} missing buckets array"));
        }
    }
    for key in [
        "matrix_bytes",
        "rangegraph_peak_bytes",
        "bicluster_bytes",
        "tricluster_bytes",
    ] {
        need(&["memory", key])?;
    }
    if need(&["memory", "matrix_bytes"])?.as_u64() == Some(0) {
        return Err("memory.matrix_bytes is zero".into());
    }
    // Measured allocator sections travel together: a document with
    // `memory.alloc` must also carry the per-phase attribution.
    if doc.get_path(&["memory", "alloc"]).is_some() {
        for phase in ["slices", "triclusters", "prune"] {
            for key in ["bytes", "allocs"] {
                if doc
                    .get_path(&["memory", "phase_bytes", phase, key])
                    .and_then(Json::as_u64)
                    .is_none()
                {
                    return Err(format!(
                        "memory.phase_bytes.{phase}.{key} missing or not an integer"
                    ));
                }
            }
        }
    }
    for path in [
        &["search_space", "nodes_expanded", "total"][..],
        &["search_space", "prunes"],
        &["search_space", "maximality_rejections"],
        &["search_space", "dedup_hits"],
        &["search_space", "budget"],
    ] {
        need(path)?;
    }
    // Optional `meta` section: build provenance stamped by newer writers.
    if let Some(meta) = doc.get("meta") {
        for key in ["version", "host"] {
            if meta.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("meta.{key} missing or not a string"));
            }
        }
        if meta.get("threads").and_then(Json::as_u64).is_none() {
            return Err("meta.threads missing or not an integer".into());
        }
        // `cpu_features` is newer than the section itself: optional, but
        // when present a list of feature names.
        if let Some(features) = meta.get("cpu_features") {
            let names = features
                .as_arr()
                .ok_or("meta.cpu_features is not an array")?;
            if names.iter().any(|f| f.as_str().is_none()) {
                return Err("meta.cpu_features holds a non-string".into());
            }
        }
    }
    // Optional `fault` section: present exactly when the run degraded.
    if let Some(fault) = doc.get("fault") {
        if doc.get("truncated").and_then(Json::as_bool) != Some(true) {
            return Err("fault section present but truncated is not true".into());
        }
        let reason = fault
            .get("truncation_reason")
            .and_then(Json::as_str)
            .ok_or("fault.truncation_reason missing or not a string")?;
        if ![
            "max_candidates",
            "deadline",
            "max_memory",
            "worker_failure",
            "cancelled",
        ]
        .contains(&reason)
        {
            return Err(format!("unknown fault.truncation_reason {reason:?}"));
        }
        if let Some(failures) = fault.get("worker_failures") {
            let arr = failures
                .as_arr()
                .ok_or("fault.worker_failures is not an array")?;
            if arr.is_empty() {
                return Err("fault.worker_failures is empty (omit the key instead)".into());
            }
            for (i, f) in arr.iter().enumerate() {
                for key in ["phase", "unit", "message"] {
                    if f.get(key).and_then(Json::as_str).is_none() {
                        return Err(format!("fault.worker_failures[{i}].{key} missing"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The `tricluster.report/v2` sections that are input-determined: the same
/// input at the same parameters renders them byte for byte at any thread
/// count or fan-out level, through the daemon, and under any observer.
/// Timings, spans, `meta` and the measured allocator data vary from run to
/// run and are left out; `report.counters` is compared without its
/// measured counters (see [`is_measured_counter`]).
pub const DETERMINISTIC_SECTIONS: &[&[&str]] = &[
    &["matrix"],
    &["clusters"],
    &["truncated"],
    &["metrics"],
    &["report", "counters"],
    &["histograms"],
    &["search_space"],
    &["memory", "matrix_bytes"],
    &["memory", "rangegraph_peak_bytes"],
    &["memory", "bicluster_bytes"],
    &["memory", "tricluster_bytes"],
];

/// Whether a report counter is measured rather than input-determined: the
/// `memory.alloc.*` counters a tracking allocator records (feature
/// `track-alloc`) depend on the schedule. Every other counter counts the
/// search's work or its results.
pub fn is_measured_counter(name: &str) -> bool {
    name.starts_with("memory.alloc.")
}

/// The determinism gate: compares the [`DETERMINISTIC_SECTIONS`] of two
/// v2 report documents. Returns the dotted paths of every differing
/// section (empty = identical), or an error when a document is not a v2
/// report.
pub fn determinism_diff(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    for (label, doc) in [("first", a), ("second", b)] {
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA_V2) => {}
            other => return Err(format!("{label} document: unexpected schema {other:?}")),
        }
    }
    Ok(DETERMINISTIC_SECTIONS
        .iter()
        .filter(|path| logical_render(a, path) != logical_render(b, path))
        .map(|path| path.join("."))
        .collect())
}

/// One section rendered for [`determinism_diff`], measured counters
/// dropped; `None` when the document lacks it (absent in both is a match).
fn logical_render(doc: &Json, path: &[&str]) -> Option<String> {
    match (path, doc.get_path(path)?) {
        (["report", "counters"], Json::Obj(fields)) => Some(
            Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| !is_measured_counter(k))
                    .cloned()
                    .collect(),
            )
            .render(),
        ),
        (_, section) => Some(section.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Session;
    use crate::metrics::cluster_metrics_observed;
    use crate::params::Params;
    use crate::testdata::paper_table1;
    use tricluster_obs::{NullSink, Recorder};

    fn table1_doc(threads: usize) -> Json {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .threads(threads)
            .build()
            .unwrap();
        let result = Session::new(p).run(&m, &Recorder::new()).unwrap();
        let met = cluster_metrics_observed(&m, &result.triclusters, &NullSink);
        report_to_json_v2(&m, &result, &result.report, &met)
    }

    #[test]
    fn v2_document_validates_and_sections_are_populated() {
        let doc = table1_doc(1);
        validate_v2(&doc).unwrap();
        assert!(
            !doc.get("histograms").unwrap().as_obj().unwrap().is_empty(),
            "histograms section must be non-empty"
        );
        assert!(
            doc.get_path(&["search_space", "nodes_expanded", "total"])
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert_eq!(
            doc.get_path(&["memory", "matrix_bytes"]).unwrap().as_u64(),
            Some(10 * 7 * 2 * 8)
        );
        // no tracking allocator in unit tests: no measured alloc object
        assert!(doc.get_path(&["memory", "alloc"]).is_none());
    }

    #[test]
    fn v2_profile_sections_render_identically_across_threads() {
        let render = |threads| {
            let doc = table1_doc(threads);
            (
                doc.get("histograms").unwrap().render(),
                doc.get("memory").unwrap().render(),
                doc.get("search_space").unwrap().render(),
            )
        };
        assert_eq!(render(1), render(4));
    }

    #[test]
    fn clean_runs_omit_the_fault_section() {
        let doc = table1_doc(1);
        assert!(doc.get("fault").is_none());
    }

    #[test]
    fn truncated_runs_carry_a_validated_fault_section() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .max_candidates(1)
            .build()
            .unwrap();
        let result = Session::new(p).run(&m, &Recorder::new()).unwrap();
        assert!(result.truncated, "a 1-node budget must truncate Table 1");
        let met = cluster_metrics_observed(&m, &result.triclusters, &NullSink);
        let doc = report_to_json_v2(&m, &result, &result.report, &met);
        validate_v2(&doc).unwrap();
        assert_eq!(doc.get("truncated").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get_path(&["fault", "truncation_reason"])
                .and_then(Json::as_str),
            Some("max_candidates")
        );
        // no workers died, so no worker_failures array
        assert!(doc.get_path(&["fault", "worker_failures"]).is_none());
    }

    #[test]
    fn validator_rejects_malformed_fault_sections() {
        let base = table1_doc(1);
        let with_fault = |fault: Json| {
            let Json::Obj(fields) = &base else {
                panic!("doc is not an object")
            };
            let mut fields: Vec<(String, Json)> = fields.clone();
            for (k, v) in fields.iter_mut() {
                if k == "truncated" {
                    *v = Json::Bool(true);
                }
            }
            Json::Obj(fields).with("fault", fault)
        };
        // a well-formed fault section passes
        let ok = with_fault(
            Json::obj()
                .with("truncation_reason", Json::Str("deadline".into()))
                .with(
                    "worker_failures",
                    Json::Arr(vec![Json::obj()
                        .with("phase", Json::Str("slice".into()))
                        .with("unit", Json::Str("t=0".into()))
                        .with("message", Json::Str("boom".into()))]),
                ),
        );
        validate_v2(&ok).unwrap();
        // unknown reason, missing reason, empty failure list all fail
        let e = validate_v2(&with_fault(
            Json::obj().with("truncation_reason", Json::Str("cosmic_rays".into())),
        ))
        .unwrap_err();
        assert!(e.contains("truncation_reason"), "{e}");
        let e = validate_v2(&with_fault(Json::obj())).unwrap_err();
        assert!(e.contains("truncation_reason"), "{e}");
        let e = validate_v2(&with_fault(
            Json::obj()
                .with("truncation_reason", Json::Str("worker_failure".into()))
                .with("worker_failures", Json::Arr(vec![])),
        ))
        .unwrap_err();
        assert!(e.contains("worker_failures"), "{e}");
        // fault on a run not marked truncated is inconsistent
        let e = validate_v2(&base.clone().with(
            "fault",
            Json::obj().with("truncation_reason", Json::Str("deadline".into())),
        ))
        .unwrap_err();
        assert!(e.contains("truncated"), "{e}");
    }

    /// `Json::with` appends (first occurrence wins on lookup), so doc
    /// surgery in tests needs a genuine key replacement.
    fn replace(doc: &Json, key: &str, value: &Json) -> Json {
        let Json::Obj(fields) = doc else {
            panic!("doc is not an object")
        };
        Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if k == key { value } else { v };
                    (k.clone(), v.clone())
                })
                .collect(),
        )
    }

    #[test]
    fn meta_section_is_stamped_and_validated() {
        let doc = table1_doc(2);
        let meta = doc.get("meta").expect("meta section");
        assert_eq!(
            meta.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        let host = meta.get("host").and_then(Json::as_str).expect("host");
        assert!(host.contains(std::env::consts::OS), "{host}");
        assert_eq!(meta.get("threads").and_then(Json::as_u64), Some(2));
        let features = meta
            .get("cpu_features")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect::<Vec<_>>());
        assert_eq!(features, Some(cpu_features()));
        // `git` is best-effort: when present it must look like a hash
        if let Some(git) = meta.get("git").and_then(Json::as_str) {
            assert!(
                git.len() >= 7 && git.chars().all(|c| c.is_ascii_hexdigit()),
                "{git}"
            );
        }
        // a report without meta still validates (older writers) ...
        let Json::Obj(fields) = &doc else {
            panic!("doc is not an object")
        };
        let without = Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "meta")
                .cloned()
                .collect(),
        );
        validate_v2(&without).unwrap();
        // ... but a malformed one is rejected
        let broken = replace(&doc, "meta", &Json::obj().with("version", Json::U64(3)));
        assert!(validate_v2(&broken).unwrap_err().contains("meta."));
        let no_threads = replace(
            &doc,
            "meta",
            &Json::obj()
                .with("version", Json::Str("0".into()))
                .with("host", Json::Str("h".into())),
        );
        assert!(validate_v2(&no_threads).unwrap_err().contains("threads"));
        // `cpu_features` is optional (reports from before it validate) ...
        let minimal = Json::obj()
            .with("version", Json::Str("0".into()))
            .with("host", Json::Str("h".into()))
            .with("threads", Json::U64(1));
        assert_eq!(validate_v2(&replace(&doc, "meta", &minimal)), Ok(()));
        // ... but must be a list of names when present
        let bad_features = minimal.with("cpu_features", Json::Str("popcnt".into()));
        let e = validate_v2(&replace(&doc, "meta", &bad_features)).unwrap_err();
        assert!(e.contains("cpu_features"), "{e}");
    }

    #[test]
    fn alloc_and_phase_bytes_sections_travel_together() {
        let doc = table1_doc(1);
        // splice in an alloc object without phase_bytes: must be rejected
        let memory = doc.get("memory").unwrap().clone().with(
            "alloc",
            Json::obj()
                .with("total_bytes", Json::U64(1))
                .with("total_calls", Json::U64(1))
                .with("peak_live_bytes", Json::U64(1)),
        );
        let broken = replace(&doc, "memory", &memory);
        let e = validate_v2(&broken).unwrap_err();
        assert!(e.contains("phase_bytes"), "{e}");
        // with the attribution present it validates again
        let phase = |n: u64| {
            Json::obj()
                .with("bytes", Json::U64(n))
                .with("allocs", Json::U64(n))
        };
        let fixed = replace(
            &doc,
            "memory",
            &memory.with(
                "phase_bytes",
                Json::obj()
                    .with("slices", phase(10))
                    .with("triclusters", phase(20))
                    .with("prune", phase(30)),
            ),
        );
        validate_v2(&fixed).unwrap();
    }

    #[test]
    fn v2_document_roundtrips_through_the_parser() {
        let doc = table1_doc(1);
        let parsed = Json::parse(&doc.render_pretty()).unwrap();
        validate_v2(&parsed).unwrap();
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let doc = table1_doc(1);
        // wrong schema string
        let wrong = Json::obj().with("schema", Json::Str("tricluster.report/v1".into()));
        assert!(validate_v2(&wrong).unwrap_err().contains("schema"));
        // drop a v2 section
        if let Json::Obj(fields) = &doc {
            let gutted = Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != "search_space")
                    .cloned()
                    .collect(),
            );
            assert!(validate_v2(&gutted).unwrap_err().contains("search_space"));
        } else {
            panic!("doc is not an object");
        }
    }

    #[test]
    fn explain_and_human_rendering_cover_the_profile() {
        let m = paper_table1();
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .build()
            .unwrap();
        let result = Session::new(p).run(&m, &Recorder::new()).unwrap();
        let explain = explain_json(&result.report).render();
        for needle in ["search_space", "histograms", "memory", "nodes_expanded"] {
            assert!(explain.contains(needle), "missing {needle}");
        }
        let human = render_search_space_human(&result.report);
        assert!(human.contains("nodes expanded"));
        assert!(human.contains("dedup hits"));
    }

    /// The logical `memory` section of [`report_doc`].
    fn logical_memory() -> Json {
        Json::obj()
            .with("matrix_bytes", Json::U64(1120))
            .with("rangegraph_peak_bytes", Json::U64(640))
            .with("bicluster_bytes", Json::U64(320))
            .with("tricluster_bytes", Json::U64(160))
    }

    /// A minimal v2 report document with a tweakable counter value.
    fn report_doc(bc_nodes: u64, wall_secs: f64) -> Json {
        Json::obj()
            .with("schema", Json::Str("tricluster.report/v2".into()))
            .with(
                "matrix",
                Json::obj()
                    .with("genes", Json::U64(10))
                    .with("samples", Json::U64(7)),
            )
            .with("clusters", Json::U64(3))
            .with("truncated", Json::Bool(false))
            .with(
                "timings",
                Json::obj().with("slices_wall_secs", Json::F64(wall_secs)),
            )
            .with("metrics", Json::obj().with("cluster_count", Json::U64(3)))
            .with(
                "report",
                Json::obj().with(
                    "counters",
                    Json::obj().with("bicluster.dfs.nodes", Json::U64(bc_nodes)),
                ),
            )
            .with("histograms", Json::obj())
            .with("memory", logical_memory())
            .with("search_space", Json::obj())
    }

    #[test]
    fn determinism_diff_ignores_timings_but_catches_counters() {
        let a = report_doc(100, 0.5);
        let same_but_slower = report_doc(100, 9.5);
        assert_eq!(determinism_diff(&a, &same_but_slower), Ok(vec![]));
        let drifted = report_doc(101, 0.5);
        assert_eq!(
            determinism_diff(&a, &drifted),
            Ok(vec!["report.counters".to_string()])
        );
    }

    #[test]
    fn determinism_diff_rejects_non_report_documents() {
        let a = report_doc(100, 0.5);
        let fig7 = Json::obj().with("schema", Json::Str("tricluster.fig7/v2".into()));
        assert!(determinism_diff(&a, &fig7).is_err());
        assert!(determinism_diff(&fig7, &a).is_err());
    }

    /// Two runs of one input under a tracking allocator differ only in the
    /// measured `memory.alloc.*` counters (and the `memory.alloc` and
    /// `memory.phase_bytes` objects built from them): they compare clean,
    /// while a changed logical counter next to them is still caught.
    #[test]
    fn determinism_diff_ignores_measured_alloc_counters() {
        let measured = |bc_nodes: u64, alloc_bytes: u64| {
            let mut counters = Json::obj().with("bicluster.dfs.nodes", Json::U64(bc_nodes));
            for name in [
                names::M_ALLOC_TOTAL_BYTES,
                names::M_ALLOC_PEAK_BYTES,
                names::M_ALLOC_SLICES_CALLS,
            ] {
                counters.set(name, Json::U64(alloc_bytes));
            }
            let memory = logical_memory().with(
                "alloc",
                Json::obj().with("total_bytes", Json::U64(alloc_bytes)),
            );
            let doc = replace(&report_doc(bc_nodes, 0.5), "memory", &memory);
            replace(&doc, "report", &Json::obj().with("counters", counters))
        };
        let a = measured(100, 4096);
        assert_eq!(determinism_diff(&a, &measured(100, 9000)), Ok(vec![]));
        // a report without a tracking allocator matches too
        assert_eq!(determinism_diff(&a, &report_doc(100, 0.5)), Ok(vec![]));
        assert_eq!(
            determinism_diff(&a, &measured(101, 4096)),
            Ok(vec!["report.counters".to_string()])
        );
        // the logical memory sizes are input-determined, not measured
        for name in [
            names::M_MATRIX_BYTES,
            names::M_RANGEGRAPH_BYTES,
            names::M_BICLUSTER_BYTES,
            names::M_TRICLUSTER_BYTES,
        ] {
            assert!(!is_measured_counter(name), "{name}");
        }
    }
}
