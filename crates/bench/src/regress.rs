//! The perf-regression gate: compares two `fig7 --json` documents
//! (typically the committed `BENCH_baseline.json` against a fresh run) and
//! reports every point whose wall time, per-phase time, or peak memory
//! exceeds the baseline by more than the tolerance.
//!
//! Timing noise is handled two ways: a *relative* tolerance (a current
//! value may exceed baseline × (1 + tol)) and an *absolute noise floor*
//! added on top, so microsecond-scale phases cannot trip the gate on
//! scheduler jitter. Memory comparisons run only when **both** documents
//! carry measured `peak_live_bytes` (i.e. both were produced by
//! `track-alloc` builds).

use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{exceeds, DiffTolerances};

/// One tolerance-exceeding metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Where, e.g. `smoke-genes[0].phases.biclusters_cpu_secs`.
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    /// The limit the current value exceeded.
    pub allowed: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.6} -> {:.6} (allowed {:.6}, +{:.0}%)",
            self.metric,
            self.baseline,
            self.current,
            self.allowed,
            (self.current / self.baseline.max(f64::MIN_POSITIVE) - 1.0) * 100.0
        )
    }
}

/// Compares `current` against `baseline`. Returns the list of regressions
/// (empty = gate passes) or an error when the documents are not comparable
/// — wrong schema, missing sweeps, or mismatched sweep shapes — which means
/// the baseline needs regenerating, not that performance regressed.
pub fn diff(
    baseline: &Json,
    current: &Json,
    tol: &DiffTolerances,
) -> Result<Vec<Regression>, String> {
    for (label, doc) in [("baseline", baseline), ("current", current)] {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s.starts_with("tricluster.fig7/") => {}
            other => return Err(format!("{label}: unexpected schema {other:?}")),
        }
    }
    let sweeps_of = |doc: &Json, label: &str| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("sweeps")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{label}: missing sweeps array"))?
            .to_vec())
    };
    let base_sweeps = sweeps_of(baseline, "baseline")?;
    let cur_sweeps = sweeps_of(current, "current")?;

    let mut out = Vec::new();
    for bs in &base_sweeps {
        let figure = bs
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("baseline: sweep without figure label")?;
        let cs = cur_sweeps
            .iter()
            .find(|s| s.get("figure").and_then(Json::as_str) == Some(figure))
            .ok_or_else(|| format!("current run is missing sweep {figure:?}"))?;
        let points = |s: &Json| s.get("points").and_then(Json::as_arr).map(<[Json]>::to_vec);
        let (bp, cp) = match (points(bs), points(cs)) {
            (Some(b), Some(c)) if b.len() == c.len() => (b, c),
            _ => return Err(format!("sweep {figure:?}: point lists differ in shape")),
        };
        for (i, (b, c)) in bp.iter().zip(&cp).enumerate() {
            if b.get("x").and_then(Json::as_f64) != c.get("x").and_then(Json::as_f64) {
                return Err(format!("sweep {figure:?} point {i}: x values differ"));
            }
            compare_point(figure, i, b, c, tol, &mut out)?;
        }
    }
    Ok(out)
}

fn compare_point(
    figure: &str,
    i: usize,
    base: &Json,
    cur: &Json,
    tol: &DiffTolerances,
    out: &mut Vec<Regression>,
) -> Result<(), String> {
    let mut check_time = |metric: String, b: f64, c: f64| {
        if let Some(allowed) = exceeds(b, c, tol.time_rel, tol.time_floor_secs) {
            out.push(Regression {
                metric,
                baseline: b,
                current: c,
                allowed,
            });
        }
    };
    let seconds = |p: &Json, label: &str| {
        p.get("seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{label} {figure}[{i}]: missing seconds"))
    };
    check_time(
        format!("{figure}[{i}].seconds"),
        seconds(base, "baseline")?,
        seconds(cur, "current")?,
    );
    if let (Some(bp), Some(cp)) = (
        base.get("phases").and_then(Json::as_obj),
        cur.get("phases").and_then(Json::as_obj),
    ) {
        for (key, bv) in bp {
            let (Some(b), Some(c)) = (
                bv.as_f64(),
                cp.iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_f64()),
            ) else {
                continue;
            };
            check_time(format!("{figure}[{i}].phases.{key}"), b, c);
        }
    }
    if let (Some(b), Some(c)) = (
        base.get("peak_live_bytes").and_then(Json::as_u64),
        cur.get("peak_live_bytes").and_then(Json::as_u64),
    ) {
        if let Some(allowed) = exceeds(b as f64, c as f64, tol.mem_rel, tol.mem_floor_bytes as f64)
        {
            out.push(Regression {
                metric: format!("{figure}[{i}].peak_live_bytes"),
                baseline: b as f64,
                current: c as f64,
                allowed,
            });
        }
    }
    Ok(())
}

/// The `tricluster.report/v2` sections that are input-determined (and
/// therefore must be byte-identical across thread counts and fan-out
/// modes). Timings, spans, and measured-allocator data are deliberately
/// excluded: they vary run to run.
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

/// The determinism gate: compares the input-determined sections of two
/// `mine --report-json` v2 documents (typically the same input mined at two
/// thread counts). Returns the dotted paths of every differing section
/// (empty = identical), or an error when a document is not a v2 report.
pub fn determinism_diff(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    for (label, doc) in [("first", a), ("second", b)] {
        match doc.get("schema").and_then(Json::as_str) {
            Some("tricluster.report/v2") => {}
            other => return Err(format!("{label} document: unexpected schema {other:?}")),
        }
    }
    let mut out = Vec::new();
    for path in DETERMINISTIC_SECTIONS {
        let dotted = path.join(".");
        let (va, vb) = (a.get_path(path), b.get_path(path));
        match (va, vb) {
            (Some(x), Some(y)) if x.render() == y.render() => {}
            (None, None) => {} // optional section absent in both is fine
            _ => out.push(dotted),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seconds: f64, bicluster_secs: f64, peak: Option<u64>) -> Json {
        let mut point = Json::obj()
            .with("x", Json::F64(300.0))
            .with("seconds", Json::F64(seconds))
            .with("clusters", Json::U64(4))
            .with("recall", Json::F64(1.0))
            .with(
                "phases",
                Json::obj()
                    .with("slices_wall_secs", Json::F64(0.1))
                    .with("biclusters_cpu_secs", Json::F64(bicluster_secs)),
            );
        if let Some(p) = peak {
            point = point.with("peak_live_bytes", Json::U64(p));
        }
        Json::obj()
            .with("schema", Json::Str("tricluster.fig7/v2".into()))
            .with(
                "sweeps",
                Json::Arr(vec![Json::obj()
                    .with("figure", Json::Str("smoke-genes".into()))
                    .with("points", Json::Arr(vec![point]))]),
            )
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(0.5, 0.2, Some(1 << 22));
        assert_eq!(diff(&d, &d, &DiffTolerances::default()).unwrap(), vec![]);
    }

    #[test]
    fn small_noise_is_absorbed() {
        let base = doc(0.5, 0.2, Some(1 << 22));
        let cur = doc(0.6, 0.25, Some((1 << 22) + 4096));
        assert_eq!(
            diff(&base, &cur, &DiffTolerances::default()).unwrap(),
            vec![]
        );
    }

    #[test]
    fn large_time_regression_is_flagged() {
        let base = doc(0.5, 0.2, None);
        let cur = doc(2.0, 0.2, None);
        let regs = diff(&base, &cur, &DiffTolerances::default()).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "smoke-genes[0].seconds");
        assert!(regs[0].to_string().contains("seconds"));
    }

    #[test]
    fn phase_time_regression_is_flagged() {
        let base = doc(0.5, 0.2, None);
        let cur = doc(0.5, 0.9, None);
        let regs = diff(&base, &cur, &DiffTolerances::default()).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "smoke-genes[0].phases.biclusters_cpu_secs");
    }

    #[test]
    fn memory_regression_is_flagged_only_when_both_measured() {
        let base = doc(0.5, 0.2, Some(1 << 22));
        let cur = doc(0.5, 0.2, Some(1 << 24));
        let regs = diff(&base, &cur, &DiffTolerances::default()).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "smoke-genes[0].peak_live_bytes");
        // one side unmeasured: no memory comparison, no failure
        let cur_unmeasured = doc(0.5, 0.2, None);
        assert_eq!(
            diff(&base, &cur_unmeasured, &DiffTolerances::default()).unwrap(),
            vec![]
        );
    }

    #[test]
    fn tiny_phases_cannot_trip_on_jitter() {
        // 1 ms phase tripling stays under the 50 ms noise floor
        let base = doc(0.001, 0.001, None);
        let cur = doc(0.003, 0.003, None);
        assert_eq!(
            diff(&base, &cur, &DiffTolerances::default()).unwrap(),
            vec![]
        );
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
            .with(
                "memory",
                Json::obj()
                    .with("matrix_bytes", Json::U64(1120))
                    .with("rangegraph_peak_bytes", Json::U64(640))
                    .with("bicluster_bytes", Json::U64(320))
                    .with("tricluster_bytes", Json::U64(160)),
            )
            .with("search_space", Json::obj())
    }

    #[test]
    fn determinism_diff_ignores_timings_but_catches_counters() {
        let a = report_doc(100, 0.5);
        let same_but_slower = report_doc(100, 9.5);
        assert_eq!(
            determinism_diff(&a, &same_but_slower).unwrap(),
            Vec::<String>::new()
        );
        let drifted = report_doc(101, 0.5);
        let diffs = determinism_diff(&a, &drifted).unwrap();
        assert_eq!(diffs, vec!["report.counters".to_string()]);
    }

    #[test]
    fn determinism_diff_rejects_non_report_documents() {
        let a = report_doc(100, 0.5);
        let fig7 = doc(0.5, 0.2, None);
        assert!(determinism_diff(&a, &fig7).is_err());
        assert!(determinism_diff(&fig7, &a).is_err());
    }

    #[test]
    fn structural_mismatch_is_an_error_not_a_regression() {
        let base = doc(0.5, 0.2, None);
        let wrong_schema = Json::obj().with("schema", Json::Str("nope/v1".into()));
        assert!(diff(&base, &wrong_schema, &DiffTolerances::default()).is_err());
        let mut missing = doc(0.5, 0.2, None);
        if let Json::Obj(fields) = &mut missing {
            fields.retain(|(k, _)| k != "sweeps");
        }
        assert!(diff(&base, &missing, &DiffTolerances::default()).is_err());
    }
}
