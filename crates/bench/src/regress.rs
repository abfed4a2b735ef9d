//! `bench determinism`'s comparison: which sections of a v2 run report
//! are input-determined, and a diff over them. They must match byte for
//! byte when the same input is mined at another thread count, through the
//! daemon, or under any observer.

use tricluster_core::obs::json::Json;

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
        let fig7 = Json::obj().with("schema", Json::Str("tricluster.fig7/v2".into()));
        assert!(determinism_diff(&a, &fig7).is_err());
        assert!(determinism_diff(&fig7, &a).is_err());
    }
}
