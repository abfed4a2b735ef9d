//! Output checks. A rep or job whose output differs from its reference
//! counts as a failed operation.

use tricluster_bench::regress::determinism_diff;
use tricluster_core::obs::json::Json;
use tricluster_core::report::parse_csv;
use tricluster_core::Tricluster;

/// Checks one `mine --csv` stdout against the cluster set an in-process
/// `mine` of the same bytes produced.
pub fn check_csv(stdout: &[u8], n_genes: usize, reference: &[Tricluster]) -> Result<(), String> {
    let mined = parse_csv(stdout, n_genes).map_err(|e| format!("unparsable CSV: {e}"))?;
    if mined == reference {
        return Ok(());
    }
    let missing = reference.iter().filter(|c| !mined.contains(c)).count();
    let extra = mined.iter().filter(|c| !reference.contains(c)).count();
    Err(format!(
        "{} clusters where {} were expected: {missing} missing, {extra} unexpected",
        mined.len(),
        reference.len()
    ))
}

/// Checks a served report's deterministic sections against a one-shot
/// `mine --report-json` of the same dataset.
pub fn check_report(served: &Json, reference: &Json) -> Result<(), String> {
    match determinism_diff(served, reference)? {
        diffs if diffs.is_empty() => Ok(()),
        diffs => Err(format!("sections differ: {}", diffs.join(", "))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricluster_core::report::write_csv;
    use tricluster_core::testdata::paper_table1;
    use tricluster_core::{mine, Params};

    #[test]
    fn a_dropped_cluster_fails_the_check() {
        let m = paper_table1();
        let params = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .build()
            .unwrap();
        let reference = mine(&m, &params).unwrap().triclusters;
        assert!(reference.len() >= 2);
        let mut csv = Vec::new();
        write_csv(&mut csv, &m, &reference, 1e-9).unwrap();
        assert_eq!(check_csv(&csv, m.n_genes(), &reference), Ok(()));

        let mut dropped = Vec::new();
        write_csv(&mut dropped, &m, &reference[1..], 1e-9).unwrap();
        let err = check_csv(&dropped, m.n_genes(), &reference).unwrap_err();
        assert!(err.contains("1 missing"), "{err}");
        assert!(check_csv(b"not a csv\n", m.n_genes(), &reference).is_err());
    }

    #[test]
    fn a_drifted_report_section_fails_the_check() {
        let doc = |clusters: u64| {
            Json::obj()
                .with("schema", Json::Str("tricluster.report/v2".into()))
                .with("clusters", Json::U64(clusters))
        };
        assert_eq!(check_report(&doc(3), &doc(3)), Ok(()));
        let err = check_report(&doc(2), &doc(3)).unwrap_err();
        assert!(err.contains("clusters"), "{err}");
    }
}
