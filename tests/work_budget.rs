//! The work budget: every report counter of five fixed mines must equal
//! its value in `scripts/work_budget.json`.
//!
//! The counters are input-determined, so this is a perf gate that cannot
//! be noisy. It sees the search's work as well as its outcome:
//! `bicluster.dfs.range_tests` counts the `|X ∩ G(R)| ≥ mx` tests the
//! BICLUSTER DFS runs, and `tricluster.coherence.computed` the slice-pair
//! verdicts the TRICLUSTER phase computes. Disabling candidate inheritance
//! or the coherence memo raises them, and with them this test fails.
//!
//! The budget is exact, not a ceiling: a budget that failed only on rises
//! would go stale when work fell, and a later rise back to the old value
//! would pass unseen. When a change moves the work on purpose, paste the
//! actual object the failure prints over the input's object in the file
//! and name the edit in CHANGES.md. Nothing rewrites the file for you.

use std::collections::{BTreeMap, BTreeSet};
use tricluster::core::obs::json::Json;
use tricluster::core::testdata::paper_table1;
use tricluster::prelude::*;

const BUDGET_PATH: &str = "scripts/work_budget.json";
const BUDGET: &str = include_str!("../scripts/work_budget.json");

/// The dataset `tricluster synth --genes G --samples S --times T` writes
/// (its planted clusters span a twelfth of the genes, a third of the
/// samples and half the slices), with `--clusters` and `--noise` given.
fn synth(genes: usize, samples: usize, times: usize, clusters: usize, noise: f64) -> Matrix3 {
    let spec = SynthSpec {
        n_genes: genes,
        gene_range: ((genes / 12).max(4), (genes / 12).max(4)),
        n_samples: samples,
        sample_range: ((samples / 3).max(2), (samples / 3).max(2)),
        n_times: times,
        time_range: ((times / 2).max(2), (times / 2).max(2)),
        n_clusters: clusters,
        noise,
        ..SynthSpec::default()
    };
    generate(&spec).matrix
}

fn params(eps: f64, mx: usize, my: usize, mz: usize) -> Params {
    Params::builder()
        .epsilon(eps)
        .min_size(mx, my, mz)
        .threads(1)
        .build()
        .unwrap()
}

/// Mines `m` and compares its counters with the budget of `input`,
/// panicking with every difference and the input's full actual object.
fn check(input: &str, m: &Matrix3, p: Params) {
    let result = Session::new(p).run(m, &NullSink).unwrap();
    let actual: BTreeMap<String, u64> = result.report.counter_map();
    let doc = Json::parse(BUDGET).unwrap_or_else(|e| panic!("{BUDGET_PATH}: {e}"));
    let budget: BTreeMap<String, u64> = doc
        .get(input)
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| {
            let n = v
                .as_u64()
                .unwrap_or_else(|| panic!("{BUDGET_PATH}: {input}.{k}: {v:?}"));
            (k.clone(), n)
        })
        .collect();
    if actual == budget {
        return;
    }
    let mut msg = format!("work budget mismatch on input {input:?} ({BUDGET_PATH}):\n");
    let names: BTreeSet<&String> = actual.keys().chain(budget.keys()).collect();
    for name in names {
        let (want, got) = (budget.get(name), actual.get(name));
        let (w, g) = (want.copied().unwrap_or(0), got.copied().unwrap_or(0));
        if want == got {
            continue;
        }
        let verdict = if g > w {
            "regression"
        } else {
            "lower the budget"
        };
        msg += &format!("  {name}: budget {w}, actual {g} ({verdict})\n");
    }
    // The actual object as it sits in the file, ready to paste.
    let object = Json::Obj(
        actual
            .iter()
            .map(|(k, &v)| (k.clone(), Json::U64(v)))
            .collect(),
    );
    let rendered = Json::obj().with(input, object).render_pretty();
    let lines: Vec<&str> = rendered.lines().collect();
    msg += &format!(
        "If the change in work is intended, replace the input's object in {BUDGET_PATH} \
         with the lines below and name the edit in CHANGES.md:\n{}",
        lines[1..lines.len() - 1].join("\n")
    );
    panic!("{msg}");
}

/// The paper's running example (Table 1) at ε = 0.01, (mx, my, mz) = (3, 3, 2).
#[test]
fn table1() {
    check("table1", &paper_table1(), params(0.01, 3, 3, 2));
}

/// `scripts/check.sh`'s 3-slice determinism input, mined at ε = 0.012.
#[test]
fn three_slice() {
    check(
        "three_slice",
        &synth(300, 10, 3, 3, 0.01),
        params(0.012, 3, 3, 2),
    );
}

/// `scripts/check.sh`'s wide 2-slice input, where BICLUSTER does most of
/// the work and candidate inheritance saves the most range tests.
#[test]
fn wide_two_slice() {
    check(
        "wide_two_slice",
        &synth(2000, 12, 2, SynthSpec::default().n_clusters, 0.03),
        params(0.135, 40, 4, 2),
    );
}

/// The 3-slice input again, with `δ^x`/`δ^y`/`δ^z` thresholds that reject
/// candidates at both recording steps, BICLUSTER's and TRICLUSTER's.
#[test]
fn three_slice_deltas() {
    let p = Params {
        delta_gene: Some(5.0),
        delta_sample: Some(4.0),
        delta_time: Some(1.0),
        ..params(0.012, 3, 3, 2)
    };
    check("three_slice_deltas", &synth(300, 10, 3, 3, 0.01), p);
}

/// A 16-slice input whose clusters span 8 slices, so the time DFS reaches
/// the same regions under many time subsets and the coherence memo
/// answers most checks.
#[test]
fn sixteen_slice() {
    check(
        "sixteen_slice",
        &synth(800, 10, 16, 8, 0.005),
        params(0.0225, 33, 2, 7),
    );
}
