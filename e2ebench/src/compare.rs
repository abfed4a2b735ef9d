//! `e2ebench compare A.json... -- B.json...`: one row per (workload,
//! metric) with each side's median and quartiles, the pair win rate, and a
//! verdict against the bound `BENCHMARK.json` fixes for the metric.

use crate::stats::quartiles;
use std::collections::BTreeMap;
use tricluster_core::obs::json::Json;

/// How a metric is judged, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

pub fn rules(bench: &Json) -> Result<Vec<Rule>, String> {
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let items = bench
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for item in items {
            let field = |k: &str| item.get(k).and_then(Json::as_str).map(str::to_owned);
            let name = field("name").ok_or("a metric without a name")?;
            let bound = match bounded {
                true => Some(
                    item.get("bound")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{name}: no bound"))?,
                ),
                false => None,
            };
            out.push(Rule {
                unit: field("unit").unwrap_or_default(),
                lower_is_better: field("better").as_deref() == Some("lower"),
                bound,
                name,
            });
        }
    }
    Ok(out)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A side's spread exceeds the bound and the runs overlap.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Pairs (matched by seed) that B won, and pairs compared; ties count
    /// for neither side.
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judges B against A: worse by more than the bound is a regression; a
/// spread wider than the bound leaves the metric unresolved unless every
/// run of one side beats every run of the other; a gain needs B to win at
/// least nine tenths of the pairs by more than A's own spread.
pub fn judge(rule: &Rule, a: &[(u64, f64)], b: &[(u64, f64)]) -> Option<Row> {
    let values = |v: &[(u64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<_>>();
    let (av, bv) = (values(a), values(b));
    let qa = quartiles(&av)?;
    let qb = quartiles(&bv)?;
    // Oriented so that positive means "B is better".
    let gain = |from: f64, to: f64| {
        if rule.lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let mut wins = 0;
    let mut pairs = 0;
    for &(seed, x) in a {
        if let Some(&(_, y)) = b.iter().find(|&&(s, _)| s == seed) {
            pairs += 1;
            if gain(x, y) > 0.0 {
                wins += 1;
            }
        }
    }
    let verdict = match rule.bound {
        None => Verdict::Info,
        Some(bound) => {
            let base = qa.1.abs().max(f64::MIN_POSITIVE);
            let spread =
                ((qa.2 - qa.0) / base).max((qb.2 - qb.0) / qb.1.abs().max(f64::MIN_POSITIVE));
            let all_better = av.iter().all(|&x| bv.iter().all(|&y| gain(x, y) > 0.0));
            let all_worse = av.iter().all(|&x| bv.iter().all(|&y| gain(x, y) < 0.0));
            let change = gain(qa.1, qb.1) / base;
            if change < -bound && (spread <= bound || all_worse) {
                Verdict::Regressed
            } else if spread > bound && !all_better && !all_worse {
                Verdict::Unresolved
            } else if gain(qa.1, qb.1) > qa.2 - qa.0 && wins * 10 >= pairs * 9 && pairs > 0 {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    };
    Some(Row {
        a: qa,
        b: qb,
        wins,
        pairs,
        verdict,
    })
}

/// `(workload, metric) -> [(seed, value)]` over a set of run documents.
type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: not an e2ebench run document"))?;
        let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
        for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(out)
}

/// Runs the subcommand; returns the exit code (1 when anything regressed).
pub fn run(argv: &[String]) -> Result<i32, String> {
    let mut bench_path = "BENCHMARK.json".to_owned();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut after_sep = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => after_sep = true,
            "--bench" => bench_path = it.next().ok_or("--bench needs a path")?.clone(),
            path if after_sep => b.push(path.to_owned()),
            path => a.push(path.to_owned()),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs A.json... -- B.json...".into());
    }
    let bench = std::fs::read_to_string(&bench_path)
        .map_err(|e| format!("cannot read {bench_path}: {e}"))
        .and_then(|t| Json::parse(&t))?;
    let rules = rules(&bench)?;
    let (sa, sb) = (load(&a)?, load(&b)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = sa.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    println!(
        "{:<13} {:<28} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "wins"
    );
    let mut regressed = false;
    for workload in workloads {
        for rule in &rules {
            let key = (workload.clone(), rule.name.clone());
            let (Some(av), Some(bv)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let Some(row) = judge(rule, av, bv) else {
                continue;
            };
            regressed |= row.verdict == Verdict::Regressed;
            let fmt = |q: (f64, f64, f64)| format!("{:.6} [{:.6}, {:.6}]", q.1, q.0, q.2);
            let change = if row.a.1 != 0.0 {
                format!("{:+.1}%", (row.b.1 / row.a.1 - 1.0) * 100.0)
            } else {
                "-".into()
            };
            println!(
                "{:<13} {:<28} {:>34} {:>34} {:>8} {:>6}  {} {}",
                workload,
                rule.name,
                fmt(row.a),
                fmt(row.b),
                change,
                format!("{}/{}", row.wins, row.pairs),
                row.verdict.as_str(),
                rule.unit,
            );
        }
    }
    Ok(i32::from(regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: Option<f64>) -> Rule {
        Rule {
            name: "latency_s_p50".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_win_rate() {
        let a = runs(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let same = runs(&[1.01, 1.00, 1.00, 0.99, 1.01]);
        let slower = runs(&[1.20, 1.21, 1.19, 1.22, 1.20]);
        let faster = runs(&[0.80, 0.81, 0.79, 0.80, 0.82]);
        let bound = Some(0.05);
        assert_eq!(
            judge(&rule(bound), &a, &same).unwrap().verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&rule(bound), &a, &slower).unwrap().verdict,
            Verdict::Regressed
        );
        let row = judge(&rule(bound), &a, &faster).unwrap();
        assert_eq!(
            (row.verdict, row.wins, row.pairs),
            (Verdict::Improved, 5, 5)
        );
        let noisy = runs(&[0.7, 1.3, 0.9, 1.4, 1.0]);
        assert_eq!(
            judge(&rule(bound), &a, &noisy).unwrap().verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&rule(None), &a, &slower).unwrap().verdict,
            Verdict::Info
        );
    }
}
