//! Human- and machine-readable reporting of mined clusters.
//!
//! A [`MiningResult`](crate::MiningResult) holds index sets; this module
//! renders them with the input's [`Labels`], classifies each cluster
//! (paper §2 types), and serializes the result set in two stable text
//! formats:
//!
//! * [`write_text`] — a labeled report for terminals/logs,
//! * [`write_csv`] — one row per cluster with pipe-joined member lists,
//!   round-trippable via [`parse_csv`] (for pipelines that post-process
//!   clusters outside Rust).

use crate::classify::{classify, ClusterType};
use crate::cluster::Tricluster;
use crate::metrics::cluster_metrics_observed;
use std::io::{self, BufRead, Write};
use tricluster_bitset::BitSet;
use tricluster_matrix::{Labels, Matrix3};
use tricluster_obs::NullSink;

/// Writes a labeled, classified report of `clusters` to `w`.
pub fn write_text<W: Write>(
    w: &mut W,
    m: &Matrix3,
    clusters: &[Tricluster],
    labels: &Labels,
    tolerance: f64,
) -> io::Result<()> {
    writeln!(w, "{} clusters", clusters.len())?;
    for (i, c) in clusters.iter().enumerate() {
        let (x, y, z) = c.shape();
        let kind = classify(m, c, tolerance);
        writeln!(
            w,
            "cluster {i} [{kind}]: {x} genes x {y} samples x {z} times"
        )?;
        let genes: Vec<String> = c.genes.iter().map(|g| labels.gene(g)).collect();
        let samples: Vec<String> = c.samples.iter().map(|&s| labels.sample(s)).collect();
        let times: Vec<String> = c.times.iter().map(|&t| labels.time(t)).collect();
        writeln!(w, "  genes:   {}", genes.join(" "))?;
        writeln!(w, "  samples: {}", samples.join(" "))?;
        writeln!(w, "  times:   {}", times.join(" "))?;
    }
    writeln!(w)?;
    writeln!(w, "{}", cluster_metrics_observed(m, clusters, &NullSink))?;
    Ok(())
}

/// CSV header written by [`write_csv`].
pub const CSV_HEADER: &str = "cluster,n_genes,n_samples,n_times,type,genes,samples,times";

/// Writes one CSV row per cluster. Member lists are pipe-joined indices
/// (stable regardless of labels, so files can be parsed back without the
/// original label set).
pub fn write_csv<W: Write>(
    w: &mut W,
    m: &Matrix3,
    clusters: &[Tricluster],
    tolerance: f64,
) -> io::Result<()> {
    writeln!(w, "{CSV_HEADER}")?;
    for (i, c) in clusters.iter().enumerate() {
        let (x, y, z) = c.shape();
        let join = |it: &mut dyn Iterator<Item = usize>| -> String {
            it.map(|v| v.to_string()).collect::<Vec<_>>().join("|")
        };
        writeln!(
            w,
            "{i},{x},{y},{z},{},{},{},{}",
            classify(m, c, tolerance),
            join(&mut c.genes.iter()),
            join(&mut c.samples.iter().copied()),
            join(&mut c.times.iter().copied()),
        )?;
    }
    Ok(())
}

/// Errors from [`parse_csv`].
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem, with the 1-based line number.
    Malformed {
        /// Offending line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses a cluster CSV produced by [`write_csv`]. `n_genes` is the gene
/// universe for the reconstructed bitsets.
pub fn parse_csv<R: BufRead>(r: R, n_genes: usize) -> Result<Vec<Tricluster>, ParseError> {
    let mut out = Vec::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        if idx == 0 {
            if line.trim() != CSV_HEADER {
                return Err(ParseError::Malformed {
                    line: lineno,
                    reason: format!("expected header {CSV_HEADER:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 8 {
            return Err(ParseError::Malformed {
                line: lineno,
                reason: format!("expected 8 fields, found {}", fields.len()),
            });
        }
        let parse_list = |s: &str, what: &str| -> Result<Vec<usize>, ParseError> {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            s.split('|')
                .map(|tok| {
                    tok.parse::<usize>().map_err(|_| ParseError::Malformed {
                        line: lineno,
                        reason: format!("bad {what} index {tok:?}"),
                    })
                })
                .collect()
        };
        let genes = parse_list(fields[5], "gene")?;
        if let Some(&max) = genes.iter().max() {
            if max >= n_genes {
                return Err(ParseError::Malformed {
                    line: lineno,
                    reason: format!("gene index {max} outside universe {n_genes}"),
                });
            }
        }
        let samples = parse_list(fields[6], "sample")?;
        let times = parse_list(fields[7], "time")?;
        out.push(Tricluster::new(
            BitSet::from_indices(n_genes, genes),
            samples,
            times,
        ));
    }
    Ok(out)
}

/// Summary line for one cluster (shape + type), used by the CLI.
pub fn summary(m: &Matrix3, c: &Tricluster, tolerance: f64) -> String {
    let (x, y, z) = c.shape();
    format!(
        "{x} genes x {y} samples x {z} times [{}]",
        classify(m, c, tolerance)
    )
}

/// Re-export for convenience in report consumers.
pub use crate::classify::ClusterType as ReportedType;

#[allow(unused)]
fn _assert_types(t: ClusterType) -> ReportedType {
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::paper_table1;
    use crate::{mine, Params};

    fn mined() -> (Matrix3, Vec<Tricluster>) {
        let m = paper_table1();
        let params = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .build()
            .unwrap();
        let result = mine(&m, &params).unwrap();
        (m, result.triclusters)
    }

    #[test]
    fn text_report_contains_labels_and_metrics() {
        let (m, clusters) = mined();
        let labels = Labels::default_for(10, 7, 2);
        let mut buf = Vec::new();
        write_text(&mut buf, &m, &clusters, &labels, 1e-9).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("3 clusters"));
        assert!(s.contains("g1 g4 g8"));
        assert!(s.contains("[scaling]"));
        assert!(s.contains("[sample-constant]"));
        assert!(s.contains("Coverage"));
    }

    #[test]
    fn csv_roundtrip() {
        let (m, clusters) = mined();
        let mut buf = Vec::new();
        write_csv(&mut buf, &m, &clusters, 1e-9).unwrap();
        let parsed = parse_csv(buf.as_slice(), 10).unwrap();
        assert_eq!(parsed, clusters);
    }

    #[test]
    fn csv_has_one_row_per_cluster_plus_header() {
        let (m, clusters) = mined();
        let mut buf = Vec::new();
        write_csv(&mut buf, &m, &clusters, 1e-9).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.lines().count(), clusters.len() + 1);
        assert!(s.starts_with(CSV_HEADER));
    }

    #[test]
    fn parse_rejects_wrong_header() {
        let e = parse_csv("nope\n".as_bytes(), 10).unwrap_err();
        assert!(e.to_string().contains("expected header"));
    }

    #[test]
    fn parse_rejects_wrong_field_count() {
        let text = format!("{CSV_HEADER}\n0,1,1\n");
        let e = parse_csv(text.as_bytes(), 10).unwrap_err();
        assert!(e.to_string().contains("expected 8 fields"));
    }

    #[test]
    fn parse_rejects_bad_index() {
        let text = format!("{CSV_HEADER}\n0,1,1,1,scaling,x,0,0\n");
        let e = parse_csv(text.as_bytes(), 10).unwrap_err();
        assert!(e.to_string().contains("bad gene index"));
    }

    #[test]
    fn parse_rejects_out_of_universe_gene() {
        let text = format!("{CSV_HEADER}\n0,1,1,1,scaling,99,0,0\n");
        let e = parse_csv(text.as_bytes(), 10).unwrap_err();
        assert!(e.to_string().contains("outside universe"));
    }

    #[test]
    fn parse_skips_blank_lines() {
        let text = format!("{CSV_HEADER}\n\n0,1,1,1,scaling,3,0,1\n\n");
        let parsed = parse_csv(text.as_bytes(), 10).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].genes.to_vec(), vec![3]);
    }

    #[test]
    fn summary_format() {
        let (m, clusters) = mined();
        let s = summary(&m, &clusters[0], 1e-9);
        assert!(s.contains("genes x"));
        assert!(s.contains('['));
    }
}
