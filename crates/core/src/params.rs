//! Mining parameters (`ε`, `mx/my/mz`, `δ` thresholds, merge options,
//! run budgets).

use std::fmt;
use std::time::Duration;

/// Thresholds controlling the optional merge/delete post-processing
/// (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeParams {
    /// Deletion threshold `η`: a cluster whose span outside the other
    /// cluster(s) is a fraction `< η` of its own span is deleted
    /// (cases 1 and 2 of §4.4).
    pub eta: f64,
    /// Merge threshold `γ`: two clusters are merged into their bounding
    /// cluster when the bounding cluster's *new* cells are a fraction `< γ`
    /// of its span (case 3 of §4.4).
    pub gamma: f64,
}

impl Default for MergeParams {
    fn default() -> Self {
        MergeParams {
            eta: 0.2,
            gamma: 0.1,
        }
    }
}

/// Controls the extended/split/patched range post-processing of §4.1.
///
/// The paper merges chains of overlapping valid ranges into *extended*
/// ranges (robustness to a too-stringent `ε`), splits extended ranges wider
/// than `2ε` into blocks, and adds overlapping *patched* ranges so no
/// cluster straddling a split boundary is lost. Exposed as a switch so the
/// ablation benches can measure its effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeExtension {
    /// Emit only the maximal valid ranges (no merging).
    Off,
    /// Full paper behavior: extended ranges, split blocks, patched blocks.
    On,
}

/// All mining parameters. Build with [`Params::builder`].
///
/// Field names follow the paper: `ε` is the maximum ratio threshold,
/// `mx/my/mz` are minimum cardinalities per dimension, `δ^x/δ^y/δ^z` are
/// maximum value ranges per dimension (`None` = unconstrained).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Maximum ratio threshold `ε` for sample-pair coherence:
    /// `max(r_i, r_j)/min(r_i, r_j) − 1 ≤ ε`.
    pub epsilon: f64,
    /// Relaxed ratio threshold along the time dimension (the paper: "we may
    /// then relax the maximum ratio threshold for the temporal dimension").
    /// Defaults to `epsilon`.
    pub epsilon_time: f64,
    /// Minimum number of genes per cluster (`mx`).
    pub min_genes: usize,
    /// Minimum number of samples per cluster (`my`).
    pub min_samples: usize,
    /// Minimum number of time points per cluster (`mz`).
    pub min_times: usize,
    /// Maximum expression range along the gene dimension (`δ^x`):
    /// within any fixed (sample, time) column of the cluster,
    /// `max − min ≤ δ^x`. `None` leaves it unconstrained.
    pub delta_gene: Option<f64>,
    /// Maximum expression range along the sample dimension (`δ^y`).
    pub delta_sample: Option<f64>,
    /// Maximum expression range along the time dimension (`δ^z`).
    pub delta_time: Option<f64>,
    /// Merge/delete post-processing; `None` disables it.
    pub merge: Option<MergeParams>,
    /// Extended/split/patched range handling (§4.1).
    pub range_extension: RangeExtension,
    /// Optional budget on DFS candidate visits per search phase.
    ///
    /// Cluster enumeration is worst-case exponential (§4.5); a budget turns
    /// pathological inputs into a *truncated* result (flagged on
    /// [`MiningResult`](crate::MiningResult)) instead of a hang. `None`
    /// (default) searches exhaustively.
    ///
    /// The budget counts visited DFS nodes. Both searches skip, without
    /// visiting, every subtree that cannot reach `min_samples` or
    /// `min_times`, so those subtrees cost nothing.
    pub max_candidates: Option<u64>,
    /// Number of worker threads for the per-slice fan-out. `None` (default)
    /// uses the available parallelism. Counter values in the run report are
    /// identical for every setting; only wall-clock changes.
    pub threads: Option<usize>,
    /// Optional wall-clock budget for the whole run. The phases poll a
    /// shared [`CancelToken`](crate::CancelToken); expiry yields a truncated
    /// (sound but possibly incomplete) result. Unlike the other budgets,
    /// *where* a deadline cuts is inherently wall-clock-dependent.
    pub deadline: Option<Duration>,
    /// Optional budget on retained logical bytes (the deterministic sizes of
    /// the run's memory accounting: matrix + retained per-slice biclusters).
    /// Slices whose retention would exceed the budget contribute no
    /// biclusters (deterministically, in slice order) and the run is flagged
    /// truncated. A budget smaller than the matrix itself is a front-door
    /// [`MineError::MemoryBudget`](crate::MineError::MemoryBudget).
    pub max_memory: Option<u64>,
}

impl Params {
    /// Starts building a parameter set. `epsilon` defaults to `0.01` and the
    /// minimum cardinalities to `(2, 2, 2)`.
    pub fn builder() -> ParamsBuilder {
        ParamsBuilder::default()
    }

    /// Checks every invariant [`ParamsBuilder::build`] enforces, for
    /// parameter values however they were produced. [`mine`](crate::mine)
    /// calls this at the front door, so hand-mutated `Params` cannot smuggle
    /// nonsensical settings (negative `ε`, zero minimum cardinalities,
    /// negative `δ`, zero budgets) into the pipeline.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(ParamsError::BadEpsilon(self.epsilon));
        }
        if !self.epsilon_time.is_finite() || self.epsilon_time < 0.0 {
            return Err(ParamsError::BadEpsilon(self.epsilon_time));
        }
        if self.min_genes == 0 {
            return Err(ParamsError::ZeroMinimum("genes (mx)"));
        }
        if self.min_samples == 0 {
            return Err(ParamsError::ZeroMinimum("samples (my)"));
        }
        if self.min_times == 0 {
            return Err(ParamsError::ZeroMinimum("times (mz)"));
        }
        for (name, d) in [
            ("gene (delta_x)", self.delta_gene),
            ("sample (delta_y)", self.delta_sample),
            ("time (delta_z)", self.delta_time),
        ] {
            if let Some(v) = d {
                if v.is_nan() || v < 0.0 {
                    return Err(ParamsError::BadDelta(name, v));
                }
            }
        }
        if let Some(m) = self.merge {
            if !(0.0..=1.0).contains(&m.eta) {
                return Err(ParamsError::BadMergeThreshold("eta", m.eta));
            }
            if !(0.0..=1.0).contains(&m.gamma) {
                return Err(ParamsError::BadMergeThreshold("gamma", m.gamma));
            }
        }
        if self.max_candidates == Some(0) {
            return Err(ParamsError::ZeroMinimum("max_candidates"));
        }
        if self.threads == Some(0) {
            return Err(ParamsError::ZeroMinimum("threads"));
        }
        if self.max_memory == Some(0) {
            return Err(ParamsError::ZeroMinimum("max_memory"));
        }
        Ok(())
    }
}

/// Errors from [`ParamsBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// `epsilon` (or `epsilon_time`) was negative or non-finite.
    BadEpsilon(f64),
    /// A minimum cardinality was zero.
    ZeroMinimum(&'static str),
    /// A `δ` threshold was negative or NaN.
    BadDelta(&'static str, f64),
    /// `η` or `γ` outside `[0, 1]`.
    BadMergeThreshold(&'static str, f64),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::BadEpsilon(e) => {
                write!(f, "epsilon must be finite and >= 0, got {e}")
            }
            ParamsError::ZeroMinimum(dim) => {
                write!(f, "minimum cardinality for {dim} must be >= 1")
            }
            ParamsError::BadDelta(dim, v) => {
                write!(
                    f,
                    "delta threshold for {dim} must be finite and >= 0, got {v}"
                )
            }
            ParamsError::BadMergeThreshold(name, v) => {
                write!(f, "{name} must lie in [0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

/// Builder for [`Params`].
#[derive(Debug, Clone)]
pub struct ParamsBuilder {
    epsilon: f64,
    epsilon_time: Option<f64>,
    min_genes: usize,
    min_samples: usize,
    min_times: usize,
    delta_gene: Option<f64>,
    delta_sample: Option<f64>,
    delta_time: Option<f64>,
    merge: Option<MergeParams>,
    range_extension: RangeExtension,
    max_candidates: Option<u64>,
    threads: Option<usize>,
    deadline: Option<Duration>,
    max_memory: Option<u64>,
}

impl Default for ParamsBuilder {
    fn default() -> Self {
        ParamsBuilder {
            epsilon: 0.01,
            epsilon_time: None,
            min_genes: 2,
            min_samples: 2,
            min_times: 2,
            delta_gene: None,
            delta_sample: None,
            delta_time: None,
            merge: None,
            range_extension: RangeExtension::On,
            max_candidates: None,
            threads: None,
            deadline: None,
            max_memory: None,
        }
    }
}

impl ParamsBuilder {
    /// Sets the maximum ratio threshold `ε`.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = eps;
        self
    }

    /// Sets a relaxed ratio threshold for the time dimension (defaults to
    /// `ε` when not set).
    pub fn epsilon_time(mut self, eps: f64) -> Self {
        self.epsilon_time = Some(eps);
        self
    }

    /// Sets the minimum number of genes `mx`.
    pub fn min_genes(mut self, mx: usize) -> Self {
        self.min_genes = mx;
        self
    }

    /// Sets the minimum number of samples `my`.
    pub fn min_samples(mut self, my: usize) -> Self {
        self.min_samples = my;
        self
    }

    /// Sets the minimum number of time points `mz`.
    pub fn min_times(mut self, mz: usize) -> Self {
        self.min_times = mz;
        self
    }

    /// Sets all three minimum cardinalities at once.
    pub fn min_size(self, mx: usize, my: usize, mz: usize) -> Self {
        self.min_genes(mx).min_samples(my).min_times(mz)
    }

    /// Constrains the maximum value range along the gene dimension (`δ^x`).
    pub fn delta_gene(mut self, d: f64) -> Self {
        self.delta_gene = Some(d);
        self
    }

    /// Constrains the maximum value range along the sample dimension (`δ^y`).
    pub fn delta_sample(mut self, d: f64) -> Self {
        self.delta_sample = Some(d);
        self
    }

    /// Constrains the maximum value range along the time dimension (`δ^z`).
    pub fn delta_time(mut self, d: f64) -> Self {
        self.delta_time = Some(d);
        self
    }

    /// Enables merge/delete post-processing with the given thresholds.
    pub fn merge(mut self, merge: MergeParams) -> Self {
        self.merge = Some(merge);
        self
    }

    /// Sets the extended/split/patched range behavior.
    pub fn range_extension(mut self, ext: RangeExtension) -> Self {
        self.range_extension = ext;
        self
    }

    /// Bounds the number of DFS candidates each search phase may visit;
    /// exceeding it truncates the search (reported on the result).
    pub fn max_candidates(mut self, budget: u64) -> Self {
        self.max_candidates = Some(budget);
        self
    }

    /// Fixes the number of worker threads for the per-slice fan-out
    /// (default: available parallelism). `1` forces a serial run.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Bounds the run's wall-clock time; expiry truncates the run.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Bounds the run's retained logical bytes; exceeding it truncates the
    /// run (see [`Params::max_memory`]).
    pub fn max_memory(mut self, bytes: u64) -> Self {
        self.max_memory = Some(bytes);
        self
    }

    /// Validates and produces the final [`Params`]
    /// (see [`Params::validate`]).
    pub fn build(self) -> Result<Params, ParamsError> {
        let params = Params {
            epsilon: self.epsilon,
            epsilon_time: self.epsilon_time.unwrap_or(self.epsilon),
            min_genes: self.min_genes,
            min_samples: self.min_samples,
            min_times: self.min_times,
            delta_gene: self.delta_gene,
            delta_sample: self.delta_sample,
            delta_time: self.delta_time,
            merge: self.merge,
            range_extension: self.range_extension,
            max_candidates: self.max_candidates,
            threads: self.threads,
            deadline: self.deadline,
            max_memory: self.max_memory,
        };
        params.validate()?;
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = Params::builder().build().unwrap();
        assert_eq!(p.epsilon, 0.01);
        assert_eq!(p.epsilon_time, 0.01, "epsilon_time defaults to epsilon");
        assert_eq!((p.min_genes, p.min_samples, p.min_times), (2, 2, 2));
        assert_eq!(p.delta_gene, None);
        assert_eq!(p.merge, None);
        assert_eq!(p.range_extension, RangeExtension::On);
    }

    #[test]
    fn paper_yeast_parameters() {
        let p = Params::builder()
            .min_size(50, 4, 5)
            .epsilon(0.003)
            .epsilon_time(0.05)
            .build()
            .unwrap();
        assert_eq!(p.min_genes, 50);
        assert_eq!(p.min_samples, 4);
        assert_eq!(p.min_times, 5);
        assert_eq!(p.epsilon, 0.003);
        assert_eq!(p.epsilon_time, 0.05);
    }

    #[test]
    fn rejects_negative_epsilon() {
        assert_eq!(
            Params::builder().epsilon(-0.1).build(),
            Err(ParamsError::BadEpsilon(-0.1))
        );
        assert!(matches!(
            Params::builder().epsilon(f64::NAN).build(),
            Err(ParamsError::BadEpsilon(_))
        ));
        assert!(matches!(
            Params::builder().epsilon_time(-1.0).build(),
            Err(ParamsError::BadEpsilon(_))
        ));
    }

    #[test]
    fn rejects_zero_minimums() {
        assert_eq!(
            Params::builder().min_genes(0).build(),
            Err(ParamsError::ZeroMinimum("genes (mx)"))
        );
        assert_eq!(
            Params::builder().min_samples(0).build(),
            Err(ParamsError::ZeroMinimum("samples (my)"))
        );
        assert_eq!(
            Params::builder().min_times(0).build(),
            Err(ParamsError::ZeroMinimum("times (mz)"))
        );
    }

    #[test]
    fn rejects_bad_deltas() {
        assert!(matches!(
            Params::builder().delta_gene(-1.0).build(),
            Err(ParamsError::BadDelta("gene (delta_x)", _))
        ));
        assert!(matches!(
            Params::builder().delta_time(f64::NAN).build(),
            Err(ParamsError::BadDelta(_, _))
        ));
        // zero delta is legal: "identical values" clusters
        assert!(Params::builder().delta_sample(0.0).build().is_ok());
    }

    #[test]
    fn rejects_bad_merge_thresholds() {
        let m = MergeParams {
            eta: 1.5,
            gamma: 0.1,
        };
        assert!(matches!(
            Params::builder().merge(m).build(),
            Err(ParamsError::BadMergeThreshold("eta", _))
        ));
        let m = MergeParams {
            eta: 0.1,
            gamma: -0.2,
        };
        assert!(matches!(
            Params::builder().merge(m).build(),
            Err(ParamsError::BadMergeThreshold("gamma", _))
        ));
        assert!(Params::builder()
            .merge(MergeParams::default())
            .build()
            .is_ok());
    }

    #[test]
    fn rejects_zero_threads() {
        assert_eq!(
            Params::builder().threads(0).build(),
            Err(ParamsError::ZeroMinimum("threads"))
        );
        assert_eq!(Params::builder().build().unwrap().threads, None);
        assert_eq!(
            Params::builder().threads(4).build().unwrap().threads,
            Some(4)
        );
    }

    #[test]
    fn budgets_default_off_and_reject_zero_memory() {
        let p = Params::builder().build().unwrap();
        assert_eq!(p.deadline, None);
        assert_eq!(p.max_memory, None);
        let p = Params::builder()
            .deadline(Duration::from_secs(5))
            .max_memory(1 << 20)
            .build()
            .unwrap();
        assert_eq!(p.deadline, Some(Duration::from_secs(5)));
        assert_eq!(p.max_memory, Some(1 << 20));
        assert_eq!(
            Params::builder().max_memory(0).build(),
            Err(ParamsError::ZeroMinimum("max_memory"))
        );
        // a zero deadline is legal: it truncates immediately
        assert!(Params::builder().deadline(Duration::ZERO).build().is_ok());
    }

    #[test]
    fn validate_catches_hand_mutated_params() {
        let mut p = Params::builder().build().unwrap();
        assert_eq!(p.validate(), Ok(()));
        p.epsilon = -1.0;
        assert_eq!(p.validate(), Err(ParamsError::BadEpsilon(-1.0)));
        p.epsilon = 0.01;
        p.min_samples = 0;
        assert_eq!(p.validate(), Err(ParamsError::ZeroMinimum("samples (my)")));
        p.min_samples = 2;
        p.delta_gene = Some(-0.5);
        assert!(matches!(p.validate(), Err(ParamsError::BadDelta(_, _))));
    }

    #[test]
    fn error_messages_name_the_field() {
        let e = Params::builder().min_genes(0).build().unwrap_err();
        assert!(e.to_string().contains("genes"));
        let e = Params::builder().epsilon(-2.0).build().unwrap_err();
        assert!(e.to_string().contains("epsilon"));
    }
}
