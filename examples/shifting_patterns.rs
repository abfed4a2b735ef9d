//! Mining *shifting* (additive) expression patterns via the paper's
//! Lemma 2: a shifting cluster in `D` is a scaling cluster in `exp(D)`.
//!
//! Microarray pipelines usually work in log-expression space, where
//! biologically multiplicative effects become additive — exactly the
//! pattern a shifting session (`Session::shifting`) targets.
//!
//! ```sh
//! cargo run --release --example shifting_patterns
//! ```

use tricluster::prelude::*;

fn main() {
    // Build a log-space dataset: 300 genes x 10 samples x 5 times, with two
    // embedded shifting clusters (rows offset by per-sample constants).
    let (matrix, truth) = build_shifting_dataset();
    println!(
        "dataset: {} genes x {} samples x {} times, 2 embedded shifting clusters",
        matrix.n_genes(),
        matrix.n_samples(),
        matrix.n_times()
    );

    let params = Params::builder()
        .epsilon(0.002)
        .min_size(25, 4, 3)
        .build()
        .unwrap();

    // Plain (scaling) mining sees nothing of that extent…
    let scaling = mine(&matrix, &params).unwrap();
    println!(
        "scaling miner on raw log data: {} clusters (additive patterns are invisible)",
        scaling.triclusters.len()
    );

    // …but the exp-transform route of Lemma 2 finds both.
    let shifting = Session::new(params)
        .shifting()
        .run(&matrix, &NullSink)
        .unwrap()
        .triclusters;
    println!("shifting miner (Lemma 2): {} clusters", shifting.len());
    for (i, c) in shifting.iter().enumerate() {
        let (x, y, z) = c.shape();
        let offsets: Vec<String> = tricluster::core::shift::sample_offsets(&matrix, c)
            .iter()
            .map(|o| format!("{o:+.2}"))
            .collect();
        println!(
            "  shifting cluster {i}: {x} genes x {y} samples x {z} times, \
             sample offsets β = [{}]",
            offsets.join(", ")
        );
    }

    // Verify against the embedded truth.
    let report = recovery::score(&truth, &shifting, 0.8);
    println!(
        "\nrecovery: recall {:.0}%, precision {:.0}%",
        report.recall * 100.0,
        report.precision * 100.0
    );
}

fn build_shifting_dataset() -> (Matrix3, Vec<Tricluster>) {
    use tricluster::bitset::BitSet;
    let (ng, ns, nt) = (300, 10, 5);
    let mut m = Matrix3::zeros(ng, ns, nt);
    // background: bounded pseudo-random log-expressions in [-3, 3]
    let mut state = 0xABCDEFu64;
    m.map_in_place(|_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 6000) as f64 / 1000.0 - 3.0
    });
    let mut truth = Vec::new();
    // cluster 1: genes 0..40, samples 0..4, times 0..2
    let offsets1 = [0.0, 0.8, -0.5, 1.2, 0.3];
    for g in 0..40 {
        for (si, off) in offsets1.iter().enumerate() {
            for t in 0..3 {
                m.set(g, si, t, 0.5 + g as f64 * 0.01 + t as f64 * 0.2 + off);
            }
        }
    }
    truth.push(Tricluster::new(
        BitSet::from_indices(ng, 0..40),
        (0..5).collect(),
        (0..3).collect(),
    ));
    // cluster 2: genes 100..130, samples 5..9, times 2..4
    let offsets2 = [0.0, -1.1, 0.6, 0.9, -0.2];
    for g in 100..130 {
        for (si, off) in offsets2.iter().enumerate() {
            for t in 2..5 {
                m.set(
                    g,
                    5 + si,
                    t,
                    -0.7 + (g - 100) as f64 * 0.02 + t as f64 * 0.15 + off,
                );
            }
        }
    }
    truth.push(Tricluster::new(
        BitSet::from_indices(ng, 100..130),
        (5..10).collect(),
        (2..5).collect(),
    ));
    (m, truth)
}
