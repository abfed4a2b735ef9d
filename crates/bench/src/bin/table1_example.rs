//! E1/E2 — the paper's running example: Table 1, the Figure 1 ratio
//! ranges, the Figure 2 range multigraph, the Figure 5 per-slice
//! biclusters, and the final triclusters.
//!
//! ```sh
//! cargo run --release -p tricluster-bench --bin table1_example
//! ```

use tricluster_core::obs::NullSink;
use tricluster_core::rangegraph::build_range_graph_observed;
use tricluster_core::testdata::paper_table1;
use tricluster_core::{cluster_metrics_observed, mine, Params};

fn main() {
    let m = paper_table1();
    let params = Params::builder()
        .epsilon(0.01)
        .min_size(3, 3, 2)
        .build()
        .unwrap();

    println!("== Table 1 dataset (10 genes x 7 samples x 2 times) ==");
    for t in 0..2 {
        println!("\n-- time t{t} --");
        print!("      ");
        for s in 0..7 {
            print!("    s{s}  ");
        }
        println!();
        for g in 0..10 {
            print!("g{g}  ");
            for s in 0..7 {
                print!("{:7.2} ", m.get(g, s, t));
            }
            println!();
        }
    }

    println!("\n== Figure 1: sorted ratios of column pair (s0, s6) at t0 ==");
    let mut ratios: Vec<(f64, usize)> = (0..10)
        .map(|g| (m.get(g, 0, 0) / m.get(g, 6, 0), g))
        .collect();
    ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (r, g) in &ratios {
        println!("  g{g}: {r:.3}");
    }

    println!("\n== Figure 2: range multigraph at t0 (ε=0.01, mx=3) ==");
    let rg = build_range_graph_observed(&m, 0, &params, &NullSink).0;
    println!("{} samples, {} range edges", rg.n_samples(), rg.n_ranges());
    for a in 0..7 {
        for b in (a + 1)..7 {
            for r in rg.ranges_between(a, b) {
                println!(
                    "  (s{a}, s{b}): range [{:.3}, {:.3}] weight {:.3} genes {:?}",
                    r.lo,
                    r.hi,
                    r.weight(),
                    r.genes.to_vec()
                );
            }
        }
    }

    let result = mine(&m, &params).expect("inputs are valid");
    println!("\n== Figure 5: biclusters per time slice ==");
    for (t, bcs) in result.per_time_biclusters.iter().enumerate() {
        println!("-- t{t}: {} biclusters --", bcs.len());
        for b in bcs {
            println!("  genes {:?} x samples {:?}", b.genes.to_vec(), b.samples);
        }
    }

    println!("\n== Final triclusters (mx=my=3, mz=2, ε=0.01) ==");
    for (i, c) in result.triclusters.iter().enumerate() {
        println!(
            "  C{}: genes {:?} x samples {:?} x times {:?}",
            i + 1,
            c.genes.to_vec(),
            c.samples,
            c.times
        );
    }
    println!("\npaper expects: C1 = {{g1,g4,g8}} x {{s0,s1,s4,s6}} x {{t0,t1}},");
    println!("               C2 = {{g0,g2,g6,g9}} x {{s1,s4,s6}} x {{t0,t1}},");
    println!("               C3 = {{g0,g7,g9}} x {{s1,s2,s4,s5}} x {{t0,t1}}");

    println!(
        "\n{}",
        cluster_metrics_observed(&m, &result.triclusters, &NullSink)
    );
}
