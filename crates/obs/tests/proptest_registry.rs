//! Property test for `metrics::Registry::snapshot`: a registry fed a
//! counter, span, and histogram stream from any number of threads must
//! snapshot to exactly the `RunReport` that `add_counter` / `add_span` /
//! `add_histogram` build from the same stream. That pins what a run report
//! has always guaranteed — zero counters and empty histograms stay out of
//! it — while the registry itself keeps them, so its exposition still
//! renders a `_total 0` line for a counter that only saw zero deltas.

use proptest::prelude::*;
use std::time::Duration;
use tricluster_obs::metrics::{metric_name, Registry};
use tricluster_obs::{EventSink, Histogram, RunReport};

/// Few names, so streams revisit them and zero-only counters happen.
const NAMES: [&str; 4] = ["phase.a", "phase.b", "dfs.nodes", "hist.width"];

#[derive(Debug, Clone)]
enum Op {
    Counter(&'static str, u64),
    Span(&'static str, Duration),
    Hist(&'static str, Histogram),
}

fn op() -> impl Strategy<Value = Op> {
    (
        0usize..3,
        0usize..NAMES.len(),
        0u64..3,
        proptest::collection::vec(0u64..5_000_000, 0..6),
    )
        .prop_map(|(kind, name, delta, values)| {
            let name = NAMES[name];
            match kind {
                0 => Op::Counter(name, delta),
                1 => Op::Span(
                    name,
                    Duration::from_nanos(values.first().copied().unwrap_or(0)),
                ),
                _ => {
                    let mut h = Histogram::default();
                    for v in values {
                        h.record(v);
                    }
                    Op::Hist(name, h)
                }
            }
        })
}

fn publish(sink: &dyn EventSink, op: &Op) {
    match op {
        Op::Counter(name, delta) => sink.counter(name, *delta),
        Op::Span(name, elapsed) => sink.span(name, *elapsed),
        Op::Hist(name, hist) => sink.histogram(name, hist),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn snapshot_equals_the_report_of_the_same_stream(
        ops in proptest::collection::vec(op(), 0..48),
        threads in 1usize..=4,
    ) {
        // Thread `w` publishes every `threads`-th signal, starting at `w`.
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (reg, ops) = (&reg, &ops);
                scope.spawn(move || {
                    for op in ops.iter().skip(w).step_by(threads) {
                        publish(reg, op);
                    }
                });
            }
        });
        let mut want = RunReport::new();
        for op in &ops {
            match op {
                Op::Counter(name, delta) => want.add_counter(name, *delta),
                Op::Span(name, elapsed) => want.add_span(name, *elapsed),
                Op::Hist(name, hist) => want.add_histogram(name, hist),
            }
        }
        prop_assert_eq!(reg.snapshot(), want);

        // Every counter the registry saw renders, zero-only ones included.
        let text = reg.render_openmetrics(&[]);
        for op in &ops {
            if let Op::Counter(name, _) = op {
                let line = format!("{}_total {}\n", metric_name(name), want.counter(name));
                prop_assert!(text.contains(&line), "missing {line:?} in {text}");
            }
        }
    }
}
