//! Run-budget semantics: interrupting a run at an arbitrary budget yields a
//! sound subset of the uninterrupted run's clusters, and budget-truncated
//! runs stay byte-deterministic across thread counts and fan-out modes.

use proptest::prelude::*;
use tricluster::core::runreport::{fault_json, report_to_json_v2};
use tricluster::core::testdata::paper_table1;
use tricluster::core::{resolve_truncation, TruncationReason};
use tricluster::core::{CancelHandle, CancelToken};
use tricluster::prelude::*;

fn smoke_matrix() -> Matrix3 {
    let spec = SynthSpec {
        n_genes: 300,
        n_samples: 10,
        n_times: 5,
        n_clusters: 3,
        gene_range: (40, 40),
        sample_range: (4, 4),
        time_range: (3, 3),
        noise: 0.02,
        ..SynthSpec::default()
    };
    generate(&spec).matrix
}

fn params_with(
    threads: usize,
    f: impl FnOnce(tricluster::core::ParamsBuilder) -> tricluster::core::ParamsBuilder,
) -> Params {
    // ε matched to the generator's 2% noise (suggested_epsilon = 4.5·noise)
    f(Params::builder()
        .epsilon(0.09)
        .min_size(20, 3, 2)
        .threads(threads))
    .build()
    .unwrap()
}

fn cluster_view(result: &MiningResult) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    result
        .triclusters
        .iter()
        .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
        .collect()
}

/// Every cluster of a truncated run must be a (sub)cluster of something the
/// unbounded run found: budgets may lose results, never invent them.
fn assert_subset(truncated: &MiningResult, full: &MiningResult) {
    for c in &truncated.triclusters {
        assert!(
            full.triclusters.iter().any(|f| c.is_subcluster_of(f)),
            "truncated run invented a cluster outside the full set: {c:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interrupting Table 1 at any candidate budget yields a subset.
    #[test]
    fn any_candidate_budget_yields_a_subset(budget in 1u64..120) {
        let m = paper_table1();
        let base = Params::builder().epsilon(0.01).min_size(3, 3, 2);
        let full = mine(&m, &base.clone().build().unwrap()).unwrap();
        let cut = mine(&m, &base.max_candidates(budget).build().unwrap()).unwrap();
        assert_subset(&cut, &full);
        // the flag and the machine-readable reason always agree
        prop_assert_eq!(cut.truncated, cut.truncation.is_some());
        if let Some(reason) = cut.truncation {
            prop_assert_eq!(reason, TruncationReason::CandidateBudget);
        } else {
            // budget not exhausted: the result is the full result
            prop_assert_eq!(cluster_view(&cut), cluster_view(&full));
        }
    }

    /// Same property on a synthetic workload with a memory budget.
    #[test]
    fn any_memory_budget_yields_a_subset(extra in 0u64..40_000) {
        let m = smoke_matrix();
        let matrix_bytes = (m.n_genes() * m.n_samples() * m.n_times() * 8) as u64;
        let full = mine(&m, &params_with(1, |b| b)).unwrap();
        let cut = mine(
            &m,
            &params_with(1, |b| b.max_memory(matrix_bytes + extra)),
        )
        .unwrap();
        assert_subset(&cut, &full);
        prop_assert_eq!(cut.truncated, cut.truncation.is_some());
        if let Some(reason) = cut.truncation {
            prop_assert_eq!(reason, TruncationReason::MemoryBudget);
        }
    }

    /// The documented precedence (cancelled > deadline > memory > candidates
    /// > worker failure) is a pure, total fold: any combination of tripped
    /// causes resolves to exactly one reason, and resolving twice agrees.
    #[test]
    fn any_combination_of_causes_resolves_by_precedence(
        cancelled in proptest::bool::ANY,
        deadline in proptest::bool::ANY,
        memory in proptest::bool::ANY,
        candidates in proptest::bool::ANY,
        worker in proptest::bool::ANY,
    ) {
        let resolved = resolve_truncation(cancelled, deadline, memory, candidates, worker);
        let expected = if cancelled {
            Some(TruncationReason::Cancelled)
        } else if deadline {
            Some(TruncationReason::Deadline)
        } else if memory {
            Some(TruncationReason::MemoryBudget)
        } else if candidates {
            Some(TruncationReason::CandidateBudget)
        } else if worker {
            Some(TruncationReason::WorkerFailure)
        } else {
            None
        };
        prop_assert_eq!(resolved, expected);
        prop_assert_eq!(
            resolved,
            resolve_truncation(cancelled, deadline, memory, candidates, worker),
            "resolution must be deterministic"
        );
    }

    /// Racing trips on a live token: any subset of {cancel handle, zero
    /// deadline, zero memory budget} tripped from concurrent threads — plus
    /// a candidate budget observed by the caller — must latch and resolve
    /// to the documented precedence, independent of thread interleaving.
    #[test]
    fn racing_token_trips_resolve_deterministically(
        trip_cancel in proptest::bool::ANY,
        trip_deadline in proptest::bool::ANY,
        trip_memory in proptest::bool::ANY,
        trip_candidates in proptest::bool::ANY,
    ) {
        let handle = CancelHandle::new();
        let token = CancelToken::with_handle(
            trip_deadline.then_some(std::time::Duration::ZERO),
            trip_memory.then_some(0),
            handle.clone(),
        );
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let cancel_thread = {
                let (handle, barrier) = (&handle, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    if trip_cancel {
                        handle.cancel();
                    }
                })
            };
            let charge_thread = {
                let (token, barrier) = (&token, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..16 {
                        token.charge(1);
                    }
                })
            };
            let (token, barrier) = (&token, &barrier);
            barrier.wait();
            for _ in 0..16 {
                token.deadline_exceeded();
            }
            cancel_thread.join().unwrap();
            charge_thread.join().unwrap();
        });
        // One final cooperative poll, as a mining loop would issue before
        // assembling its result: every armed trip is now latched.
        token.deadline_exceeded();
        token.charge(1);
        let resolved = resolve_truncation(
            token.cancel_was_hit(),
            token.deadline_was_hit(),
            token.memory_was_hit(),
            trip_candidates,
            false,
        );
        let expected = if trip_cancel {
            Some(TruncationReason::Cancelled)
        } else if trip_deadline {
            Some(TruncationReason::Deadline)
        } else if trip_memory {
            Some(TruncationReason::MemoryBudget)
        } else if trip_candidates {
            Some(TruncationReason::CandidateBudget)
        } else {
            None
        };
        prop_assert_eq!(resolved, expected);
    }
}

/// A candidate-truncated run is byte-identical across thread counts and
/// fan-out modes: clusters, counters, and the v2 report's fault section.
#[test]
fn candidate_truncated_runs_are_deterministic_across_threads() {
    let m = smoke_matrix();
    let runs: Vec<(MiningResult, String)> = [
        (1, FanoutMode::Auto),
        (2, FanoutMode::Slice),
        (8, FanoutMode::Pair),
    ]
    .into_iter()
    .map(|(threads, fanout)| {
        let p = params_with(threads, |b| b.max_candidates(40).fanout(fanout));
        let r = mine(&m, &p).unwrap();
        let met = cluster_metrics_observed(&m, &r.triclusters, &NullSink);
        let doc = report_to_json_v2(&m, &r, &r.report, &met);
        let counters = doc.get_path(&["report", "counters"]).unwrap().render();
        let fault = doc.get("fault").map(|f| f.render()).unwrap_or_default();
        (r, format!("{counters}\n{fault}"))
    })
    .collect();
    let (first, first_render) = &runs[0];
    assert!(
        first.truncated,
        "a 40-node budget must truncate this workload"
    );
    assert_eq!(first.truncation, Some(TruncationReason::CandidateBudget));
    for (r, render) in &runs[1..] {
        assert_eq!(cluster_view(first), cluster_view(r));
        assert_eq!(
            first_render, render,
            "truncated reports must be byte-identical"
        );
    }
}

/// A memory-truncated run drops whole slices in deterministic slice order,
/// so its output is also identical across thread counts.
#[test]
fn memory_truncated_runs_are_deterministic_across_threads() {
    let m = smoke_matrix();
    let matrix_bytes = (m.n_genes() * m.n_samples() * m.n_times() * 8) as u64;
    let budget = matrix_bytes + 2_000; // matrix fits; bicluster stores don't
    let runs: Vec<(MiningResult, String)> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let r = mine(&m, &params_with(threads, |b| b.max_memory(budget))).unwrap();
            let met = cluster_metrics_observed(&m, &r.triclusters, &NullSink);
            let doc = report_to_json_v2(&m, &r, &r.report, &met);
            let counters = doc.get_path(&["report", "counters"]).unwrap().render();
            let fault = doc.get("fault").map(|f| f.render()).unwrap_or_default();
            (r, format!("{counters}\n{fault}"))
        })
        .collect();
    let (first, first_render) = &runs[0];
    assert!(
        first.truncated,
        "budget {budget} must truncate this workload"
    );
    assert_eq!(first.truncation, Some(TruncationReason::MemoryBudget));
    for (r, render) in &runs[1..] {
        assert_eq!(cluster_view(first), cluster_view(r));
        assert_eq!(
            first_render, render,
            "truncated reports must be byte-identical"
        );
    }
}

/// A matrix that alone exceeds the memory budget is a typed front-door
/// error, not a truncated run.
#[test]
fn matrix_larger_than_memory_budget_is_a_typed_error() {
    let m = paper_table1(); // 10*7*2*8 = 1120 bytes
    let p = Params::builder()
        .epsilon(0.01)
        .min_size(3, 3, 2)
        .max_memory(1_000)
        .build()
        .unwrap();
    match mine(&m, &p) {
        Err(MineError::MemoryBudget { required, budget }) => {
            assert_eq!(required, 1120);
            assert_eq!(budget, 1_000);
        }
        other => panic!("expected MemoryBudget error, got {other:?}"),
    }
}

/// `deadline: 0` cancels every phase at its first poll, identically on any
/// thread count: the canonical deterministic deadline truncation.
#[test]
fn zero_deadline_truncates_empty_and_deterministic() {
    let m = smoke_matrix();
    for threads in [1usize, 2, 8] {
        let p = params_with(threads, |b| b.deadline(std::time::Duration::ZERO));
        let r = mine(&m, &p).unwrap();
        assert!(r.truncated);
        assert_eq!(r.truncation, Some(TruncationReason::Deadline));
        assert!(
            r.triclusters.is_empty(),
            "a zero deadline admits no work (threads={threads})"
        );
        assert_eq!(
            fault_json(&r)
                .unwrap()
                .get("truncation_reason")
                .unwrap()
                .as_str(),
            Some("deadline")
        );
    }
}

/// A generous deadline changes nothing: same clusters, no truncation flag.
#[test]
fn generous_deadline_is_invisible() {
    let m = paper_table1();
    let base = Params::builder().epsilon(0.01).min_size(3, 3, 2);
    let plain = mine(&m, &base.clone().build().unwrap()).unwrap();
    let timed = mine(
        &m,
        &base
            .deadline(std::time::Duration::from_secs(3600))
            .build()
            .unwrap(),
    )
    .unwrap();
    assert!(!timed.truncated);
    assert_eq!(timed.truncation, None);
    assert_eq!(cluster_view(&plain), cluster_view(&timed));
}
