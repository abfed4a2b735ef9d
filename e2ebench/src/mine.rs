//! mine-deep and mine-wide: closed-loop one-shot `tricluster mine` child
//! processes, one at a time, cycling through the workload's datasets.

use crate::layers::{layer_self_times, InProcess, LAYERS};
use crate::metrics::{per_layer, LayerInputs};
use crate::proc::children_peak_rss_mb;
use crate::result::{metric, RunResult};
use crate::serve;
use crate::spans::Trace;
use crate::stats::{median, tail_percentile};
use crate::workload::{Datasets, Workload, DATASETS};
use crate::Ctx;
use std::time::Instant;

/// Timed reps needed for a p90 with ten samples beyond it.
const MIN_REPS: usize = 100;
/// Traced rounds needed for stable per-layer medians.
const MIN_ROUNDS: usize = 3 * DATASETS;

pub fn run(w: Workload, ctx: &Ctx) -> Result<RunResult, String> {
    let data = Datasets::new(w, ctx)?;
    if ctx.trace {
        traced(w, ctx, &data)
    } else {
        timed(w, ctx, &data)
    }
}

/// Whether a loop that has done `n` reps may stop: measured enough, and
/// every dataset run equally often.
fn may_stop(ctx: &Ctx, start: Instant, n: usize, min: usize) -> bool {
    n.is_multiple_of(DATASETS) && ctx.measured_enough(start, n, min)
}

fn timed(w: Workload, ctx: &Ctx, data: &Datasets) -> Result<RunResult, String> {
    let setup: Vec<f64> = data.items.iter().map(|d| d.first_run_s).collect();
    let mut latencies = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while !may_stop(ctx, start, i, MIN_REPS) {
        let (secs, checked) = data.items[i % DATASETS].mine_once(ctx, &data.flags, &[]);
        i += 1;
        match checked {
            Ok(()) => latencies.push(secs),
            Err(e) => {
                eprintln!("e2ebench: rep failed: {e}");
                failed += 1;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let n = latencies.len();
    let pct = |q: f64| {
        tail_percentile(&latencies, q)
            .ok_or_else(|| format!("{n} timed reps cannot support a p{}", q * 100.0))
    };
    Ok(RunResult {
        workload: w.name(),
        seed: ctx.seed,
        trace: false,
        attempted: i as u64,
        failed,
        metrics: vec![
            metric("latency_s_p50", "s", pct(0.5)?),
            metric("throughput_per_s", "1/s", n as f64 / wall),
            metric("setup_s", "s", median(&setup)),
            metric("recall", "ratio", data.recall()),
            metric(
                "peak_rss_mb",
                "MB",
                children_peak_rss_mb().ok_or("cannot read the children's peak RSS")?,
            ),
        ],
        extra: vec![metric("latency_s_p90", "s", pct(0.9)?)],
        notes: vec![
            format!(
                "latency = spawn to exit of `tricluster mine --csv --report-json` at default \
                 threads, closed loop over {DATASETS} datasets, n={n} reps in {wall:.1} s"
            ),
            format!(
                "setup_s = median of the first (untimed) run over each dataset; recall at \
                 Jaccard >= 0.5 over {} planted clusters",
                data.planted()
            ),
        ],
    })
}

fn traced(w: Workload, ctx: &Ctx, data: &Datasets) -> Result<RunResult, String> {
    let mut trace = Trace::new(Instant::now());
    let mut inproc = InProcess::default();
    let mut process_1t = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while !may_stop(ctx, start, inproc.rounds as usize, MIN_ROUNDS) {
        let d = &data.items[InProcess::dataset_of(inproc.rounds)];
        let (secs, checked) = d.mine_once(ctx, &data.flags, &["--threads", "1"]);
        match checked {
            Ok(()) => process_1t.push(secs),
            Err(e) => {
                eprintln!("e2ebench: rep failed: {e}");
                failed += 1;
            }
        }
        inproc.round(&mut trace, data)?;
    }
    ctx.write_chrome(w, &trace)?;
    let probe = serve::probe(ctx, data)?;
    let self_s = layer_self_times(&trace);
    let e2e_s = median(&process_1t);
    let metrics = per_layer(&LayerInputs {
        self_s: &self_s,
        inproc: &inproc,
        parse_s: self_s[crate::layers::PARSE],
        serve: &probe.layers,
        e2e_s,
        attributed_s: LAYERS.iter().map(|l| self_s[l]).sum(),
    });
    Ok(RunResult {
        workload: w.name(),
        seed: ctx.seed,
        trace: true,
        attempted: process_1t.len() as u64 + failed + inproc.rounds + probe.attempted,
        failed: failed + inproc.failed + probe.failed,
        metrics,
        extra: Vec::new(),
        notes: vec![
            format!(
                "{} rounds over {DATASETS} datasets; each: one `mine --threads 1` process \
                 (bench.traced.e2e_s is their median), one in-process layer pass at 1 thread, \
                 Session::run at 1 and 2 threads and through the full sink stack",
                inproc.rounds
            ),
            "unattributed_s = bench.traced.e2e_s - sum of layer self-time medians: process \
             start and exit, reading the file, input validation, writing the report and CSV"
                .into(),
            probe.note,
        ],
    })
}
