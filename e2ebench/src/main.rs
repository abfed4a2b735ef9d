//! `e2ebench` — end-to-end and per-layer benchmark of the `tricluster`
//! binary through its two user-facing paths: one-shot `tricluster mine`
//! processes and jobs served by a `tricluster serve` daemon.
//!
//! ```sh
//! e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! e2ebench compare A.json... -- B.json... [--bench BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed`, measures for `--seconds`
//! (longer if needed to collect enough samples for its percentiles), checks
//! every output against a reference, prints every metric by name with its
//! unit, writes the run document to `DIR/<workload>-seed<N>-<timed|traced>.json`
//! (`DIR` defaults to `e2ebench-out` next to the executable), and ends standard output
//! with a one-line JSON summary. `--trace 0` reports end-to-end metrics;
//! `--trace 1` is the separate traced pass reporting per-layer metrics and
//! writing a Chrome trace to `DIR/<workload>-seed<N>.trace.json`. Exit
//! codes: 0 all outputs correct, 1 a check failed, 2 usage or environment
//! error (no summary printed).

mod check;
mod compare;
mod layers;
mod metrics;
mod mine;
mod proc;
mod result;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// No run measures longer than this, however few samples it has.
const HARD_CAP_SECS: f64 = 120.0;

/// What every workload runner needs.
pub struct Ctx {
    /// The `tricluster` binary under test.
    pub bin: PathBuf,
    /// Scratch directory for this run's inputs, reports and ledgers.
    pub work: PathBuf,
    /// Where traces and run documents go.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// Whether a phase that began at `start` and has `n` samples is done:
    /// `--seconds` elapsed and at least `min` samples, or the hard cap hit.
    pub fn measured_enough(&self, start: Instant, n: usize, min: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        (elapsed >= self.seconds && n >= min) || elapsed >= HARD_CAP_SECS
    }

    pub fn write_chrome(&self, w: Workload, trace: &spans::Trace) -> Result<(), String> {
        let path = self
            .out
            .join(format!("{}-seed{}.trace.json", w.name(), self.seed));
        std::fs::write(&path, trace.to_chrome_json().render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("e2ebench: wrote Chrome trace {}", path.display());
        Ok(())
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::MineDeep,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!(
                    "unknown workload {name:?} (one of: {})",
                    workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.split_first() {
        Some((cmd, rest)) if cmd == "compare" => compare::run(rest).unwrap_or_else(|e| {
            eprintln!("e2ebench compare: {e}");
            2
        }),
        _ => match parse_args(&argv).and_then(|args| run(&args)) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn run(args: &Args) -> Result<i32, String> {
    let bin = proc::tricluster_bin()?;
    let out = match &args.out {
        Some(dir) => dir.clone(),
        None => bin.with_file_name("e2ebench-out"),
    };
    let mode = if args.trace { "traced" } else { "timed" };
    let name = args.workload.name();
    let work = out.join(format!("work-{name}-seed{}-{mode}", args.seed));
    if work.exists() {
        std::fs::remove_dir_all(&work)
            .map_err(|e| format!("cannot clear {}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        bin,
        work,
        out,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = if args.workload.is_serve() {
        serve::run(args.workload, &ctx)
    } else {
        mine::run(args.workload, &ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let result = outcome?;
    let json_path = ctx
        .out
        .join(format!("{name}-seed{}-{mode}.json", args.seed));
    write(&json_path, &(result.to_json().render_pretty() + "\n"))?;
    result.print_table();
    println!("{}", result.summary_line());
    Ok(if result.correct() { 0 } else { 1 })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
