//! `tricluster` — command-line TriCluster mining: the `mine`, `synth`,
//! `demo`, `runs`, `watch`, `serve` and `submit` subcommands. Run
//! `tricluster --help` for every flag ([`commands::USAGE`]).
//!
//! Exit codes: `0` success, `1` mining/runtime error (unreadable input,
//! non-finite cells, escaped panic), `2` usage error (unknown flag, invalid
//! parameter value).

use std::io::Write;
use std::process::ExitCode;

mod args;
mod commands;
mod jobs;
mod mine;
mod runs;
mod serve;
mod submit;
mod watch;

use commands::CliError;

/// With `--features track-alloc`, route every heap allocation through the
/// byte-accounting allocator so run reports carry measured
/// `memory.alloc.*` counters (total bytes/calls, peak live bytes).
#[cfg(feature = "track-alloc")]
#[global_allocator]
static ALLOC: tricluster_core::obs::alloc::TrackingAlloc =
    tricluster_core::obs::alloc::TrackingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Run(msg)) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            let _ = writeln!(std::io::stderr(), "usage error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    match argv.first().map(String::as_str) {
        Some("mine") => mine::mine(&argv[1..]),
        Some("synth") => commands::synth(&argv[1..]),
        Some("demo") => commands::demo(&argv[1..]),
        Some("runs") => runs::runs(&argv[1..]),
        Some("watch") => watch::watch(&argv[1..]),
        Some("serve") => serve::serve(&argv[1..]),
        Some("submit") => submit::submit(&argv[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?}; run `tricluster --help`"
        ))),
    }
}
