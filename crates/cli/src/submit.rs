//! The `submit` subcommand: the client of a running `serve` daemon.

use crate::args;
use crate::commands::{mine_params_from, CliError, PARAM_FLAGS};
use crate::watch::{get_json, print_body};
use std::time::Duration;
use tricluster_core::obs::httpd::{http_delete, http_post};
use tricluster_core::obs::json::Json;

/// `submit`'s value flags besides [`PARAM_FLAGS`].
const SUBMIT_FLAGS: &[(&str, usize)] = &[
    ("label", 1),
    ("poll", 1),
    ("report-json", 1),
    ("cancel", 1),
    ("shutdown", 1),
];

/// A job's `params` argv: every [`PARAM_FLAGS`] flag set in `a`, in table
/// order. The daemon runs it through the same parser as `mine`
/// ([`job_params`](crate::serve::job_params)).
fn forward_params(a: &args::Args) -> Result<Vec<String>, String> {
    let mut argv = Vec::new();
    for &(flag, arity) in PARAM_FLAGS {
        if arity == 2 {
            if let Some((x, y)) = a.get_pair_f64(flag)? {
                argv.extend([format!("--{flag}"), x.to_string(), y.to_string()]);
            }
        } else if let Some(v) = a.get_str(flag) {
            argv.extend([format!("--{flag}"), v.to_owned()]);
        }
    }
    Ok(argv)
}

/// The `submit` command: client for a running daemon.
///
/// ```text
/// tricluster submit URL DATA.tsv [mine param flags] [--label L] [--by-path]
///                   [--wait [--poll SECS]] [--report-json PATH]
/// tricluster submit URL --cancel ID
/// tricluster submit URL --shutdown [drain|cancel]
/// ```
pub fn submit(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(
        argv,
        &[PARAM_FLAGS, SUBMIT_FLAGS].concat(),
        &["by-path", "wait"],
    )
    .map_err(CliError::Usage)?;
    let Some(url) = a.positional.first() else {
        return Err(CliError::Usage(
            "submit: missing daemon URL (as printed by serve, e.g. http://127.0.0.1:7171)".into(),
        ));
    };
    let base = url.trim_end_matches('/').to_string();

    if let Some(id) = a.get_str("cancel") {
        return print_body(
            &format!("DELETE /jobs/{id}"),
            http_delete(&format!("{base}/jobs/{id}")),
        );
    }
    if let Some(mode) = a.get_str("shutdown") {
        let body = format!("{{\"mode\":\"{mode}\"}}");
        return print_body(
            "POST /shutdown",
            http_post(
                &format!("{base}/shutdown"),
                "application/json",
                body.as_bytes(),
            ),
        );
    }

    let Some(path) = a.positional.get(1) else {
        return Err(CliError::Usage(
            "submit: missing dataset file (stacked TSV), or --cancel ID / --shutdown MODE".into(),
        ));
    };
    // Validate the param flags here for a fast local usage error.
    mine_params_from(&a).map_err(CliError::Usage)?;
    let params_argv = forward_params(&a).map_err(CliError::Usage)?;
    let mut body = Json::obj();
    if let Some(label) = a.get_str("label") {
        body = body.with("label", Json::Str(label.to_owned()));
    }
    if a.has("by-path") {
        let canonical = std::fs::canonicalize(path)
            .map_err(|e| CliError::Run(format!("cannot resolve {path}: {e}")))?;
        body = body.with(
            "dataset_path",
            Json::Str(canonical.to_string_lossy().into_owned()),
        );
    } else {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
        body = body.with("dataset", Json::Str(text));
    }
    body = body.with(
        "params",
        Json::Arr(params_argv.into_iter().map(Json::Str).collect()),
    );
    let (status, response) = http_post(
        &format!("{base}/jobs"),
        "application/json",
        body.render().as_bytes(),
    )
    .map_err(CliError::Run)?;
    if status != 202 {
        print!("{response}");
        return Err(CliError::Run(format!("POST /jobs: HTTP {status}")));
    }
    let accepted = Json::parse(response.trim())
        .map_err(|e| CliError::Run(format!("unparseable acceptance: {e}")))?;
    let id = accepted
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| CliError::Run("acceptance carries no job id".into()))?;
    eprintln!(
        "submitted as job {id} (dataset {}, request {})",
        accepted
            .get("dataset_hash")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        accepted
            .get("request_id")
            .and_then(Json::as_u64)
            .map(|r| r.to_string())
            .unwrap_or_else(|| "?".into())
    );
    if !a.has("wait") {
        println!("{id}");
        return Ok(());
    }
    let poll = a.get_secs("poll", false).map_err(CliError::Usage)?;
    let doc = loop {
        let doc = get_json(&base, &format!("/jobs/{id}"))?;
        match doc.get_path(&["job", "state"]).and_then(Json::as_str) {
            Some("queued" | "running") => {
                std::thread::sleep(poll.unwrap_or(Duration::from_millis(200)))
            }
            _ => break doc,
        }
    };
    let state = doc
        .get_path(&["job", "state"])
        .and_then(Json::as_str)
        .unwrap_or("?");
    if let Some(out_path) = a.get_str("report-json") {
        let report = doc
            .get("report")
            .ok_or_else(|| CliError::Run(format!("job {id} finished {state} without a report")))?;
        std::fs::write(out_path, report.render_pretty() + "\n")
            .map_err(|e| CliError::Run(format!("cannot write {out_path}: {e}")))?;
    }
    if let Some(summary) = doc.get("job") {
        println!("{}", summary.render_pretty());
    }
    match state {
        "done" | "cancelled" => Ok(()),
        other => Err(CliError::Run(format!("job {id} finished {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::job_params;

    /// `submit` forwards every flag of [`PARAM_FLAGS`], and the daemon parses
    /// the forwarded argv into the same [`Params`] a one-shot `mine` gets
    /// from the original command line.
    #[test]
    fn forwarded_params_parse_like_mine() {
        let argv: Vec<String> = [
            "http://127.0.0.1:1",
            "data.tsv",
            "--eps",
            "0.05",
            "--eps-time",
            "0.2",
            "--mx",
            "10",
            "--my",
            "4",
            "--mz",
            "3",
            "--delta-x",
            "1.5",
            "--delta-y",
            "2.5",
            "--delta-z",
            "3.5",
            "--merge",
            "0.2",
            "0.1",
            "--max-candidates",
            "5000",
            "--deadline",
            "2.5",
            "--max-memory",
            "64M",
            "--threads",
            "3",
            "--label",
            "all-flags",
        ]
        .map(String::from)
        .into();
        let a = args::parse(&argv, &[PARAM_FLAGS, SUBMIT_FLAGS].concat(), &[]).unwrap();
        let forwarded = forward_params(&a).unwrap();
        for (flag, _) in PARAM_FLAGS {
            let flag = format!("--{flag}");
            assert!(argv.contains(&flag), "test argv misses {flag}");
            assert!(forwarded.contains(&flag), "{flag} not forwarded");
        }
        assert_eq!(
            job_params(&forwarded).unwrap(),
            mine_params_from(&a).unwrap()
        );
        // The fan-out level follows from `--threads`; there is no flag.
        let e = job_params(&["--fanout".into(), "pair".into()]).unwrap_err();
        assert!(e.contains("unknown flag --fanout"), "{e}");
    }
}
