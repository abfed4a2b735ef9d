//! The `watch` subcommand: a live view of a `mine --metrics-addr` run or a
//! serve daemon, and a one-shot HTTP GET for scripts.

use crate::args;
use crate::commands::CliError;
use std::time::Duration;
use tricluster_core::obs::httpd::{http_get, http_get_retry};
use tricluster_core::obs::json::Json;

/// The `watch` subcommand: polls a serving run's `/progress` endpoint
/// (see `mine --metrics-addr`) and renders a live one-line status on
/// stdout. Exits 0 once the watched server goes away after at least one
/// successful snapshot — that is how a finished run looks from outside.
pub fn watch(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[("interval", 1), ("get", 1)], &["once", "jobs"])
        .map_err(CliError::Usage)?;
    let Some(url) = a.positional.first() else {
        return Err(CliError::Usage(
            "watch: missing URL (as printed by mine --metrics-addr, \
             e.g. http://127.0.0.1:9185)"
                .into(),
        ));
    };
    let base = url.trim_end_matches('/').to_string();
    // `--get PATH`: one raw scrape, printed verbatim — gives scripts an
    // HTTP client with zero external tooling.
    if let Some(path) = a.get_str("get") {
        let path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        return print_body(&format!("GET {path}"), http_get(&format!("{base}{path}")));
    }
    let interval = a.get_secs("interval", false).map_err(CliError::Usage)?;
    // `--jobs`: one formatted listing of a serve daemon's job table,
    // headed by the daemon's service counters and cache effectiveness.
    if a.has("jobs") {
        let doc = get_json(&base, "/jobs")?;
        if let Some(line) = render_service_line(&doc) {
            println!("{line}");
        }
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| CliError::Run("GET /jobs: no jobs array in response".into()))?;
        if jobs.is_empty() {
            println!("no jobs");
            return Ok(());
        }
        for job in jobs {
            println!("{}", render_job_line(job));
        }
        return Ok(());
    }
    let endpoint = format!("{base}/progress");
    let mut seen = false;
    let mut width = 0usize;
    // Bounded retry absorbs the startup race against a just-spawned run
    // whose listener has not bound yet; after the first response, every
    // later refusal means the run ended.
    let mut response = http_get_retry(&endpoint, 8, Duration::from_millis(50)).into_result();
    loop {
        match response {
            Ok((200, body)) => {
                let line = Json::parse(body.trim())
                    .ok()
                    .as_ref()
                    .and_then(render_watch_line)
                    .ok_or_else(|| {
                        CliError::Run(format!("{endpoint}: unparseable progress snapshot"))
                    })?;
                seen = true;
                if a.has("once") {
                    println!("{line}");
                    return Ok(());
                }
                // Overwrite in place, blank-padding leftovers of a longer
                // previous line.
                let pad = width.saturating_sub(line.len());
                print!("\r{line}{:pad$}", "");
                let _ = std::io::Write::flush(&mut std::io::stdout());
                width = line.len();
            }
            Ok((status, _)) => {
                return Err(CliError::Run(format!(
                    "{endpoint}: HTTP {status} — is this a tricluster --metrics-addr endpoint?"
                )));
            }
            Err(e) => {
                if seen {
                    println!();
                    eprintln!("watch: {endpoint} went away; run ended");
                    return Ok(());
                }
                return Err(CliError::Run(format!("watch: {e}")));
            }
        }
        std::thread::sleep(interval.unwrap_or(Duration::from_secs(1)));
        response = http_get(&endpoint);
    }
}

/// The daemon-level header over a `GET /jobs` listing: lifecycle counters
/// plus dataset-cache effectiveness.
fn render_service_line(doc: &Json) -> Option<String> {
    let s = doc.get("service")?;
    let n = |key: &str| s.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut line = format!(
        "serve: queue {} | running {} | accepted {} done {} failed {} cancelled {}",
        n("queue_depth"),
        n("running"),
        n("accepted"),
        n("completed"),
        n("failed"),
        n("cancelled"),
    );
    if let Some(cache) = doc.get("dataset_cache") {
        let c = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap_or(0);
        line.push_str(&format!(
            " | cache {} hit / {} miss / {} evicted",
            c("hits"),
            c("misses"),
            c("evictions"),
        ));
    }
    Some(line)
}

/// One line per job from a serve daemon's `GET /jobs` listing.
fn render_job_line(job: &Json) -> String {
    let id = job.get("id").and_then(Json::as_u64).unwrap_or(0);
    let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
    let label = job.get("label").and_then(Json::as_str).unwrap_or("?");
    let mut line = format!("#{id:<4} {state:<10} {label}");
    if let Some(rid) = job.get("request_id").and_then(Json::as_u64) {
        line.push_str(&format!("  req {rid}"));
    }
    if let Some(clusters) = job.get("clusters").and_then(Json::as_u64) {
        line.push_str(&format!("  clusters {clusters}"));
    }
    if let Some(err) = job.get("error").and_then(Json::as_str) {
        line.push_str(&format!("  error: {err}"));
    }
    if let Some(reason) = job.get("truncation").and_then(Json::as_str) {
        line.push_str(&format!("  truncated: {reason}"));
    }
    if let Some(secs) = job.get("secs").and_then(Json::as_f64) {
        line.push_str(&format!("  ({secs:.2}s)"));
    }
    line
}

/// One status line from a `/progress` snapshot: phase, work done vs.
/// discovered, candidates, live logical bytes, budget headroom.
fn render_watch_line(snap: &Json) -> Option<String> {
    let p = snap.get("progress")?;
    let phase = p.get("phase")?.as_str()?;
    let elapsed = p.get("elapsed_secs")?.as_f64()?;
    let pair = |key: &str| -> Option<(u64, u64)> {
        Some((
            p.get_path(&[key, "done"])?.as_u64()?,
            p.get_path(&[key, "total"])?.as_u64()?,
        ))
    };
    let (slices_done, slices_total) = pair("slices")?;
    let (pairs_done, pairs_total) = pair("pairs")?;
    let (branches_done, branches_total) = pair("branches")?;
    let candidates = p.get("candidates")?.as_u64()?;
    let bytes = p.get("logical_bytes")?.as_u64()?;
    let mut line = format!(
        "[{elapsed:7.1}s] {phase:<10} slices {slices_done}/{slices_total} | \
         pairs {pairs_done}/{pairs_total} | branches {branches_done}/{branches_total} | \
         candidates {candidates} | {}",
        human_bytes(bytes)
    );
    if let Some(budgets) = p.get("budgets").and_then(|b| b.as_obj()) {
        for (name, budget) in budgets {
            if let Some(frac) = budget.get("used_frac").and_then(|v| v.as_f64()) {
                line.push_str(&format!(
                    " | {name} headroom {:.0}%",
                    (1.0 - frac).max(0.0) * 100.0
                ));
            }
        }
    }
    Some(line)
}

/// `1536` → `1.5 KiB`; plain byte counts below 1 KiB.
fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// GETs `base` + `path`, retrying briefly while the server may still be
/// binding, and parses its 200 body as JSON.
pub(crate) fn get_json(base: &str, path: &str) -> Result<Json, CliError> {
    let (status, body) = http_get_retry(&format!("{base}{path}"), 8, Duration::from_millis(50))
        .into_result()
        .map_err(CliError::Run)?;
    if status != 200 {
        return Err(CliError::Run(format!("GET {path}: HTTP {status}")));
    }
    Json::parse(body.trim())
        .map_err(|e| CliError::Run(format!("GET {path}: unparseable body: {e}")))
}

/// Prints a response's body; a status other than 200 fails, naming the
/// request (`what`). `watch --get`, `submit --cancel` and
/// `submit --shutdown` all end here.
pub(crate) fn print_body(
    what: &str,
    response: Result<(u16, String), String>,
) -> Result<(), CliError> {
    let (status, body) = response.map_err(CliError::Run)?;
    print!("{body}");
    if status == 200 {
        Ok(())
    } else {
        Err(CliError::Run(format!("{what}: HTTP {status}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::reserve_addr;
    use std::sync::Arc;
    use tricluster_core::obs::httpd::{scrape_handler, HttpServer};
    use tricluster_core::obs::metrics::Registry;

    /// `watch` against a live endpoint: keeps polling until the server
    /// goes away, then exits 0 (that is what a finished run looks like).
    #[test]
    fn watch_polls_until_the_server_goes_away() {
        let registry = Arc::new(Registry::for_run());
        let server = HttpServer::serve("127.0.0.1:0", 0, scrape_handler(registry)).unwrap();
        let url = server.url();
        let handle = std::thread::spawn(move || watch(&[url, "--interval".into(), "0.02".into()]));
        std::thread::sleep(Duration::from_millis(150));
        drop(server);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn watch_rejects_bad_invocations() {
        let e = watch(&[]).unwrap_err();
        assert!(matches!(&e, CliError::Usage(m) if m.contains("URL")), "{e}");
        let e = watch(&[
            "http://127.0.0.1:1".to_string(),
            "--interval".to_string(),
            "0".to_string(),
        ])
        .unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("--interval")),
            "{e}"
        );
        // A released port refuses connections: `--get` surfaces that as a
        // runtime error immediately (no startup grace for one-shot gets).
        let addr = reserve_addr();
        let e = watch(&[
            format!("http://{addr}"),
            "--get".to_string(),
            "/metrics".to_string(),
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Run(_)), "{e}");
    }
}
