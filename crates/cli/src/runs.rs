//! The `runs` subcommand family: inspection and cross-run analytics over a
//! `mine --ledger` (or `serve --ledger`) archive.

use crate::args;
use crate::commands::CliError;
use std::collections::{BTreeMap, BTreeSet};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{IndexEntry, Ledger};
use tricluster_core::runreport;

const RUNS_USAGE: &str = "runs: expected a subcommand — \
list <DIR> [--ids] | show <DIR> <ID> [--json] | \
diff <DIR> <BASE> <CURRENT> | top <DIR> [--metric KEY] [--limit N]";

/// The `runs` subcommand family: inspection and cross-run analytics over a
/// `--ledger` archive.
pub fn runs(argv: &[String]) -> Result<(), CliError> {
    let Some(sub) = argv.first() else {
        return Err(CliError::Usage(RUNS_USAGE.into()));
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "list" => runs_list(rest),
        "show" => runs_show(rest),
        "diff" => runs_diff(rest),
        "top" => runs_top(rest),
        other => Err(CliError::Usage(format!(
            "runs: unknown subcommand {other:?}\n{RUNS_USAGE}"
        ))),
    }
}

/// Opens the ledger named by the first positional argument. Read-side
/// commands refuse a directory that does not exist instead of silently
/// creating an empty archive there (a typoed path should not look like an
/// empty ledger).
fn open_ledger(a: &args::Args, sub: &str) -> Result<Ledger, CliError> {
    let Some(dir) = a.positional.first() else {
        return Err(CliError::Usage(format!(
            "runs {sub}: missing ledger directory"
        )));
    };
    if !std::path::Path::new(dir).is_dir() {
        return Err(CliError::Run(format!("no ledger directory at {dir}")));
    }
    Ledger::open(dir).map_err(|e| CliError::Run(format!("cannot open ledger {dir}: {e}")))
}

fn read_archived_report(
    ledger: &Ledger,
    sub: &str,
    selector: &str,
) -> Result<(IndexEntry, Json), CliError> {
    let entry = ledger
        .resolve(selector)
        .map_err(|e| CliError::Run(format!("runs {sub}: {e}")))?;
    let doc = ledger
        .read_report(&entry.id)
        .map_err(|e| CliError::Run(format!("runs {sub}: {e}")))?;
    Ok((entry, doc))
}

fn runs_list(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[], &["ids"]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "list")?;
    let entries = ledger
        .list()
        .map_err(|e| CliError::Run(format!("runs list: {e}")))?;
    if a.has("ids") {
        for e in &entries {
            println!("{}", e.id);
        }
        return Ok(());
    }
    if entries.is_empty() {
        eprintln!("ledger at {} is empty", ledger.dir().display());
        return Ok(());
    }
    println!(
        "{:<16} {:<5} {:>11} {:>8} {:>9} {:>7} {:>5}  label",
        "id", "kind", "created", "clusters", "secs", "threads", "req"
    );
    let dash = || "-".to_string();
    for e in &entries {
        println!(
            "{:<16} {:<5} {:>11} {:>8} {:>9} {:>7} {:>5}  {}",
            e.id,
            e.kind,
            e.created_unix,
            e.clusters.map_or_else(dash, |c| c.to_string()),
            e.total_secs.map_or_else(dash, |s| format!("{s:.3}")),
            e.threads.map_or_else(dash, |t| t.to_string()),
            e.request_id.map_or_else(dash, |r| r.to_string()),
            e.label.as_deref().unwrap_or("-"),
        );
    }
    Ok(())
}

fn runs_show(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[], &["json"]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "show")?;
    let Some(selector) = a.positional.get(1) else {
        return Err(CliError::Usage("runs show: missing entry id".into()));
    };
    let (entry, doc) = read_archived_report(&ledger, "show", selector)?;
    if a.has("json") {
        println!("{}", doc.render_pretty());
        return Ok(());
    }
    println!("id:       {}", entry.id);
    println!("kind:     {}", entry.kind);
    if let Some(label) = &entry.label {
        println!("label:    {label}");
    }
    println!("created:  {} (unix seconds)", entry.created_unix);
    if let Some(rid) = entry.request_id {
        println!("request:  {rid} (daemon request id)");
    }
    println!("dataset:  {}", entry.dataset_hash);
    println!("params:   {}", entry.params_hash);
    let meta: Vec<String> = [
        entry.version.as_ref().map(|v| format!("v{v}")),
        entry.git.clone(),
        entry.host.clone(),
        entry.threads.map(|t| format!("{t} thread(s)")),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !meta.is_empty() {
        println!("build:    {}", meta.join(", "));
    }
    if let Some(clusters) = entry.clusters {
        println!("clusters: {clusters}");
    }
    if let Some(timings) = doc.get("timings").and_then(Json::as_obj) {
        println!("timings:");
        for (key, v) in timings {
            if let Some(secs) = v.as_f64() {
                println!("  {key:<22} {secs:>12.6} s");
            }
        }
    }
    if let Some(phases) = doc
        .get_path(&["memory", "phase_bytes"])
        .and_then(Json::as_obj)
    {
        println!("phase allocation:");
        for (phase, v) in phases {
            let bytes = v.get("bytes").and_then(Json::as_u64).unwrap_or(0);
            let allocs = v.get("allocs").and_then(Json::as_u64).unwrap_or(0);
            println!("  {phase:<22} {bytes:>12} bytes in {allocs} allocation(s)");
        }
    }
    for (name, path) in [
        ("trace", ledger.trace_path(&entry.id)),
        ("flame", ledger.flame_path(&entry.id)),
    ] {
        if path.is_file() {
            println!("{name}:    {}", path.display());
        }
    }
    Ok(())
}

/// `runs diff`: the work budget's rule applied to two archived runs. Every
/// input-determined counter is printed with its exact delta, and one that
/// rose fails the command; the deterministic sections are compared as
/// `bench determinism` compares them. Timings and the measured allocator
/// counters are shown side by side without a verdict: one pair of wall
/// times is noise, and only a same-window A/B can judge time.
fn runs_diff(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[], &[]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "diff")?;
    let (Some(base_sel), Some(cur_sel)) = (a.positional.get(1), a.positional.get(2)) else {
        return Err(CliError::Usage(
            "runs diff: expected <DIR> <BASE-ID> <CURRENT-ID>".into(),
        ));
    };
    let base = read_archived_report(&ledger, "diff", base_sel)?;
    let cur = read_archived_report(&ledger, "diff", cur_sel)?;
    let (text, rose) =
        diff_runs(&base, &cur).map_err(|e| CliError::Usage(format!("runs diff: {e}")))?;
    print!("{text}");
    if rose.is_empty() {
        Ok(())
    } else {
        Err(CliError::Run(format!(
            "{} input-determined counter(s) rose: {}",
            rose.len(),
            rose.join(", ")
        )))
    }
}

/// The `runs diff` report on two archived runs, and the input-determined
/// counters that rose from `base` to `cur` (a counter one report lacks
/// counts as 0). Everything printed comes from the two entries, so the
/// same pair always gives the same bytes.
fn diff_runs(
    (base, base_doc): &(IndexEntry, Json),
    (cur, cur_doc): &(IndexEntry, Json),
) -> Result<(String, Vec<String>), String> {
    let differing = runreport::determinism_diff(base_doc, cur_doc)?;
    let mut lines = vec![format!("runs diff {} -> {}", base.id, cur.id)];
    for (what, b, c) in [
        ("dataset", &base.dataset_hash, &cur.dataset_hash),
        ("params", &base.params_hash, &cur.params_hash),
    ] {
        if b != c {
            lines.push(format!("note: the runs differ in {what} ({b} vs {c})"));
        }
    }
    let counters = |doc: &Json| -> BTreeMap<String, u64> {
        doc.get_path(&["report", "counters"])
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect()
    };
    let (base_counters, cur_counters) = (counters(base_doc), counters(cur_doc));
    let names: BTreeSet<&String> = base_counters.keys().chain(cur_counters.keys()).collect();
    let (measured, logical): (Vec<&String>, Vec<&String>) = names
        .into_iter()
        .partition(|name| runreport::is_measured_counter(name));
    let row = |name: &str, b: &str, c: &str| format!("{name:<40} {b:>14} {c:>14}");
    let num = |v: Option<&u64>| v.map_or_else(|| "-".to_string(), u64::to_string);
    let mut rose = Vec::new();
    lines.push(format!(
        "{} {:>12}",
        row("input-determined counter", "base", "current"),
        "delta"
    ));
    for name in logical {
        let (b, c) = (base_counters.get(name), cur_counters.get(name));
        let delta = i128::from(c.copied().unwrap_or(0)) - i128::from(b.copied().unwrap_or(0));
        if delta > 0 {
            rose.push(name.clone());
        }
        lines.push(format!("{} {delta:>+12}", row(name, &num(b), &num(c))));
    }
    lines.push(match differing.as_slice() {
        [] => "deterministic sections match".to_string(),
        d => format!("deterministic sections differ: {}", d.join(", ")),
    });
    lines.push(row("measured (no verdict)", "base", "current"));
    let secs = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |s| format!("{s:.6}"));
    for (key, b) in base_doc
        .get("timings")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let c = cur_doc.get_path(&["timings", key]).and_then(Json::as_f64);
        lines.push(row(&format!("timings.{key}"), &secs(b.as_f64()), &secs(c)));
    }
    for name in measured {
        let (b, c) = (base_counters.get(name), cur_counters.get(name));
        lines.push(row(name, &num(b), &num(c)));
    }
    Ok((lines.join("\n") + "\n", rose))
}

fn runs_top(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[("metric", 1), ("limit", 1)], &[]).map_err(CliError::Usage)?;
    let ledger = open_ledger(&a, "top")?;
    let metric = a
        .get_str("metric")
        .unwrap_or("timings.total_secs")
        .to_string();
    let limit = a.get_usize("limit").map_err(CliError::Usage)?.unwrap_or(10);
    let path: Vec<&str> = metric.split('.').collect();
    let entries = ledger
        .list()
        .map_err(|e| CliError::Run(format!("runs top: {e}")))?;
    let mut ranked: Vec<(f64, &IndexEntry)> = entries
        .iter()
        .filter_map(|e| {
            let doc = ledger.read_report(&e.id).ok()?;
            let v = doc.get_path(&path)?.as_f64()?;
            Some((v, e))
        })
        .collect();
    if ranked.is_empty() {
        return Err(CliError::Run(format!(
            "no archived run carries metric {metric}"
        )));
    }
    ranked.sort_by(|x, y| y.0.total_cmp(&x.0).then_with(|| x.1.id.cmp(&y.1.id)));
    println!(
        "top {} of {} by {metric}:",
        ranked.len().min(limit),
        ranked.len()
    );
    for (v, e) in ranked.iter().take(limit) {
        println!("{v:>16.6}  {}  {}", e.id, e.label.as_deref().unwrap_or("-"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::synth_into;
    use crate::mine::mine;
    use tricluster_core::obs::names;

    /// Ledger end to end: two `mine --ledger` runs of the same input
    /// archive under distinct sequenced ids with equal content hashes, and
    /// `runs list`/`show`/`top` round-trip the archive. `runs diff` passes
    /// the pair with matching sections. A third run at a smaller `--mx`
    /// does strictly more search work: `runs diff` fails naming the
    /// counters that rose, and passes the other direction while naming the
    /// sections that differ.
    #[test]
    fn ledger_archives_runs_and_diff_judges_counters() {
        let dir =
            std::env::temp_dir().join(format!("tricluster-ledger-test-{}", std::process::id()));
        let data = synth_into(&dir);
        let ledger_path = dir.join("ledger");
        let ldir = ledger_path.to_str().unwrap().to_string();
        let arg = |s: &str| s.to_string();
        let run = |extra: &[&str]| {
            let mut argv = vec![data.clone(), arg("--ledger"), ldir.clone()];
            argv.extend(extra.iter().map(|s| arg(s)));
            mine(&argv).unwrap();
        };
        run(&[]);
        run(&[]);
        run(&["--mx", "2"]);
        let ledger = Ledger::open(&ledger_path).unwrap();
        let entries = ledger.list().unwrap();
        assert_eq!(entries.len(), 3, "{entries:?}");
        let (base, again, more) = (&entries[0], &entries[1], &entries[2]);
        assert_ne!(base.id, again.id);
        assert!(base.id.starts_with("r0001-") && again.id.starts_with("r0002-"));
        assert!(more.id.starts_with("r0003-"));
        assert_eq!(base.dataset_hash, again.dataset_hash, "same input bytes");
        assert_eq!(base.params_hash, again.params_hash, "same parameters");
        assert_eq!(base.dataset_hash, more.dataset_hash);
        assert_ne!(base.params_hash, more.params_hash, "--mx is a parameter");
        assert_eq!(base.kind, "mine");
        assert_eq!(base.label.as_deref(), Some(data.as_str()));
        assert!(base.clusters.is_some() && base.total_secs.is_some());
        assert!(base.clusters.unwrap() > 0);
        // archived reports are valid v2 documents (the `runs show --json`
        // payload is exactly this file)
        let read = |e: &IndexEntry| (e.clone(), ledger.read_report(&e.id).unwrap());
        let (base_run, again_run, more_run) = (read(base), read(again), read(more));
        for (_, doc) in [&base_run, &again_run, &more_run] {
            runreport::validate_v2(doc).unwrap();
        }
        // the CLI surface round-trips: list, show by unique id prefix
        runs(&[arg("list"), ldir.clone(), arg("--ids")]).unwrap();
        runs(&[arg("show"), ldir.clone(), base.id.clone()]).unwrap();
        runs(&[arg("show"), ldir.clone(), arg("--json"), arg("r0002")]).unwrap();
        let diff = |b: &str, c: &str| runs(&[arg("diff"), ldir.clone(), arg(b), arg(c)]);
        // same input, same params: nothing rose and the sections match,
        // in the same bytes every time the pair is read
        diff(&base.id, &again.id).unwrap();
        let (text, rose) = diff_runs(&base_run, &again_run).unwrap();
        assert!(rose.is_empty(), "{rose:?}");
        assert!(text.contains("\ndeterministic sections match\n"), "{text}");
        assert!(!text.contains("note:"), "{text}");
        assert_eq!(diff_runs(&read(base), &read(again)).unwrap().0, text);
        // a smaller --mx does more work: the diff fails naming what rose
        let (text, rose) = diff_runs(&base_run, &more_run).unwrap();
        assert!(rose.iter().any(|n| n == names::BC_NODES), "{rose:?}");
        assert!(text.contains("note: the runs differ in params"), "{text}");
        let e = diff(&base.id, &more.id).unwrap_err();
        assert!(
            matches!(&e, CliError::Run(m) if m.contains(names::BC_NODES)),
            "{e}"
        );
        // the other direction only fell: exit 0, differing sections named
        let (text, rose) = diff_runs(&more_run, &base_run).unwrap();
        assert!(rose.is_empty(), "{rose:?}");
        assert!(
            text.contains("deterministic sections differ: report.counters"),
            "{text}"
        );
        diff(&more.id, &base.id).unwrap();
        // the wall-clock tolerance flags are gone: one is a usage error
        let removed = ["time", "tol"].join("-");
        let e = runs(&[
            arg("diff"),
            ldir.clone(),
            base.id.clone(),
            again.id.clone(),
            format!("--{removed}"),
            arg("1"),
        ])
        .unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains(&removed)),
            "{e}"
        );
        runs(&[arg("top"), ldir.clone(), arg("--limit"), arg("1")]).unwrap();
        // selector errors surface as runtime errors, not panics
        let e = runs(&[arg("show"), ldir.clone(), arg("r")]).unwrap_err();
        assert!(
            matches!(&e, CliError::Run(m) if m.contains("ambiguous")),
            "{e}"
        );
        let e = runs(&[arg("show"), ldir, arg("zzz")]).unwrap_err();
        assert!(matches!(e, CliError::Run(_)), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The params hash covers the session's transforms: a plain, an
    /// `--auto` and a `--shifting` run of one file (time is its largest
    /// axis, so `--auto` really transposes) archive three different hashes,
    /// and `runs diff` notes that the first two differ in params.
    #[test]
    fn params_hash_covers_the_session_transforms() {
        let dir = std::env::temp_dir().join(format!(
            "tricluster-ledger-transforms-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let twisted = tricluster_core::testdata::paper_table1().permuted([
            tricluster_matrix::Axis::Sample,
            tricluster_matrix::Axis::Time,
            tricluster_matrix::Axis::Gene,
        ]);
        let data = dir.join("twisted.tsv").to_str().unwrap().to_string();
        crate::commands::write_matrix(&data, &twisted).unwrap();
        let ldir = dir.join("ledger").to_str().unwrap().to_string();
        for transform in [None, Some("--auto"), Some("--shifting")] {
            let mut argv = vec![data.clone(), "--ledger".to_string(), ldir.clone()];
            argv.extend(transform.map(String::from));
            mine(&argv).unwrap();
        }
        let ledger = Ledger::open(&ldir).unwrap();
        let entries = ledger.list().unwrap();
        let hashes: BTreeSet<&str> = entries.iter().map(|e| e.params_hash.as_str()).collect();
        assert_eq!((entries.len(), hashes.len()), (3, 3), "{entries:?}");
        let read = |e: &IndexEntry| (e.clone(), ledger.read_report(&e.id).unwrap());
        let (text, _) = diff_runs(&read(&entries[0]), &read(&entries[1])).unwrap();
        assert!(text.contains("note: the runs differ in params"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `runs` usage errors: missing subcommand, unknown subcommand, and a
    /// read command pointed at a directory that does not exist.
    #[test]
    fn runs_rejects_bad_invocations() {
        let e = runs(&[]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("subcommand")),
            "{e}"
        );
        let e = runs(&["bogus".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("bogus")),
            "{e}"
        );
        let e = runs(&["list".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("ledger")),
            "{e}"
        );
        let e = runs(&["list".to_string(), "/nonexistent/ledger-dir".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Run(m) if m.contains("no ledger")),
            "{e}"
        );
    }
}
