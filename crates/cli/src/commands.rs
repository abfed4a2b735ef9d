//! What the subcommands share — the usage text, the error type, byte
//! counts and the mining-parameter flags — plus the `synth` and `demo`
//! subcommands. `mine`, `runs`, `watch`, `serve` and `submit` have modules
//! of their own.

use crate::args;
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use tricluster_core::obs::NullSink;
use tricluster_core::{MergeParams, MineError, Params, Reported, Session, Tricluster};
use tricluster_matrix::{io, Labels, Matrix3};
use tricluster_synth::{generate, SynthSpec};

pub const USAGE: &str = "\
tricluster — mining coherent clusters in 3D microarray data (SIGMOD 2005)

USAGE:
  tricluster mine <stacked.tsv> [options]     mine a stacked-TSV 3D matrix
  tricluster synth <out.tsv> [options]        generate synthetic data
  tricluster demo [--export PATH]             run the paper's Table 1 example
                                              (or export it as a stacked TSV)
  tricluster runs <subcommand> ...            inspect an archived run ledger
  tricluster watch <URL> [options]            live-monitor a serving run
  tricluster serve <HOST:PORT> [options]      run the multi-tenant mining daemon
  tricluster submit <URL> <stacked.tsv> ...   submit a job to a serve daemon

MINE OPTIONS:
  --eps E          maximum ratio threshold ε             (default 0.01)
  --eps-time E     relaxed ε along the time dimension    (default: ε)
  --mx N           minimum genes per cluster             (default 3)
  --my N           minimum samples per cluster           (default 3)
  --mz N           minimum time points per cluster       (default 2)
  --delta-x D      max value range across genes per column
  --delta-y D      max value range across samples per row
  --delta-z D      max value range across times per fiber
  --merge ETA GAMMA    enable merge/delete post-processing
  --max-candidates N   bound the DFS search (truncates on exhaustion); it
                       counts visited DFS nodes, and subtrees that cannot
                       reach --my/--mz are skipped without being visited
  --deadline SECS  wall-clock budget; on expiry the run stops cooperatively
                   and reports the clusters mined so far as truncated
  --max-memory B   logical-bytes budget for mined structures, with optional
                   K/M/G suffix (e.g. 64M); on exhaustion later slices are
                   dropped deterministically and the run reports truncated
  --threads N      worker threads for the per-slice phases (default: cores);
                   with more threads than time slices, each slice fans out
                   over its column pairs and DFS branches instead
  --shifting       mine shifting (additive) clusters via Lemma 2 (mines
                   exp of the input; works with every other mine flag)
  --auto           transpose so the largest dimension is mined as genes
  --names          print gene/sample/time names instead of indices
  --csv            emit clusters as CSV (cluster,shape,type,members)
  -v, -vv          phase timings (-vv adds counters, histograms, and the
                   search-space profile) on stderr
  --trace          stream per-decision trace events as JSON lines on stderr
                   (flushed per event)
  --explain        print the search-space profile (nodes expanded, prunes by
                   reason, dedup hits, histograms, memory) as JSON on stdout
  --report-json PATH   write the structured run report (spans, counters,
                       histograms, memory, search space) as JSON
  --trace-out PATH     write a timeline of the run in Chrome Trace Event
                       format (open in Perfetto or chrome://tracing; one
                       track per worker thread)
  --flame-out PATH     write the run's timeline as folded flamegraph stacks
                       (`phase;span;span N` self-time lines in microseconds,
                       loadable by inferno, speedscope, flamegraph.pl)
  --ledger DIR         archive the run (v2 report, timeline artifacts when
                       traced, dataset/params content hashes, build metadata)
                       into the append-only run ledger at DIR
  --progress[=SECS]    emit live progress snapshots as JSON lines on stderr
                       every SECS seconds (default 1.0): phase, slices/pairs/
                       branches done vs. total, candidates, bytes, budgets
  --metrics-addr HOST:PORT   serve live run metrics over HTTP for the
                       lifetime of the mine (port 0 picks one; the bound
                       address is printed on stderr): GET /metrics is
                       OpenMetrics text exposition (counters, phase timing
                       histograms, progress/budget gauges, live/peak heap
                       bytes under --features track-alloc), GET /progress a
                       JSON gauge snapshot, GET /healthz a liveness probe

WATCH OPTIONS (tricluster watch http://HOST:PORT):
  --interval SECS  poll /progress every SECS seconds (default 1.0) and
                   render a live one-line status; exits 0 when the watched
                   run's server goes away after at least one snapshot
  --once           print a single status snapshot and exit
  --get PATH       print one raw HTTP response body from URL+PATH (e.g.
                   --get /metrics scrapes a mine's — or a serve daemon's —
                   OpenMetrics exposition without external tooling)
  --jobs           print a serve daemon's job table (GET /jobs) and exit,
                   headed by its service counters and cache effectiveness

SERVE OPTIONS (tricluster serve HOST:PORT; port 0 picks one, the bound
address is printed on stderr; POST /shutdown drains the daemon):
  --workers N          concurrent mining jobs (default 2)
  --queue-depth N      most jobs waiting in the queue; further submissions
                       are shed with a machine-readable 429 (default 16)
  --memory-budget B    aggregate logical-bytes admission budget across all
                       queued + running matrices (K/M/G suffix allowed)
  --cap-deadline SECS, --cap-memory B, --cap-candidates N, --cap-threads N
                       server-wide ceilings clamped onto every job's
                       requested per-job budgets
  --max-body B         largest accepted request body, and largest dataset
                       file read for a --by-path submission (default 64M)
  --ledger DIR         archive every finished job's v2 report (plus its
                       Chrome trace with job-lifecycle instants) into the
                       run ledger at DIR (kind \"serve\"), flushed per job
  --cache-entries N    parsed datasets kept by the content-hash cache
                       (default 8; 0 disables)
  --access-log PATH    append one JSONL audit record per HTTP request:
                       request id, method, path, status, bytes, duration,
                       clamp verdict, shed reason. GET /metrics exposes the
                       daemon-lifetime counters, queue-wait/run/archive
                       histograms, and live gauges as OpenMetrics text

SUBMIT OPTIONS (tricluster submit http://HOST:PORT DATA.tsv):
  mine param flags     --eps/--mx/--my/--mz/--merge/--deadline/... forwarded
                       verbatim; the daemon parses them exactly like `mine`
  --label L            free-form job label for listings
  --by-path            send the dataset path instead of its bytes (the
                       daemon must see the same filesystem)
  --wait [--poll SECS] block until the job finishes (poll default 0.2s)
  --report-json PATH   with --wait: write the finished job's v2 report
  --cancel ID          cancel a queued or running job instead of submitting
  --shutdown MODE      drain | cancel: gracefully shut the daemon down

SYNTH OPTIONS:
  --genes N --samples N --times N --clusters N
  --noise F --overlap F --seed N

RUNS SUBCOMMANDS (over a --ledger DIR archive):
  runs list <DIR> [--ids]            list archived runs (--ids: ids only)
  runs show <DIR> <ID> [--json]      summarize one run (--json: raw report);
                                     ID may be any unique id prefix
  runs diff <DIR> <BASE> <CURRENT>   compare two archived mine runs: every
                                     input-determined counter with its exact
                                     delta (exits 1 when one rose), whether
                                     the deterministic sections match, and
                                     timings and allocator counters side by
                                     side with no verdict
  runs top <DIR> [--metric KEY] [--limit N]
                                     rank runs by a dotted report metric
                                     (default timings.total_secs)

EXIT CODES:
  0   success (including budget-truncated runs, which are reported as such)
  1   mining error: unreadable or non-finite input, escaped worker panic
  2   usage error: unknown command/flag or invalid parameter value
";

/// A CLI failure, split by who is at fault so `main` can pick the exit code:
/// `Usage` (exit 2) means the invocation itself is wrong — unknown flag,
/// unparsable value, parameters rejected by [`Params::validate`] — while
/// `Run` (exit 1) means a well-formed invocation failed at runtime (missing
/// or malformed input file, non-finite cells, escaped panic).
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Run(m) => f.write_str(m),
        }
    }
}

impl CliError {
    /// Classifies a mining failure: parameter rejections are the caller's
    /// fault (exit 2), everything else is a runtime error (exit 1).
    pub(crate) fn from_mine(e: MineError) -> Self {
        match e {
            MineError::InvalidParams(_) => CliError::Usage(e.to_string()),
            _ => CliError::Run(e.to_string()),
        }
    }
}

/// Parses a byte count with an optional binary `K`/`M`/`G` suffix
/// (case-insensitive, trailing `b` allowed: `64M`, `2gb`, `131072`).
pub(crate) fn parse_bytes(flag: &str, s: &str) -> Result<u64, String> {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, mult) = ["gb", "g", "mb", "m", "kb", "k", "b", ""]
        .iter()
        .find_map(|suf| {
            let mult = match suf.chars().next() {
                Some('g') => 1u64 << 30,
                Some('m') => 1 << 20,
                Some('k') => 1 << 10,
                _ => 1,
            };
            lower.strip_suffix(suf).map(|d| (d, mult))
        })
        .unwrap_or((lower.as_str(), 1));
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("--{flag} expects BYTES with an optional K/M/G suffix, got {s:?}"))
}

/// The value flags that set mining [`Params`] (read by
/// [`mine_params_from`]), with their arities. `mine`, `submit` and the
/// daemon's `POST /jobs` all accept exactly these.
pub(crate) const PARAM_FLAGS: &[(&str, usize)] = &[
    ("eps", 1),
    ("eps-time", 1),
    ("mx", 1),
    ("my", 1),
    ("mz", 1),
    ("delta-x", 1),
    ("delta-y", 1),
    ("delta-z", 1),
    ("merge", 2),
    ("max-candidates", 1),
    ("deadline", 1),
    ("max-memory", 1),
    ("threads", 1),
];

pub fn mine_params_from(a: &args::Args) -> Result<Params, String> {
    let mut b = Params::builder()
        .epsilon(a.get_f64("eps")?.unwrap_or(0.01))
        .min_genes(a.get_usize("mx")?.unwrap_or(3))
        .min_samples(a.get_usize("my")?.unwrap_or(3))
        .min_times(a.get_usize("mz")?.unwrap_or(2));
    if let Some(e) = a.get_f64("eps-time")? {
        b = b.epsilon_time(e);
    }
    if let Some(d) = a.get_f64("delta-x")? {
        b = b.delta_gene(d);
    }
    if let Some(d) = a.get_f64("delta-y")? {
        b = b.delta_sample(d);
    }
    if let Some(d) = a.get_f64("delta-z")? {
        b = b.delta_time(d);
    }
    if let Some((eta, gamma)) = a.get_pair_f64("merge")? {
        b = b.merge(MergeParams { eta, gamma });
    }
    if let Some(n) = a.get_u64("max-candidates")? {
        b = b.max_candidates(n);
    }
    if let Some(d) = a.get_secs("deadline", true)? {
        b = b.deadline(d);
    }
    if let Some(s) = a.get_str("max-memory") {
        b = b.max_memory(parse_bytes("max-memory", s)?);
    }
    if let Some(n) = a.get_usize("threads")? {
        b = b.threads(n);
    }
    b.build().map_err(|e| e.to_string())
}

/// One cluster's shape and members, by index or (with `names`) by label.
pub(crate) fn print_cluster(i: usize, c: &Tricluster, labels: &Labels, names: bool) {
    let (x, y, z) = c.shape();
    println!("cluster {i}: {x} genes x {y} samples x {z} times");
    if names {
        let genes: Vec<String> = c.genes.iter().map(|g| labels.gene(g)).collect();
        let samples: Vec<String> = c.samples.iter().map(|&s| labels.sample(s)).collect();
        let times: Vec<String> = c.times.iter().map(|&t| labels.time(t)).collect();
        println!("  genes:   {}", genes.join(" "));
        println!("  samples: {}", samples.join(" "));
        println!("  times:   {}", times.join(" "));
    } else {
        println!("  genes:   {:?}", c.genes.to_vec());
        println!("  samples: {:?}", c.samples);
        println!("  times:   {:?}", c.times);
    }
}

pub fn synth(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(
        argv,
        &[
            ("genes", 1),
            ("samples", 1),
            ("times", 1),
            ("clusters", 1),
            ("noise", 1),
            ("overlap", 1),
            ("seed", 1),
        ],
        &[],
    )
    .map_err(CliError::Usage)?;
    let Some(path) = a.positional.first() else {
        return Err(CliError::Usage("synth: missing output file".into()));
    };
    let mut spec = SynthSpec::default();
    // Planted clusters are at least as large as `mine`'s default sizes
    // (`--mx 3 --my 3 --mz 2`), so `mine` finds them at its defaults, where
    // the matrix is that large; they never outgrow the matrix.
    if let Some(v) = a.get_usize("genes").map_err(CliError::Usage)? {
        spec.n_genes = v;
        let gx = (v / 12).max(4).min(v);
        spec.gene_range = (gx, gx);
    }
    if let Some(v) = a.get_usize("samples").map_err(CliError::Usage)? {
        spec.n_samples = v;
        let sy = (v / 3).max(3).min(v);
        spec.sample_range = (sy, sy);
    }
    if let Some(v) = a.get_usize("times").map_err(CliError::Usage)? {
        spec.n_times = v;
        let tz = (v / 2).max(2).min(v);
        spec.time_range = (tz, tz);
    }
    if let Some(v) = a.get_usize("clusters").map_err(CliError::Usage)? {
        spec.n_clusters = v;
    }
    if let Some(v) = a.get_f64("noise").map_err(CliError::Usage)? {
        spec.noise = v;
    }
    if let Some(v) = a.get_f64("overlap").map_err(CliError::Usage)? {
        spec.overlap_fraction = v;
    }
    if let Some(v) = a.get_u64("seed").map_err(CliError::Usage)? {
        spec.seed = v;
    }
    spec.validate()
        .map_err(|e| CliError::Usage(format!("synth: {e}")))?;
    let data = generate(&spec);
    write_matrix(path, &data.matrix)?;
    eprintln!(
        "wrote {} genes x {} samples x {} times with {} embedded clusters to {path}",
        spec.n_genes,
        spec.n_samples,
        spec.n_times,
        data.truth.len()
    );
    eprintln!("suggested mining epsilon: {}", spec.suggested_epsilon());
    for (i, c) in data.truth.iter().enumerate() {
        let (x, y, z) = c.shape();
        eprintln!("  truth {i}: {x} x {y} x {z}");
    }
    Ok(())
}

pub(crate) fn write_matrix(path: &str, m: &Matrix3) -> Result<(), CliError> {
    let labels = Labels::default_for(m.n_genes(), m.n_samples(), m.n_times());
    let file =
        File::create(path).map_err(|e| CliError::Run(format!("cannot create {path}: {e}")))?;
    let mut w = BufWriter::new(file);
    io::write_stacked_tsv(&mut w, m, &labels).map_err(|e| CliError::Run(e.to_string()))
}

pub fn demo(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, &[("export", 1)], &[]).map_err(CliError::Usage)?;
    if let Some(stray) = a.positional.first() {
        return Err(CliError::Usage(format!(
            "demo takes no positional arguments, got {stray:?}"
        )));
    }
    let m = tricluster_core::testdata::paper_table1();
    if let Some(path) = a.get_str("export") {
        write_matrix(path, &m)?;
        eprintln!("wrote the Table 1 running example (10 genes x 7 samples x 2 times) to {path}");
        return Ok(());
    }
    let params = Params::builder()
        .epsilon(0.01)
        .min_genes(3)
        .min_samples(3)
        .min_times(2)
        .build()
        .unwrap();
    let Reported {
        result, metrics, ..
    } = Session::new(params)
        .run_report(&m, &NullSink)
        .expect("the built-in Table 1 fixture is finite and mines without budgets");
    println!("Table 1 running example (mx=my=3, mz=2, ε=0.01):\n");
    let labels = Labels::default_for(10, 7, 2);
    for (i, c) in result.triclusters.iter().enumerate() {
        print_cluster(i, c, &labels, true);
    }
    println!("\n{metrics}");
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mine::{MINE_FLAGS, MINE_SWITCHES};
    use std::time::Duration;

    pub(crate) fn parse_mine(argv: &[&str]) -> args::Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        args::parse(&argv, &[PARAM_FLAGS, MINE_FLAGS].concat(), MINE_SWITCHES).unwrap()
    }

    #[test]
    fn defaults_when_no_flags() {
        let p = mine_params_from(&parse_mine(&["file.tsv"])).unwrap();
        assert_eq!(p.epsilon, 0.01);
        assert_eq!((p.min_genes, p.min_samples, p.min_times), (3, 3, 2));
        assert_eq!(p.merge, None);
        assert_eq!(p.max_candidates, None);
        assert_eq!(p.deadline, None);
        assert_eq!(p.max_memory, None);
    }

    #[test]
    fn all_flags_thread_through() {
        let a = parse_mine(&[
            "f.tsv",
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
        ]);
        let p = mine_params_from(&a).unwrap();
        assert_eq!(p.epsilon, 0.05);
        assert_eq!(p.epsilon_time, 0.2);
        assert_eq!((p.min_genes, p.min_samples, p.min_times), (10, 4, 3));
        assert_eq!(p.delta_gene, Some(1.5));
        assert_eq!(p.delta_sample, Some(2.5));
        assert_eq!(p.delta_time, Some(3.5));
        assert_eq!(
            p.merge,
            Some(MergeParams {
                eta: 0.2,
                gamma: 0.1
            })
        );
        assert_eq!(p.max_candidates, Some(5000));
        assert_eq!(p.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(p.max_memory, Some(64 << 20));
    }

    #[test]
    fn invalid_params_are_reported() {
        let a = parse_mine(&["f.tsv", "--eps", "-1"]);
        let e = mine_params_from(&a).unwrap_err();
        assert!(e.contains("epsilon"));
        let a = parse_mine(&["f.tsv", "--mx", "0"]);
        assert!(mine_params_from(&a).is_err());
    }

    #[test]
    fn byte_suffixes_parse() {
        for (text, want) in [
            ("0", 0),
            ("131072", 131072),
            ("8k", 8 << 10),
            ("8KB", 8 << 10),
            ("64M", 64 << 20),
            ("64mb", 64 << 20),
            ("2G", 2 << 30),
            ("2gb", 2 << 30),
            ("512b", 512),
        ] {
            assert_eq!(parse_bytes("max-memory", text).unwrap(), want, "{text}");
        }
        for bad in ["", "M", "-5", "4.5G", "64X", "999999999999G"] {
            let e = parse_bytes("max-memory", bad).unwrap_err();
            assert!(e.contains("--max-memory"), "{bad}: {e}");
        }
        // zero is parseable but rejected by Params::validate
        let e = mine_params_from(&parse_mine(&["f.tsv", "--max-memory", "0"])).unwrap_err();
        assert!(e.contains("max_memory"), "{e}");
    }

    #[test]
    fn bad_deadline_is_rejected() {
        for bad in ["-1", "nan", "inf", "1e30", "1.9e19"] {
            let e = mine_params_from(&parse_mine(&["f.tsv", "--deadline", bad])).unwrap_err();
            assert!(e.contains("--deadline"), "{bad}: {e}");
        }
        let p = mine_params_from(&parse_mine(&["f.tsv", "--deadline", "0"])).unwrap();
        assert_eq!(p.deadline, Some(Duration::ZERO));
    }

    #[test]
    fn demo_runs() {
        demo(&[]).unwrap();
    }

    /// `demo --export` writes the Table 1 fixture as a mineable stacked
    /// TSV — the dataset the EXPERIMENTS.md live-monitoring walkthrough
    /// points `mine --metrics-addr` at.
    #[test]
    fn demo_exports_a_mineable_table1_tsv() {
        let dir = std::env::temp_dir().join(format!("tricluster-demo-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table1.tsv");
        let path_str = path.to_str().unwrap().to_string();
        demo(&["--export".to_string(), path_str.clone()]).unwrap();
        crate::mine::mine(&[path_str.clone(), "--eps".to_string(), "0.01".to_string()]).unwrap();
        // The export concatenated with itself repeats the label `t0`: `mine`
        // refuses it instead of mining four slices.
        let twice = dir.join("twice.tsv");
        std::fs::write(&twice, std::fs::read(&path).unwrap().repeat(2)).unwrap();
        let twice = twice.to_str().unwrap().to_string();
        let e = crate::mine::mine(&[twice, "--eps".to_string(), "0.01".to_string()]).unwrap_err();
        assert!(e.to_string().contains("time label \"t0\""), "{e}");
        let e = demo(&["stray".to_string()]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("positional")),
            "{e}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_roundtrip_through_tmpfile() {
        let dir = std::env::temp_dir().join(format!("tricluster-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synth.tsv");
        let path_str = path.to_str().unwrap().to_string();
        synth(&[
            path_str.clone(),
            "--genes".into(),
            "120".into(),
            "--samples".into(),
            "8".into(),
            "--times".into(),
            "4".into(),
            "--clusters".into(),
            "2".into(),
            "--noise".into(),
            "0".into(),
        ])
        .unwrap();
        // the written file parses back into the declared dimensions
        let file = std::fs::File::open(&path).unwrap();
        let (m, _) = io::read_stacked_tsv(std::io::BufReader::new(file)).unwrap();
        assert_eq!(m.dims(), (120, 8, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_missing_path_errors() {
        let e = synth(&[]).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("missing output")),
            "{e}"
        );
    }

    /// Specs the generator cannot honour are usage errors, and write no
    /// file.
    #[test]
    fn synth_rejects_specs_the_generator_cannot_honour() {
        let dir = std::env::temp_dir().join(format!("tricluster-cli-synth-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.tsv");
        let path_str = path.to_str().unwrap().to_string();
        for (flag, value, field) in [
            ("--genes", "0", "n_genes"),
            ("--noise", "1", "noise"),
            ("--overlap", "2", "overlap_fraction"),
            ("--genes", "3", "not enough genes"),
        ] {
            let e = synth(&[path_str.clone(), flag.into(), value.into()]).unwrap_err();
            assert!(
                matches!(&e, CliError::Usage(m) if m.contains(field)),
                "{flag} {value}: {e}"
            );
            assert!(!path.exists(), "{flag} {value} wrote a file");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a synthetic stacked-TSV dataset into `dir` and returns its
    /// path as a string. `mine` at its defaults finds its clusters.
    pub(crate) fn synth_into(dir: &std::path::Path) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let data = dir.join("synth.tsv");
        let data_str = data.to_str().unwrap().to_string();
        synth(&[
            data_str.clone(),
            "--genes".into(),
            "60".into(),
            "--samples".into(),
            "8".into(),
            "--times".into(),
            "4".into(),
            "--clusters".into(),
            "2".into(),
            "--noise".into(),
            "0".into(),
        ])
        .unwrap();
        let (m, _) = io::read_stacked_tsv(std::fs::read(&data).unwrap().as_slice()).unwrap();
        let params = mine_params_from(&parse_mine(&[&data_str])).unwrap();
        let found = tricluster_core::mine(&m, &params).unwrap().triclusters;
        assert!(!found.is_empty(), "mine finds none of synth's clusters");
        data_str
    }

    /// Binds an ephemeral port, then releases it — the returned address is
    /// free for the code under test to bind (the usual reserve-port trick;
    /// nothing else in this process grabs ports in between).
    pub(crate) fn reserve_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        addr
    }
}
