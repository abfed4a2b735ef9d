//! serve-open and serve-closed: jobs posted to a `tricluster serve
//! --workers 2` daemon over loopback HTTP, polled until their report is
//! fetched. The traced pass of the mine workloads also uses [`probe`] to
//! measure the served layers on its own datasets.

use crate::check::check_report;
use crate::layers::{layer_self_times, InProcess, PARSE};
use crate::metrics::{per_layer, LayerInputs, ServeLayers};
use crate::proc::{vm_hwm_mb, Daemon};
use crate::result::{metric, RunResult};
use crate::spans::Trace;
use crate::stats::{median, tail_percentile};
use crate::workload::{Datasets, Workload, DATASETS};
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tricluster_core::obs::httpd::{http_get, http_post};
use tricluster_core::obs::json::Json;

/// Daemon set-ups per timed run; their median is `setup_s`.
const SETUPS: usize = 3;
/// Jobs needed for a p90 with ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Jobs of the served probe in the mine workloads' traced pass.
const PROBE_JOBS: usize = 6 * DATASETS;
/// Interval between `GET /jobs/<id>` polls of an unfinished job.
const POLL: Duration = Duration::from_millis(5);
/// A job not finished this long after its POST counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// In-process rounds of the traced pass, run before the daemon starts.
const TRACED_ROUNDS: u64 = 2 * DATASETS as u64;
/// serve-open's arrival rate in jobs per second: about 0.3 x the capacity
/// serve-closed measures on the reference host (see README.md). Bursts
/// still queue; at 0.45 x, latency spread across seeds about twice as
/// widely on a 2-core host.
const OPEN_RATE: f64 = 6.0;

/// The `POST /jobs` bodies of a workload's datasets.
struct Bodies {
    params_json: String,
    /// Each dataset's TSV as a JSON string literal.
    escaped: Vec<String>,
    /// The unchanged datasets: after warm-up, every one is a cache hit.
    hot: Vec<String>,
}

impl Bodies {
    fn new(data: &Datasets) -> Bodies {
        // One mining thread per job: the two workers then fill the two
        // cores without two jobs fighting over both.
        let flags = data
            .flags
            .iter()
            .map(String::as_str)
            .chain(["--threads", "1"]);
        let params_json = Json::Arr(flags.map(|f| Json::Str(f.into())).collect()).render();
        let escaped: Vec<String> = data
            .items
            .iter()
            .map(|d| {
                let text =
                    String::from_utf8(d.tsv.clone()).expect("write_stacked_tsv writes UTF-8");
                Json::Str(text).render()
            })
            .collect();
        let hot = escaped
            .iter()
            .enumerate()
            .map(|(k, tsv)| {
                format!("{{\"label\":\"hot-{k}\",\"params\":{params_json},\"dataset\":{tsv}}}")
            })
            .collect();
        Bodies {
            params_json,
            escaped,
            hot,
        }
    }

    /// Dataset `k` behind a comment line unique to `tag`: different bytes
    /// (a cache miss and a full parse) of the same matrix, so the job must
    /// still match dataset `k`'s reference.
    fn cold(&self, k: usize, tag: &str) -> String {
        format!(
            "{{\"label\":\"cold-{tag}\",\"params\":{},\"dataset\":\"# cold {tag}\\n{}}}",
            self.params_json,
            &self.escaped[k][1..]
        )
    }
}

/// The client-side life of one job.
#[derive(Debug, Clone)]
struct JobRecord {
    /// Whether the body was a hot (cached after warm-up) dataset.
    hot: bool,
    /// When the job was due to be sent.
    due: Instant,
    sent: Instant,
    posted: Instant,
    /// Start of the poll that returned the finished report.
    fetch_start: Instant,
    done: Instant,
    polls: u64,
    /// Seconds spent decoding the finished job's response body.
    decode_s: f64,
    outcome: Result<(), String>,
}

impl JobRecord {
    /// From when the job was due, not when it was sent, so a stalled
    /// sender's delay counts against every job it held up.
    fn latency_s(&self) -> f64 {
        (self.done - self.due).as_secs_f64()
    }

    /// How late the generator sent the job.
    fn lag_s(&self) -> f64 {
        (self.sent - self.due).as_secs_f64()
    }

    fn post_s(&self) -> f64 {
        (self.posted - self.sent).as_secs_f64()
    }

    fn fetch_s(&self) -> f64 {
        (self.done - self.fetch_start).as_secs_f64()
    }
}

/// Posts a job; returns its id.
fn post_job(url: &str, body: &str) -> Result<u64, String> {
    let (status, text) = http_post(&format!("{url}/jobs"), "application/json", body.as_bytes())?;
    if status != 202 {
        return Err(format!("POST /jobs answered {status}: {}", text.trim()));
    }
    Json::parse(&text)?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("POST /jobs answered without an id: {text}"))
}

/// One `GET /jobs/<id>`: `None` while queued or running, else the decoded
/// body of the finished job and the seconds its decode took.
fn poll_job(url: &str, id: u64) -> Result<Option<(Json, f64)>, String> {
    let (status, text) = http_get(&format!("{url}/jobs/{id}"))?;
    if status != 200 {
        return Err(format!("GET /jobs/{id} answered {status}: {}", text.trim()));
    }
    let start = Instant::now();
    let doc = Json::parse(&text)?;
    let decode_s = start.elapsed().as_secs_f64();
    match doc.get_path(&["job", "state"]).and_then(Json::as_str) {
        Some("queued" | "running") => Ok(None),
        Some("done") => Ok(Some((doc, decode_s))),
        other => Err(format!("job {id} ended {other:?}: {text}")),
    }
}

/// A job in flight between its POST and its fetched report.
struct Pending {
    hot: bool,
    /// The dataset whose reference the report must match.
    k: usize,
    due: Instant,
    sent: Instant,
    posted: Instant,
    id: Result<u64, String>,
    polls: u64,
}

impl Pending {
    /// Polls once; returns the finished record, if the job is over.
    fn poll(&mut self, url: &str, data: &Datasets) -> Option<JobRecord> {
        let fetch_start = Instant::now();
        let polled = match &self.id {
            Err(e) => Err(e.clone()),
            Ok(id) => {
                self.polls += 1;
                poll_job(url, *id)
            }
        };
        // The report is in hand here; checking it is not part of latency.
        let done = Instant::now();
        let (outcome, decode_s) = match polled {
            Ok(None) if done - self.posted <= JOB_TIMEOUT => return None,
            Ok(None) => (Err("job timed out".to_owned()), 0.0),
            Ok(Some((doc, secs))) => {
                let checked = match doc.get("report") {
                    Some(report) => check_report(report, &data.items[self.k].report),
                    None => Err("finished job has no report".into()),
                };
                (checked, secs)
            }
            Err(e) => (Err(e), 0.0),
        };
        Some(JobRecord {
            hot: self.hot,
            due: self.due,
            sent: self.sent,
            posted: self.posted,
            fetch_start,
            done,
            polls: self.polls,
            decode_s,
            outcome,
        })
    }
}

/// Posts `body` (dataset `k`) once `due` has come.
fn submit(url: &str, body: &str, hot: bool, k: usize, due: Instant) -> Pending {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let sent = Instant::now();
    let id = post_job(url, body);
    Pending {
        hot,
        k,
        due,
        sent,
        posted: Instant::now(),
        id,
        polls: 0,
    }
}

/// Posts dataset `k` unchanged and polls until its report is fetched.
fn submit_and_wait(url: &str, data: &Datasets, bodies: &Bodies, k: usize) -> JobRecord {
    let mut pending = submit(url, &bodies.hot[k], true, k, Instant::now());
    loop {
        std::thread::sleep(POLL);
        if let Some(record) = pending.poll(url, data) {
            return record;
        }
    }
}

/// A daemon warmed with one job per dataset.
struct Warm {
    daemon: Daemon,
    /// Spawn to `/healthz` 200 plus the warm-up jobs, in seconds.
    setup_s: f64,
    /// The warm-up jobs: each the first sight of its dataset, so a miss.
    warmups: Vec<JobRecord>,
}

fn set_up(ctx: &Ctx, data: &Datasets, bodies: &Bodies, i: usize) -> Result<Warm, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(
        &ctx.bin,
        &ctx.work.join(format!("ledger-{i}")),
        &ctx.work.join(format!("serve-{i}.log")),
    )?;
    let mut warmups = Vec::with_capacity(DATASETS);
    for k in 0..DATASETS {
        let mut record = submit_and_wait(&daemon.url, data, bodies, k);
        if let Err(e) = &record.outcome {
            return Err(format!("warm-up job: {e}"));
        }
        record.hot = false;
        warmups.push(record);
    }
    Ok(Warm {
        daemon,
        setup_s: start.elapsed().as_secs_f64(),
        warmups,
    })
}

/// Offsets of `n` arrivals of a Poisson process of `rate` per second,
/// conditioned on all `n` falling within `n / rate` seconds: sorted
/// uniform draws. Fixing the count keeps the offered load the same on
/// every seed.
fn arrival_offsets(seed: u64, n: usize, rate: f64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11_17A1);
    let window = n as f64 / rate;
    let mut offsets: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * window).collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

/// Open loop: one sender posts on a seeded Poisson schedule at
/// [`OPEN_RATE`], alternating hot and never-seen datasets; one poller
/// polls every unfinished job every [`POLL`].
fn open_loop(ctx: &Ctx, url: &str, data: &Datasets, bodies: &Bodies) -> Vec<JobRecord> {
    let n = ((OPEN_RATE * ctx.seconds).round() as usize).max(MIN_JOBS);
    let offsets = arrival_offsets(ctx.seed, n, OPEN_RATE);
    let t0 = Instant::now() + POLL;
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, offset) in offsets.into_iter().enumerate() {
                let (hot, k) = (i % 2 == 0, (i / 2) % DATASETS);
                let cold;
                let body = if hot {
                    &bodies.hot[k]
                } else {
                    cold = bodies.cold(k, &format!("{}-{i}", ctx.seed));
                    &cold
                };
                if tx.send(submit(url, body, hot, k, t0 + offset)).is_err() {
                    return;
                }
            }
        });
        let mut records = Vec::with_capacity(n);
        let mut pending: Vec<Pending> = Vec::new();
        let mut sender_done = false;
        while !(sender_done && pending.is_empty()) {
            let tick = Instant::now();
            loop {
                match rx.try_recv() {
                    Ok(job) => pending.push(job),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        sender_done = true;
                        break;
                    }
                }
            }
            pending.retain_mut(|job| match job.poll(url, data) {
                Some(record) => {
                    records.push(record);
                    false
                }
                None => true,
            });
            if let Some(rest) = (tick + POLL).checked_duration_since(Instant::now()) {
                std::thread::sleep(rest);
            }
        }
        records
    })
}

/// Closed loop: two clients, each resubmitting hot datasets back to back
/// until `enough(start, finished jobs)`.
fn closed_loop(
    url: &str,
    data: &Datasets,
    bodies: &Bodies,
    enough: &(dyn Fn(Instant, usize) -> bool + Sync),
) -> Vec<JobRecord> {
    let start = Instant::now();
    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let finished = &finished;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    for j in 0.. {
                        if enough(start, finished.load(Ordering::SeqCst)) {
                            break;
                        }
                        records.push(submit_and_wait(url, data, bodies, (2 * j + c) % DATASETS));
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                    records
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Cumulative daemon-side numbers from one `GET /metrics` scrape.
#[derive(Debug, Default, Clone, Copy)]
struct Scrape {
    queue_wait: (f64, f64),
    run: (f64, f64),
    archive: (f64, f64),
    hits: f64,
    misses: f64,
}

fn scrape(url: &str) -> Result<Scrape, String> {
    let (status, text) = http_get(&format!("{url}/metrics"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let value = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let hist = |fam: &str| {
        (
            value(&format!("tricluster_serve_job_{fam}_seconds_sum")),
            value(&format!("tricluster_serve_job_{fam}_seconds_count")),
        )
    };
    Ok(Scrape {
        queue_wait: hist("queue_wait"),
        run: hist("run"),
        archive: hist("archive"),
        hits: value("tricluster_serve_cache_hits"),
        misses: value("tricluster_serve_cache_misses"),
    })
}

/// Mean per observation of a histogram between two scrapes.
fn mean_delta(before: (f64, f64), after: (f64, f64)) -> f64 {
    let count = after.1 - before.1;
    if count > 0.0 {
        (after.0 - before.0) / count
    } else {
        0.0
    }
}

/// What one measured phase against a warmed daemon produced.
struct Served {
    records: Vec<JobRecord>,
    warmups: Vec<JobRecord>,
    before: Scrape,
    after: Scrape,
    peak_rss_mb: f64,
}

/// Runs `phase` against a warmed daemon between two `/metrics` scrapes,
/// then drains the daemon.
fn serve_phase(warm: Warm, phase: impl FnOnce(&str) -> Vec<JobRecord>) -> Result<Served, String> {
    let Warm {
        daemon, warmups, ..
    } = warm;
    let before = scrape(&daemon.url)?;
    let records = phase(&daemon.url);
    let after = scrape(&daemon.url)?;
    let peak_rss_mb = vm_hwm_mb(daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    daemon.shutdown()?;
    for r in &records {
        if let Err(e) = &r.outcome {
            eprintln!("e2ebench: job failed: {e}");
        }
    }
    Ok(Served {
        records,
        warmups,
        before,
        after,
        peak_rss_mb,
    })
}

/// The measured phase of a serve workload.
fn workload_phase<'a>(
    w: Workload,
    ctx: &'a Ctx,
    data: &'a Datasets,
    bodies: &'a Bodies,
) -> impl FnOnce(&str) -> Vec<JobRecord> + 'a {
    move |url: &str| match w {
        Workload::ServeOpen => open_loop(ctx, url, data, bodies),
        _ => closed_loop(url, data, bodies, &|start, n| {
            ctx.measured_enough(start, n, MIN_JOBS)
        }),
    }
}

impl Served {
    fn ok(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.outcome.is_ok())
    }

    fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.outcome.is_err()).count() as u64
    }

    fn lag_max_s(&self) -> f64 {
        self.records
            .iter()
            .map(JobRecord::lag_s)
            .fold(0.0, f64::max)
    }

    /// Median of `f` over the finished jobs (and the warm-ups when
    /// `with_warmups`) that `f` applies to; 0 when none does.
    fn med(&self, with_warmups: bool, f: impl Fn(&JobRecord) -> Option<f64>) -> f64 {
        let warm = self.warmups.iter().filter(|_| with_warmups);
        let v: Vec<f64> = self.ok().chain(warm).filter_map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Mean of `f` over the finished jobs.
    fn mean(&self, f: fn(&JobRecord) -> f64) -> f64 {
        let v: Vec<f64> = self.ok().map(f).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Share of the daemon's dataset lookups, warm-ups included, that
    /// missed the cache and parsed.
    fn miss_share(&self) -> f64 {
        let lookups = self.after.hits + self.after.misses;
        if lookups > 0.0 {
            self.after.misses / lookups
        } else {
            0.0
        }
    }

    fn layers(&self) -> ServeLayers {
        let (b, a) = (self.before, self.after);
        let lookups = (a.hits - b.hits) + (a.misses - b.misses);
        let ok = self.ok().count().max(1) as f64;
        ServeLayers {
            // Warm-up posts are misses too: they make the miss median
            // measurable on workloads whose measured jobs all hit.
            post_hit_s: self.med(false, |r| r.hot.then(|| r.post_s())),
            post_miss_s: self.med(true, |r| (!r.hot).then(|| r.post_s())),
            fetch_s: self.med(false, |r| Some(r.fetch_s())),
            decode_s: self.med(false, |r| Some(r.decode_s)),
            queue_wait_s: mean_delta(b.queue_wait, a.queue_wait),
            run_s: mean_delta(b.run, a.run),
            archive_s: mean_delta(b.archive, a.archive),
            cache_hit_ratio: if lookups > 0.0 {
                (a.hits - b.hits) / lookups
            } else {
                0.0
            },
            polls: self.ok().map(|r| r.polls as f64).sum::<f64>() / ok,
            lag_max_s: self.lag_max_s(),
        }
    }

    fn note(&self, load: &str) -> String {
        format!(
            "{load}: n={} jobs ({} failed), cache hits {} / misses {}, generator lag max \
             {:.4} s; latency = due time to finished report fetched",
            self.records.len(),
            self.failed(),
            self.after.hits - self.before.hits,
            self.after.misses - self.before.misses,
            self.lag_max_s()
        )
    }
}

fn load_note(w: Workload) -> String {
    match w {
        Workload::ServeOpen => format!("open loop, Poisson arrivals at {OPEN_RATE} jobs/s"),
        _ => "closed loop, 2 clients".into(),
    }
}

/// The served layers of a mine workload's traced pass: a daemon warmed
/// with the workload's datasets, then [`PROBE_JOBS`] closed-loop jobs.
pub struct Probe {
    pub layers: ServeLayers,
    pub attempted: u64,
    pub failed: u64,
    pub note: String,
}

pub fn probe(ctx: &Ctx, data: &Datasets) -> Result<Probe, String> {
    let bodies = Bodies::new(data);
    let warm = set_up(ctx, data, &bodies, 0)?;
    let served = serve_phase(warm, |url| {
        closed_loop(url, data, &bodies, &|_, n| n >= PROBE_JOBS)
    })?;
    Ok(Probe {
        layers: served.layers(),
        attempted: served.records.len() as u64,
        failed: served.failed(),
        note: format!(
            "cli.serve.*: served probe of {}",
            served.note("closed loop, 2 clients, hot datasets")
        ),
    })
}

pub fn run(w: Workload, ctx: &Ctx) -> Result<RunResult, String> {
    let data = Datasets::new(w, ctx)?;
    let bodies = Bodies::new(&data);
    if ctx.trace {
        traced(w, ctx, &data, &bodies)
    } else {
        timed(w, ctx, &data, &bodies)
    }
}

fn timed(w: Workload, ctx: &Ctx, data: &Datasets, bodies: &Bodies) -> Result<RunResult, String> {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        let warm = set_up(ctx, data, bodies, i)?;
        setup.push(warm.setup_s);
        if i + 1 < SETUPS {
            warm.daemon.shutdown()?;
        } else {
            last = Some(warm);
        }
    }
    let warm = last.expect("at least one set-up");
    let served = serve_phase(warm, workload_phase(w, ctx, data, bodies))?;
    let latencies: Vec<f64> = served.ok().map(JobRecord::latency_s).collect();
    let n = latencies.len();
    let pct = |q: f64| {
        tail_percentile(&latencies, q)
            .ok_or_else(|| format!("{n} finished jobs cannot support a p{}", q * 100.0))
    };
    let first_due = served.records.iter().map(|r| r.due).min();
    let last_done = served.ok().map(|r| r.done).max();
    let window = match (first_due, last_done) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => return Err("no job finished".into()),
    };
    Ok(RunResult {
        workload: w.name(),
        seed: ctx.seed,
        trace: false,
        attempted: served.records.len() as u64,
        failed: served.failed(),
        metrics: vec![
            metric("latency_s_p50", "s", pct(0.5)?),
            metric("throughput_per_s", "1/s", n as f64 / window),
            metric("setup_s", "s", median(&setup)),
            metric("recall", "ratio", data.recall()),
            metric("peak_rss_mb", "MB", served.peak_rss_mb),
        ],
        extra: vec![metric("latency_s_p90", "s", pct(0.9)?)],
        notes: vec![
            served.note(&load_note(w)),
            format!(
                "setup_s = median of {SETUPS} daemon starts (spawn to /healthz 200 plus one \
                 warm-up job per dataset); recall over {} planted clusters",
                data.planted()
            ),
        ],
    })
}

fn traced(w: Workload, ctx: &Ctx, data: &Datasets, bodies: &Bodies) -> Result<RunResult, String> {
    let mut trace = Trace::new(Instant::now());
    let mut inproc = InProcess::default();
    for _ in 0..TRACED_ROUNDS {
        inproc.round(&mut trace, data)?;
    }
    let self_s = layer_self_times(&trace);
    let warm = set_up(ctx, data, bodies, 0)?;
    let served = serve_phase(warm, workload_phase(w, ctx, data, bodies))?;
    for (i, r) in served.records.iter().enumerate() {
        let job = TRACED_ROUNDS + i as u64;
        let root = trace.record("job", None, job, r.due, r.done);
        trace.record("bench.client.lag", Some(root), job, r.due, r.sent);
        trace.record("cli.serve.post", Some(root), job, r.sent, r.posted);
        trace.record("cli.serve.wait", Some(root), job, r.posted, r.fetch_start);
        trace.record("cli.serve.fetch", Some(root), job, r.fetch_start, r.done);
    }
    ctx.write_chrome(w, &trace)?;

    let sv = served.layers();
    // Means, not medians: the daemon's histograms give means, and only
    // means add up along a job's path.
    let e2e_s = served.mean(JobRecord::latency_s);
    let attributed_s = served.mean(JobRecord::lag_s)
        + served.mean(JobRecord::post_s)
        + sv.queue_wait_s
        + sv.run_s
        + served.mean(JobRecord::fetch_s);
    let metrics = per_layer(&LayerInputs {
        self_s: &self_s,
        inproc: &inproc,
        parse_s: self_s[PARSE] * served.miss_share(),
        serve: &sv,
        e2e_s,
        attributed_s,
    });
    Ok(RunResult {
        workload: w.name(),
        seed: ctx.seed,
        trace: true,
        attempted: served.records.len() as u64 + inproc.rounds,
        failed: served.failed() + inproc.failed,
        metrics,
        extra: Vec::new(),
        notes: vec![
            served.note(&load_note(w)),
            format!(
                "core.* layers: {} in-process rounds over the {DATASETS} datasets at 1 thread; \
                 matrix.io.parse_s is that parse time times the share of the daemon's jobs, \
                 warm-ups included, that missed the cache",
                inproc.rounds
            ),
            "unattributed_s = bench.traced.e2e_s (mean job latency) - means of lag, post \
             and fetch - daemon mean queue wait and run: poll granularity and HTTP \
             handling outside the daemon's histograms"
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_due_time_and_lag_from_due_to_sent() {
        let due = Instant::now();
        let at = |ms: u64| due + Duration::from_millis(ms);
        // The sender was 30 ms late; the report arrived 100 ms after the
        // job was due, so the stall counts against the job.
        let r = JobRecord {
            hot: true,
            due,
            sent: at(30),
            posted: at(32),
            fetch_start: at(95),
            done: at(100),
            polls: 4,
            decode_s: 0.0,
            outcome: Ok(()),
        };
        assert!((r.latency_s() - 0.100).abs() < 1e-9);
        assert!((r.lag_s() - 0.030).abs() < 1e-9);
        assert!((r.post_s() - 0.002).abs() < 1e-9);
        assert!((r.fetch_s() - 0.005).abs() < 1e-9);
        let on_time = JobRecord {
            sent: due,
            ..r.clone()
        };
        let served = Served {
            records: vec![on_time, r],
            warmups: Vec::new(),
            before: Scrape::default(),
            after: Scrape::default(),
            peak_rss_mb: 0.0,
        };
        assert!((served.lag_max_s() - 0.030).abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_seeded_sorted_and_keep_the_offered_rate() {
        let a = arrival_offsets(7, 240, 12.0);
        assert_eq!(a, arrival_offsets(7, 240, 12.0));
        assert_ne!(a, arrival_offsets(8, 240, 12.0));
        assert_eq!(a.len(), 240);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap().as_secs_f64() < 20.0);
    }
}
