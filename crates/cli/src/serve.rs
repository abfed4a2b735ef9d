//! The `tricluster serve` daemon: its listener, mining workers and HTTP
//! handlers, over [`Engine`]/[`Session`](tricluster_core::Session) (core),
//! [`HttpServer`] (obs) and the job table ([`crate::jobs`]). DESIGN.md
//! §10–§11 describe its admission control, isolation and observability.
//!
//! | endpoint | effect |
//! |---|---|
//! | `POST /jobs` | submit a job (JSON body, dataset inline or by path) |
//! | `GET /jobs` | list all retained jobs |
//! | `GET /jobs/<id>` | one job's status, live progress, final report |
//! | `DELETE /jobs/<id>` | cancel (dequeue if queued, trip mid-flight if running) |
//! | `GET /stats` | queue depth, admitted bytes, dataset-cache hits, counters |
//! | `GET /metrics` | daemon-lifetime OpenMetrics exposition |
//! | `GET /healthz` | liveness |
//! | `POST /shutdown` | graceful drain (`{"mode":"drain"}`) or cancel-all |
//!
//! No job can take down or contaminate another: each runs behind its own
//! `catch_unwind`, a shed submission gets a machine-readable 429/503, and
//! a served job's deterministic report sections are byte-identical to a
//! one-shot `mine`'s. `/stats`, `/jobs` and `/metrics` read the job table
//! through one snapshot and the dataset cache through one
//! [`Engine::cache_stats`] call.

use crate::args;
use crate::commands::{mine_params_from, parse_bytes, CliError, PARAM_FLAGS};
use crate::jobs::{Cancel, JobTable, Outcome, Run, Shed, ShutdownMode};
use crate::mine::ledger_entry;
use std::io::{Read as _, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tricluster_core::obs::httpd::{Handler, HttpServer, Request, Response};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::Ledger;
use tricluster_core::obs::metrics::Registry;
use tricluster_core::obs::names;
use tricluster_core::obs::progress::ProgressSink;
use tricluster_core::obs::timeline::{self, Timeline};
use tricluster_core::obs::{EventSink, Fanout};
use tricluster_core::{Dataset, Engine, Params, Reported, TenantCaps};

/// Fault-injection sites of the serve layer, in request order. (The
/// `serve.response.write` site lives in `obs::httpd`; the rest are here.)
///
/// | site | unit | on `Error` action |
/// |---|---|---|
/// | `serve.admission` | admission decision | structured 503, job rejected |
/// | `serve.queue` | enqueue step | structured 503, job rejected |
/// | `serve.job.spawn` | one job's execution | structured failed-job record |
/// | `serve.response.write` | one HTTP response | response lost, daemon serves on |
#[cfg_attr(not(test), allow(dead_code))] // release builds compile the sites out
pub const SERVE_FAILPOINTS: &[&str] = &[
    "serve.admission",
    "serve.queue",
    "serve.job.spawn",
    "serve.response.write",
];

/// Daemon configuration, assembled from the `serve` command line.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Mining worker threads (concurrent jobs).
    pub workers: usize,
    /// Most jobs waiting in the queue (running jobs don't count).
    pub queue_depth: usize,
    /// Aggregate logical-bytes budget across queued + running matrices.
    pub memory_budget: Option<u64>,
    /// Server-wide ceilings clamped onto every job's requested budgets.
    pub caps: TenantCaps,
    /// Largest accepted request body (inline datasets), and largest
    /// dataset file read for a `dataset_path` submission.
    pub max_body: usize,
    /// Archive finished jobs into this run ledger.
    pub ledger_dir: Option<String>,
    /// Parsed datasets retained by the content-hash cache.
    pub cache_entries: usize,
    /// Append one JSONL audit record per HTTP request to this file.
    pub access_log: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
            memory_budget: None,
            caps: TenantCaps::unlimited(),
            max_body: 64 << 20,
            ledger_dir: None,
            cache_entries: 8,
            access_log: None,
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    engine: Engine,
    // `Ledger::archive` reads the index to sequence ids, so concurrent
    // archives must serialize.
    ledger: Option<Mutex<Ledger>>,
    jobs: JobTable,
    /// Daemon-lifetime counters and latency histograms (`GET /metrics`).
    /// Its locks are leaves: never take the job table's lock while holding
    /// them.
    service: Registry,
    /// Monotonic per-request IDs, assigned before routing.
    next_request_id: AtomicU64,
    /// JSONL audit sink (`--access-log`); whole-line single writes.
    access_log: Option<Mutex<std::fs::File>>,
}

impl Shared {
    /// The daemon's state and services, before any worker or listener runs.
    fn new(cfg: ServeConfig) -> Result<Arc<Shared>, CliError> {
        let ledger = cfg
            .ledger_dir
            .as_ref()
            .map(|dir| {
                let ledger = Ledger::open(dir);
                ledger.map_err(|e| CliError::Run(format!("cannot open ledger {dir}: {e}")))
            })
            .transpose()?;
        let access_log = cfg
            .access_log
            .as_ref()
            .map(|path| {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path);
                file.map_err(|e| CliError::Run(format!("cannot open access log {path}: {e}")))
            })
            .transpose()?;
        Ok(Arc::new(Shared {
            engine: Engine::with_cache_entries(cfg.caps.clone(), cfg.cache_entries),
            jobs: JobTable::new(cfg.queue_depth, cfg.memory_budget),
            cfg,
            ledger: ledger.map(Mutex::new),
            service: Registry::new(),
            next_request_id: AtomicU64::new(1),
            access_log: access_log.map(Mutex::new),
        }))
    }
}

/// A running daemon: HTTP listener + mining workers.
pub struct Daemon {
    server: Option<HttpServer>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, spawns the workers, and starts admitting jobs.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, CliError> {
        let addr = cfg.addr.clone();
        let max_body = cfg.max_body;
        let workers = cfg.workers.max(1);
        let shared = Shared::new(cfg)?;
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| CliError::Run(format!("cannot spawn worker: {e}")))?;
            handles.push(handle);
        }
        let handler: Handler = {
            let shared = shared.clone();
            Arc::new(move |req| handle_request(&shared, req))
        };
        let server = HttpServer::serve(&addr, max_body, handler)
            .map_err(|e| CliError::Run(format!("cannot bind {addr}: {e}")))?;
        Ok(Daemon {
            server: Some(server),
            shared,
            workers: handles,
        })
    }

    /// Base URL of the bound listener.
    pub fn url(&self) -> String {
        self.server
            .as_ref()
            .expect("server runs until wait()")
            .url()
    }

    /// Blocks until a `POST /shutdown` arrives, then drains: workers are
    /// joined (they finish or cancel in-flight jobs per the shutdown
    /// mode; ledger entries are written eagerly as each job completes),
    /// and only then is the listener closed — status queries keep working
    /// through the drain.
    pub fn wait(mut self) {
        self.shared.jobs.wait_for_drain();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.server.take(); // drop: stop accepting, join the accept thread
    }
}

/// One mining worker: pull, run isolated, record, repeat. Exits once the
/// daemon drains and the queue is empty.
fn worker_loop(shared: &Shared) {
    while let Some((run, dataset, queue_wait)) = shared.jobs.dequeue() {
        shared.service.span(names::SV_QUEUE_WAIT, queue_wait);
        let started = Instant::now();
        // Per-job isolation: a panic anywhere in this job (including one
        // escaping the miner's own boundaries) is downgraded to a failed
        // record; the worker and every other job are untouched.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &run, &dataset)
        }))
        .unwrap_or_else(|payload| {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("job panicked: {text}"))
        });
        shared.service.span(names::SV_RUN, started.elapsed());
        let mut outcome = ran.unwrap_or_else(|error| Outcome {
            error: Some(error),
            ..Outcome::default()
        });
        outcome.secs = started.elapsed().as_secs_f64();
        shared.jobs.finish(run.id, outcome, &shared.service);
    }
}

/// Runs one admitted job end to end through
/// [`Session::run_report`](tricluster_core::Session::run_report) — the
/// same call a one-shot `mine` makes — with the progress gauges and the
/// job's timeline as the sink, so the deterministic report sections are
/// byte-identical to a one-shot run over the same dataset and params. The
/// worker stamps the outcome's `secs`.
fn run_job(shared: &Shared, job: &Run, dataset: &Dataset) -> Result<Outcome, String> {
    if let Some(msg) = tricluster_failpoint::trigger("serve.job.spawn") {
        return Err(msg);
    }
    let att = job.timeline.attach("serve-worker");
    timeline::instant(names::T_SV_STARTED);
    let progress_sink = ProgressSink(job.progress.clone());
    let sink = Fanout(vec![&progress_sink as &dyn EventSink, &job.timeline]);
    let Reported { result, doc, .. } = job
        .session
        .run_report(&dataset.matrix, &sink)
        .map_err(|e| e.to_string())?;
    timeline::instant(names::T_SV_FINISHED);
    // Flush this thread's event ring before rendering the trace below.
    drop(att);
    // The `serve` section carries the job's provenance (which submission
    // produced it); it is NOT one of the deterministic sections, so a
    // served report still matches a one-shot `mine` byte-for-byte where
    // it counts.
    let doc = doc.with(
        "serve",
        Json::obj()
            .with("request_id", Json::U64(job.request_id))
            .with("job_id", Json::U64(job.id)),
    );
    if let Some(ledger) = &shared.ledger {
        // Eager per-job flush: by the time a drain finishes joining the
        // workers, every completed job is already on disk.
        let archive_started = Instant::now();
        let trace = job
            .timeline
            .to_chrome_json()
            .with("request_id", Json::U64(job.request_id))
            .render();
        let hash = &dataset.hash;
        let entry = ledger_entry(
            "serve",
            hash.clone(),
            hash.clone(),
            &job.session,
            &doc,
            Some(&trace),
            None,
        );
        let ledger = ledger
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Err(e) = ledger.archive(&entry) {
            eprintln!("serve: ledger archive failed: {e}");
        }
        drop(ledger);
        shared
            .service
            .span(names::SV_ARCHIVE, archive_started.elapsed());
    }
    Ok(Outcome {
        clusters: result.triclusters.len(),
        truncation: result.truncation.map(|r| r.as_str().to_owned()),
        report: Some(doc),
        ..Outcome::default()
    })
}

/// Per-request audit context, filled in by the routing layer and emitted
/// as part of the access-log record.
#[derive(Default)]
struct Audit {
    /// The job this request created or addressed.
    job_id: Option<u64>,
    /// Tenant-clamp verdict of a submission.
    clamped: Option<bool>,
    /// Why a submission was shed ([`Shed`]'s `reason`).
    shed_reason: Option<&'static str>,
}

/// Entry point for one HTTP request: assigns the monotonic request ID,
/// routes, then emits the audit record. Runs on a connection thread
/// behind the listener's own `catch_unwind`.
fn handle_request(shared: &Shared, req: Request) -> Response {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let mut audit = Audit::default();
    let response = route(shared, &req, request_id, &mut audit);
    shared.service.counter(names::SV_HTTP_REQUESTS, 1);
    log_access(
        shared,
        request_id,
        &req,
        &response,
        started.elapsed(),
        &audit,
    );
    response
}

/// Appends one whole-line JSONL audit record for a finished request.
fn log_access(
    shared: &Shared,
    request_id: u64,
    req: &Request,
    response: &Response,
    elapsed: Duration,
    audit: &Audit,
) {
    let Some(log) = &shared.access_log else {
        return;
    };
    let record = Json::obj()
        .with("request_id", Json::U64(request_id))
        .with("method", Json::Str(req.method.clone()))
        .with("path", Json::Str(req.path.clone()))
        .with("status", Json::U64(u64::from(response.status)))
        .with("bytes", Json::U64(response.body.len() as u64))
        .with("duration_secs", Json::F64(elapsed.as_secs_f64()))
        .maybe_with("job_id", audit.job_id.map(Json::U64))
        .maybe_with("clamped", audit.clamped.map(Json::Bool))
        .maybe_with(
            "shed_reason",
            audit.shed_reason.map(|r| Json::Str(r.into())),
        );
    let mut line = record.render();
    line.push('\n');
    // One write per record (the JsonLinesSink discipline): records from
    // concurrent connection threads never interleave mid-line.
    let mut file = log.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Err(e) = file.write_all(line.as_bytes()) {
        eprintln!("serve: access log write failed: {e}");
    }
}

/// Routes one HTTP request.
fn route(shared: &Shared, req: &Request, request_id: u64, audit: &mut Audit) -> Response {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/stats") => stats_response(shared),
        ("GET", "/metrics") => metrics_response(shared),
        ("GET", "/jobs") => list_jobs(shared),
        ("POST", "/jobs") => submit_job(shared, &req.body, request_id, audit),
        ("POST", "/shutdown") => shutdown(shared, &req.body),
        _ => {
            if let Some(id) = path.strip_prefix("/jobs/") {
                let Ok(id) = id.parse::<u64>() else {
                    return error_response(400, "bad_request", "job id must be an integer");
                };
                audit.job_id = Some(id);
                return match req.method.as_str() {
                    "GET" => job_status(shared, id),
                    "DELETE" => cancel_job(shared, id),
                    _ => error_response(405, "method_not_allowed", "use GET or DELETE"),
                };
            }
            error_response(
                404,
                "not_found",
                "try /jobs, /jobs/<id>, /metrics, /stats, /healthz, /shutdown",
            )
        }
    }
}

/// A machine-readable error body: `{"error": <code>, "detail": <human>}`.
pub(crate) fn error_response(status: u16, code: &str, detail: &str) -> Response {
    let body = Json::obj()
        .with("error", Json::Str(code.into()))
        .with("detail", Json::Str(detail.into()));
    Response::json(status, body.render() + "\n")
}

/// The dataset cache's hits, misses and evictions, read once.
fn cache_json(shared: &Shared) -> Json {
    let (hits, misses, evictions) = shared.engine.cache_stats();
    Json::obj()
        .with("hits", Json::U64(hits))
        .with("misses", Json::U64(misses))
        .with("evictions", Json::U64(evictions))
}

fn stats_response(shared: &Shared) -> Response {
    let table = shared.jobs.snapshot();
    let n = |name| Json::U64(shared.service.counter_value(name));
    let counters = Json::obj()
        .with("submitted", n(names::SV_JOBS_ACCEPTED))
        .with("rejected_queue", n(names::SV_JOBS_REJECTED_QUEUE_FULL))
        .with("rejected_memory", n(names::SV_JOBS_REJECTED_MEMORY))
        .with("clamped", n(names::SV_JOBS_CLAMPED))
        .with("completed", n(names::SV_JOBS_COMPLETED))
        .with("failed", n(names::SV_JOBS_FAILED))
        .with("cancelled", n(names::SV_JOBS_CANCELLED))
        .with("http_requests", n(names::SV_HTTP_REQUESTS));
    let body = Json::obj()
        .with("queue_depth", Json::U64(table.queue_depth as u64))
        .with("queue_capacity", Json::U64(shared.cfg.queue_depth as u64))
        .with("running", Json::U64(table.running as u64))
        .with("workers", Json::U64(shared.cfg.workers as u64))
        .with("admitted_bytes", Json::U64(table.admitted_bytes))
        .with(
            "memory_budget",
            shared.cfg.memory_budget.map_or(Json::Null, Json::U64),
        )
        .with("draining", Json::Bool(table.draining))
        .with(
            "dataset_cache",
            cache_json(shared).with("entries", Json::U64(shared.engine.cached_datasets() as u64)),
        )
        .with("counters", counters);
    Response::json(200, body.render_pretty() + "\n")
}

/// `GET /metrics`: the daemon-lifetime OpenMetrics exposition. Counters
/// and latency histograms come from the daemon's [`Registry`]; gauges are
/// sampled at scrape time from one job-table snapshot and one cache
/// read.
fn metrics_response(shared: &Shared) -> Response {
    let table = shared.jobs.snapshot();
    let (hits, misses, evictions) = shared.engine.cache_stats();
    let gauges = [
        (names::SV_QUEUE_DEPTH, table.queue_depth as f64),
        (names::SV_ADMITTED_BYTES, table.admitted_bytes as f64),
        (names::SV_WORKERS_BUSY, table.running as f64),
        (names::SV_JOBS_RETAINED, table.retained as f64),
        (names::SV_CACHE_HITS, hits as f64),
        (names::SV_CACHE_MISSES, misses as f64),
        (names::SV_CACHE_EVICTIONS, evictions as f64),
    ];
    Response {
        status: 200,
        content_type: "application/openmetrics-text; version=1.0.0; charset=utf-8".into(),
        body: shared.service.render_openmetrics(&gauges),
    }
}

fn list_jobs(shared: &Shared) -> Response {
    let (table, jobs) = shared.jobs.listing();
    let n = |name| Json::U64(shared.service.counter_value(name));
    let service = Json::obj()
        .with("accepted", n(names::SV_JOBS_ACCEPTED))
        .with("completed", n(names::SV_JOBS_COMPLETED))
        .with("failed", n(names::SV_JOBS_FAILED))
        .with("cancelled", n(names::SV_JOBS_CANCELLED))
        .with("queue_depth", Json::U64(table.queue_depth as u64))
        .with("running", Json::U64(table.running as u64));
    let body = Json::obj()
        .with("jobs", Json::Arr(jobs))
        .with("service", service)
        .with("dataset_cache", cache_json(shared));
    Response::json(200, body.render_pretty() + "\n")
}

fn job_status(shared: &Shared, id: u64) -> Response {
    match shared.jobs.status(id) {
        Some(body) => Response::json(200, body.render_pretty() + "\n"),
        None => error_response(404, "not_found", "no such job (or already evicted)"),
    }
}

/// Sheds a submission: the access log gets its reason, the service its
/// counter, the client its body.
fn shed_response(shared: &Shared, shed: Shed, audit: &mut Audit) -> Response {
    audit.shed_reason = Some(shed.reason);
    if let Some(counter) = shed.counter {
        shared.service.counter(counter, 1);
    }
    shed.response
}

/// `POST /jobs`: parse, admit, enqueue. Body schema:
///
/// ```json
/// {"label": "...",                    // optional
///  "dataset": "<stacked TSV text>",   // inline, or:
///  "dataset_path": "/path/on/server", // server-side file
///  "params": ["--eps", "0.012"]}      // mine-style flags, optional
/// ```
fn submit_job(shared: &Shared, body: &[u8], request_id: u64, audit: &mut Audit) -> Response {
    if let Some(msg) = tricluster_failpoint::trigger("serve.admission") {
        return error_response(503, "fault_injected", &msg);
    }
    // Cheap rejections (no parse work) first: drain state and queue depth.
    if let Some(shed) = shared.jobs.shed() {
        return shed_response(shared, shed, audit);
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return error_response(400, "bad_request", "body is not UTF-8");
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return error_response(400, "bad_request", &format!("body is not JSON: {e}")),
    };
    let label = doc
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    // Params arrive as mine-style flags and go through the exact same
    // parser as the CLI, so a daemon job cannot drift from a one-shot run.
    // They are checked before the dataset, so a bad request parses nothing.
    let params_argv: Vec<String> = doc
        .get("params")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|v| v.as_str().map(str::to_owned))
        .collect();
    let requested = match job_params(&params_argv) {
        Ok(p) => p,
        Err(e) => return error_response(400, "bad_params", &e),
    };
    // Dataset: inline TSV string, or a server-side path. The hit-counter
    // delta says whether this submission reused a cached parse (racy
    // across concurrent submissions, but the flag is informational). The
    // dataset enters the cache only once its job is admitted below.
    let (hits_before, _, _) = shared.engine.cache_stats();
    let dataset = if let Some(tsv) = doc.get("dataset").and_then(Json::as_str) {
        shared.engine.dataset_from_bytes(tsv.as_bytes())
    } else if let Some(path) = doc.get("dataset_path").and_then(Json::as_str) {
        match read_dataset_file(path, shared.cfg.max_body) {
            Ok(bytes) => shared.engine.dataset_from_bytes(&bytes),
            Err(response) => return response,
        }
    } else {
        return error_response(400, "bad_request", "need \"dataset\" or \"dataset_path\"");
    };
    let dataset = match dataset {
        Ok(d) => d,
        Err(e) => return error_response(400, "bad_dataset", &e.to_string()),
    };
    let cached = shared.engine.cache_stats().0 > hits_before;
    let session = shared.engine.session(&requested);
    let clamped = session.was_clamped();
    // The job's timeline starts on the HTTP thread: the enqueued instant
    // anchors the queue-wait gap visible in the Chrome trace.
    let tl = Timeline::new();
    {
        let _att = tl.attach("serve-http");
        timeline::instant(names::T_SV_ENQUEUED);
    }
    if let Some(msg) = tricluster_failpoint::trigger("serve.queue") {
        return error_response(503, "fault_injected", &msg);
    }
    // Admission raced other submissions: the table checks again under its
    // lock, now with the matrix size.
    let admitted = shared
        .jobs
        .admit(request_id, label, dataset.clone(), cached, session, tl);
    let id = match admitted {
        Ok(id) => id,
        Err(shed) => return shed_response(shared, shed, audit),
    };
    shared.engine.retain(&dataset);
    shared.service.counter(names::SV_JOBS_ACCEPTED, 1);
    if clamped {
        shared.service.counter(names::SV_JOBS_CLAMPED, 1);
    }
    audit.job_id = Some(id);
    audit.clamped = Some(clamped);
    let body = Json::obj()
        .with("id", Json::U64(id))
        .with("request_id", Json::U64(request_id))
        .with("status_url", Json::Str(format!("/jobs/{id}")))
        .with("dataset_hash", Json::Str(dataset.hash.clone()))
        .with("clamped", Json::Bool(clamped));
    Response::json(202, body.render() + "\n")
}

/// Reads a `dataset_path` submission's file under the cap an inline dataset
/// meets as a request body: anything but a regular file is a 400 before it
/// is opened, and a file over `max_body` bytes is a 413.
fn read_dataset_file(path: &str, max_body: usize) -> Result<Vec<u8>, Response> {
    let bad = |detail: String| error_response(400, "bad_dataset", &detail);
    let meta = std::fs::metadata(path).map_err(|e| bad(format!("cannot read {path}: {e}")))?;
    if !meta.is_file() {
        return Err(bad(format!("{path} is not a regular file")));
    }
    let cap = (max_body as u64).saturating_add(1);
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|file| file.take(cap).read_to_end(&mut bytes))
        .map_err(|e| bad(format!("cannot read {path}: {e}")))?;
    if bytes.len() > max_body {
        let detail = format!("{path} is larger than the {max_body}-byte --max-body cap");
        return Err(error_response(413, "dataset_too_large", &detail));
    }
    Ok(bytes)
}

fn cancel_job(shared: &Shared, id: u64) -> Response {
    let body = Json::obj().with("id", Json::U64(id));
    let body = match shared.jobs.cancel(id, &shared.service) {
        Cancel::NotFound => {
            return error_response(404, "not_found", "no such job (or already evicted)")
        }
        Cancel::Finished(state) => {
            return error_response(409, "already_finished", &format!("job is {state}"))
        }
        Cancel::Dequeued => body.with("state", Json::Str("cancelled".into())),
        // State flips (and the cancelled counter bumps) when the worker
        // finishes.
        Cancel::Tripped => body
            .with("state", Json::Str("running".into()))
            .with("cancelling", Json::Bool(true)),
    };
    Response::json(200, body.render() + "\n")
}

/// `POST /shutdown`: stop admitting and wake the drain. Body (optional):
/// `{"mode": "drain"}` (default — finish in-flight and queued jobs) or
/// `{"mode": "cancel"}` (cancel queued jobs, trip running ones).
fn shutdown(shared: &Shared, body: &[u8]) -> Response {
    let mode = match std::str::from_utf8(body)
        .ok()
        .filter(|t| !t.trim().is_empty())
    {
        None => ShutdownMode::Drain,
        Some(text) => match Json::parse(text) {
            Ok(doc) => match doc.get("mode").and_then(Json::as_str) {
                None | Some("drain") => ShutdownMode::Drain,
                Some("cancel") => ShutdownMode::Cancel,
                Some(other) => {
                    return error_response(
                        400,
                        "bad_request",
                        &format!("unknown shutdown mode {other:?} (drain | cancel)"),
                    )
                }
            },
            Err(e) => return error_response(400, "bad_request", &format!("body: {e}")),
        },
    };
    let already = shared.jobs.drain(mode, &shared.service);
    let body = Json::obj()
        .with("draining", Json::Bool(true))
        .with(
            "mode",
            Json::Str(match mode {
                ShutdownMode::Drain => "drain".into(),
                ShutdownMode::Cancel => "cancel".into(),
            }),
        )
        .with("already_draining", Json::Bool(already));
    Response::json(200, body.render() + "\n")
}

const SERVE_FLAGS: &[(&str, usize)] = &[
    ("workers", 1),
    ("queue-depth", 1),
    ("memory-budget", 1),
    ("cap-deadline", 1),
    ("cap-memory", 1),
    ("cap-candidates", 1),
    ("cap-threads", 1),
    ("max-body", 1),
    ("ledger", 1),
    ("cache-entries", 1),
    ("access-log", 1),
];

/// The `serve` command: parse flags, start the daemon, announce the bound
/// address, block until a `POST /shutdown` drains it.
pub fn serve(argv: &[String]) -> Result<(), CliError> {
    let a = args::parse(argv, SERVE_FLAGS, &[]).map_err(CliError::Usage)?;
    let Some(addr) = a.positional.first() else {
        return Err(CliError::Usage(
            "serve: missing bind address (HOST:PORT, e.g. 127.0.0.1:7171)".into(),
        ));
    };
    let daemon = Daemon::start(serve_config(&a, addr).map_err(CliError::Usage)?)?;
    eprintln!("serve: listening on {}", daemon.url());
    daemon.wait();
    eprintln!("serve: drained, exiting");
    Ok(())
}

/// The daemon's configuration from the `serve` command line.
///
/// A zero limit that would refuse or fail every job (no workers, no queue
/// slot, no memory, no candidates, no threads, no body) is a usage error.
fn serve_config(a: &args::Args, addr: &str) -> Result<ServeConfig, String> {
    fn nonzero<T: PartialEq + Default>(flag: &str, v: Option<T>) -> Result<Option<T>, String> {
        match v {
            Some(n) if n == T::default() => Err(format!("--{flag} must be at least 1")),
            v => Ok(v),
        }
    }
    let default = ServeConfig::default();
    let bytes = |flag| {
        nonzero(
            flag,
            a.get_str(flag).map(|s| parse_bytes(flag, s)).transpose()?,
        )
    };
    let count = |flag| nonzero(flag, a.get_usize(flag)?);
    Ok(ServeConfig {
        addr: addr.to_string(),
        workers: count("workers")?.unwrap_or(default.workers),
        queue_depth: count("queue-depth")?.unwrap_or(default.queue_depth),
        memory_budget: bytes("memory-budget")?,
        caps: TenantCaps {
            max_deadline: a.get_secs("cap-deadline", false)?,
            max_memory: bytes("cap-memory")?,
            max_candidates: nonzero("cap-candidates", a.get_u64("cap-candidates")?)?,
            max_threads: count("cap-threads")?,
        },
        max_body: bytes("max-body")?.map_or(default.max_body, |b| b as usize),
        ledger_dir: a.get_str("ledger").map(str::to_string),
        cache_entries: a
            .get_usize("cache-entries")?
            .unwrap_or(default.cache_entries),
        access_log: a.get_str("access-log").map(str::to_string),
    })
}

/// Parses a job's `params` argv exactly as `mine` parses its flags, so a
/// daemon job cannot drift from a one-shot run.
pub(crate) fn job_params(argv: &[String]) -> Result<Params, String> {
    mine_params_from(&args::parse(argv, PARAM_FLAGS, &[])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::KEEP_FINISHED;
    use std::io::BufWriter;
    use tricluster_core::obs::httpd::{http_delete, http_get, http_post};
    use tricluster_core::obs::ledger::content_hash;
    use tricluster_core::runreport;
    use tricluster_failpoint::{self as failpoint, Action};
    use tricluster_matrix::{io as mio, Labels};

    fn table1_tsv() -> String {
        let m = tricluster_core::testdata::paper_table1();
        let labels = Labels::default_for(m.n_genes(), m.n_samples(), m.n_times());
        let mut buf = Vec::new();
        {
            let mut w = BufWriter::new(&mut buf);
            mio::write_stacked_tsv(&mut w, &m, &labels).unwrap();
        }
        String::from_utf8(buf).unwrap()
    }

    /// `serve`'s configuration from `flags`, as the command line parses it.
    fn config_of(flags: &[&str]) -> Result<ServeConfig, String> {
        let argv: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        serve_config(&args::parse(&argv, SERVE_FLAGS, &[])?, "127.0.0.1:0")
    }

    /// A zero limit that would make the daemon refuse or fail every job is
    /// a usage error; `--cache-entries 0` still means no cache.
    #[test]
    fn serve_config_rejects_zero_limits() {
        for flag in [
            "--workers",
            "--queue-depth",
            "--memory-budget",
            "--cap-memory",
            "--cap-candidates",
            "--cap-threads",
            "--max-body",
        ] {
            match config_of(&[flag, "0"]) {
                Ok(_) => panic!("{flag} 0 was accepted"),
                Err(e) => assert!(e.contains(flag), "{flag}: {e}"),
            }
            assert!(config_of(&[flag, "1"]).is_ok(), "{flag} 1");
        }
        let cfg = config_of(&["--cache-entries", "0"]).unwrap();
        assert_eq!(cfg.cache_entries, 0);
    }

    /// Without `--cap-threads`, a job's explicit `--threads` is held to
    /// the machine's cores and the job is flagged clamped; a job that names
    /// no thread count keeps its params and stays unclamped. Sessions start
    /// no threads.
    #[test]
    fn explicit_threads_are_held_to_the_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let engine = Engine::new(config_of(&[]).unwrap().caps);
        let over = (cores + 7).to_string();
        let session = engine.session(&job_params(&["--threads".into(), over]).unwrap());
        assert_eq!(session.params().threads, Some(cores));
        assert!(session.was_clamped());
        let session =
            engine.session(&job_params(&["--threads".into(), cores.to_string()]).unwrap());
        assert!(!session.was_clamped());
        let params = job_params(&[]).unwrap();
        let session = engine.session(&params);
        assert!(!session.was_clamped());
        assert_eq!(session.params(), &params);
    }

    fn test_cfg() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        }
    }

    fn submit_body(label: &str, params: &[&str]) -> String {
        Json::obj()
            .with("label", Json::Str(label.into()))
            .with("dataset", Json::Str(table1_tsv()))
            .with(
                "params",
                Json::Arr(params.iter().map(|p| Json::Str((*p).into())).collect()),
            )
            .render()
    }

    fn post_job(base: &str, body: &str) -> (u16, Json) {
        let (status, text) =
            http_post(&format!("{base}/jobs"), "application/json", body.as_bytes()).unwrap();
        (status, Json::parse(text.trim()).unwrap())
    }

    /// Polls `GET /jobs/<id>` until the job leaves queued/running.
    fn wait_finished(base: &str, id: u64) -> Json {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (status, text) = http_get(&format!("{base}/jobs/{id}")).unwrap();
            assert_eq!(status, 200, "{text}");
            let doc = Json::parse(text.trim()).unwrap();
            let state = doc
                .get_path(&["job", "state"])
                .and_then(Json::as_str)
                .unwrap()
                .to_owned();
            if state != "queued" && state != "running" {
                return doc;
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn shut_down(daemon: Daemon) {
        let base = daemon.url();
        let (status, _) = http_post(&format!("{base}/shutdown"), "application/json", b"").unwrap();
        assert_eq!(status, 200);
        daemon.wait();
    }

    /// A deeply nested request body is a 400, not a stack overflow: the
    /// daemon keeps answering and still mines afterwards.
    #[test]
    fn deeply_nested_body_is_rejected_and_the_daemon_survives() {
        let _scenario = failpoint::scenario();
        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        let (status, body) = post_job(&base, &"[".repeat(200 << 10));
        assert_eq!(status, 400, "{}", body.render());
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("bad_request")
        );
        let detail = body.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains("nesting"), "{detail}");
        let (status, text) = http_get(&format!("{base}/healthz")).unwrap();
        assert_eq!(status, 200, "{text}");
        let (status, accepted) = post_job(&base, &submit_body("after-deep", &[]));
        assert_eq!(status, 202);
        let doc = wait_finished(&base, accepted.get("id").unwrap().as_u64().unwrap());
        assert_eq!(
            doc.get_path(&["job", "state"]).and_then(Json::as_str),
            Some("done")
        );
        shut_down(daemon);
    }

    #[test]
    fn end_to_end_submit_status_report_and_cache() {
        let _scenario = failpoint::scenario();
        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        let (status, text) = http_get(&format!("{base}/healthz")).unwrap();
        assert_eq!((status, text.as_str()), (200, "ok\n"));

        let (status, accepted) = post_job(&base, &submit_body("first", &["--eps", "0.01"]));
        assert_eq!(status, 202, "{accepted:?}");
        let id = accepted.get("id").unwrap().as_u64().unwrap();
        assert_eq!(
            accepted.get("status_url").unwrap().as_str().unwrap(),
            format!("/jobs/{id}")
        );
        assert_eq!(
            accepted.get("dataset_hash").and_then(Json::as_str),
            Some(content_hash(table1_tsv().as_bytes()).as_str()),
            "a job names its dataset by the hash of the inline TSV"
        );

        let doc = wait_finished(&base, id);
        assert_eq!(
            doc.get_path(&["job", "state"]).unwrap().as_str(),
            Some("done")
        );
        assert!(
            doc.get_path(&["job", "clusters"])
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        let report = doc.get("report").expect("finished job carries its report");
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some("tricluster.report/v2")
        );

        // Identical bytes resubmitted: the parse cache must hit.
        let (status, accepted2) = post_job(&base, &submit_body("second", &[]));
        assert_eq!(status, 202);
        let id2 = accepted2.get("id").unwrap().as_u64().unwrap();
        wait_finished(&base, id2);
        let (_, stats) = http_get(&format!("{base}/stats")).unwrap();
        let stats = Json::parse(stats.trim()).unwrap();
        assert!(
            stats
                .get_path(&["dataset_cache", "hits"])
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1,
            "{stats:?}"
        );
        assert_eq!(
            stats
                .get_path(&["counters", "completed"])
                .unwrap()
                .as_u64()
                .unwrap(),
            2
        );

        // The listing names both jobs.
        let (_, listing) = http_get(&format!("{base}/jobs")).unwrap();
        let listing = Json::parse(listing.trim()).unwrap();
        assert_eq!(listing.get("jobs").unwrap().as_arr().unwrap().len(), 2);
        shut_down(daemon);
    }

    /// A job shed for memory leaves the dataset cache as it found it: its
    /// dataset is parsed but never cached, so it cannot evict a hot one.
    #[test]
    fn shed_jobs_leave_the_dataset_cache_untouched() {
        let _scenario = failpoint::scenario();
        // Table 1 is 10 x 7 x 2 (1120 matrix bytes); the same with twice
        // the genes (2240 bytes) cannot fit under a 1600-byte budget.
        let small = table1_tsv();
        let big = {
            let m = tricluster_core::testdata::paper_table1();
            let (ng, ns, nt) = m.dims();
            let mut doubled = tricluster_matrix::Matrix3::zeros(2 * ng, ns, nt);
            for g in 0..2 * ng {
                for s in 0..ns {
                    for t in 0..nt {
                        doubled.set(g, s, t, m.get(g % ng, s, t));
                    }
                }
            }
            let labels = Labels::default_for(2 * ng, ns, nt);
            let mut buf = Vec::new();
            mio::write_stacked_tsv(&mut buf, &doubled, &labels).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let body = |tsv: &str| {
            Json::obj()
                .with("dataset", Json::Str(tsv.into()))
                .with(
                    "params",
                    Json::Arr(vec![Json::Str("--eps".into()), Json::Str("0.01".into())]),
                )
                .render()
        };
        let daemon = Daemon::start(ServeConfig {
            cache_entries: 1,
            memory_budget: Some(1600),
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let cache = |field: &str| {
            let (_, stats) = http_get(&format!("{base}/stats")).unwrap();
            let stats = Json::parse(stats.trim()).unwrap();
            stats
                .get_path(&["dataset_cache", field])
                .and_then(Json::as_u64)
                .unwrap()
        };
        let (status, first) = post_job(&base, &body(&small));
        assert_eq!(status, 202, "{}", first.render());
        wait_finished(&base, first.get("id").and_then(Json::as_u64).unwrap());
        let evictions = cache("evictions");

        let (status, shed) = post_job(&base, &body(&big));
        assert_eq!(status, 429, "{}", shed.render());
        assert_eq!(
            shed.get("reason").and_then(Json::as_str),
            Some("memory_budget")
        );

        let (status, again) = post_job(&base, &body(&small));
        assert_eq!(status, 202, "{}", again.render());
        let doc = wait_finished(&base, again.get("id").and_then(Json::as_u64).unwrap());
        assert_eq!(
            doc.get_path(&["job", "cached"]).and_then(Json::as_bool),
            Some(true),
            "the admitted dataset is still cached"
        );
        assert_eq!(cache("hits"), 1);
        assert_eq!(
            cache("evictions"),
            evictions,
            "the shed dataset evicted nothing"
        );
        shut_down(daemon);
    }

    /// A dataset read by path meets the same `max_body` cap as an inline
    /// one: an over-cap file is a 413 that submits and parses nothing, a
    /// directory is a 400, and a file under the cap is admitted.
    #[test]
    fn dataset_paths_are_capped_like_inline_bodies() {
        let _scenario = failpoint::scenario();
        let dir =
            std::env::temp_dir().join(format!("tricluster-serve-bypath-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let small = table1_tsv();
        let big = dir.join("big.tsv");
        std::fs::write(&big, small.repeat(2)).unwrap();
        let fits = dir.join("table1.tsv");
        std::fs::write(&fits, &small).unwrap();
        let daemon = Daemon::start(ServeConfig {
            max_body: small.len(),
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let by_path = |path: &std::path::Path| {
            let body = Json::obj()
                .with("dataset_path", Json::Str(path.to_str().unwrap().into()))
                .with(
                    "params",
                    Json::Arr(vec![Json::Str("--eps".into()), Json::Str("0.01".into())]),
                );
            post_job(&base, &body.render())
        };
        let stat = |path: &[&str]| {
            let (_, stats) = http_get(&format!("{base}/stats")).unwrap();
            let stats = Json::parse(stats.trim()).unwrap();
            stats.get_path(path).and_then(Json::as_u64).unwrap()
        };

        let (status, body) = by_path(&big);
        assert_eq!(status, 413, "{}", body.render());
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("dataset_too_large")
        );
        let (status, body) = by_path(&dir);
        assert_eq!(status, 400, "{}", body.render());
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("bad_dataset")
        );
        assert_eq!(stat(&["counters", "submitted"]), 0);
        assert_eq!(stat(&["dataset_cache", "misses"]), 0, "nothing was parsed");

        let (status, body) = by_path(&fits);
        assert_eq!(status, 202, "{}", body.render());
        let doc = wait_finished(&base, body.get("id").and_then(Json::as_u64).unwrap());
        assert_eq!(
            doc.get_path(&["job", "state"]).and_then(Json::as_str),
            Some("done")
        );
        assert_eq!(stat(&["counters", "submitted"]), 1);
        shut_down(daemon);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Table 1 concatenated with itself repeats the label `t0`: inline or
    /// by path, the submission is a 400 `bad_dataset` that names it, and
    /// nothing is submitted.
    #[test]
    fn repeated_time_labels_are_bad_datasets() {
        let _scenario = failpoint::scenario();
        let dir =
            std::env::temp_dir().join(format!("tricluster-serve-twice-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let twice = table1_tsv().repeat(2);
        let path = dir.join("twice.tsv");
        std::fs::write(&path, &twice).unwrap();
        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        let params = Json::Arr(vec![Json::Str("--eps".into()), Json::Str("0.01".into())]);
        for body in [
            Json::obj().with("dataset", Json::Str(twice.clone())),
            Json::obj().with("dataset_path", Json::Str(path.to_str().unwrap().into())),
        ] {
            let (status, doc) = post_job(&base, &body.with("params", params.clone()).render());
            assert_eq!(status, 400, "{}", doc.render());
            assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_dataset"));
            assert!(doc.render().contains("t0"), "{}", doc.render());
        }
        let (_, stats) = http_get(&format!("{base}/stats")).unwrap();
        let stats = Json::parse(stats.trim()).unwrap();
        assert_eq!(
            stats
                .get_path(&["counters", "submitted"])
                .and_then(Json::as_u64),
            Some(0)
        );
        shut_down(daemon);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_errors_are_machine_readable() {
        let _scenario = failpoint::scenario();
        // Queue capacity zero: every submission sheds with reason queue_full.
        let daemon = Daemon::start(ServeConfig {
            queue_depth: 0,
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let (status, body) = post_job(&base, &submit_body("shed", &[]));
        assert_eq!(status, 429);
        assert_eq!(body.get("error").unwrap().as_str(), Some("rejected"));
        assert_eq!(body.get("reason").unwrap().as_str(), Some("queue_full"));
        assert!(body.get("queue_capacity").is_some());
        shut_down(daemon);

        // One-byte aggregate memory budget: parses fine, rejected on bytes.
        let daemon = Daemon::start(ServeConfig {
            memory_budget: Some(1),
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let (status, body) = post_job(&base, &submit_body("heavy", &[]));
        assert_eq!(status, 429);
        assert_eq!(body.get("reason").unwrap().as_str(), Some("memory_budget"));

        // Malformed submissions: structured 400s, daemon unaffected.
        let (status, text) =
            http_post(&format!("{base}/jobs"), "application/json", b"not json").unwrap();
        assert_eq!(status, 400);
        assert!(text.contains("bad_request"), "{text}");
        let (status, text) = http_post(
            &format!("{base}/jobs"),
            "application/json",
            b"{\"params\":[]}",
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(text.contains("dataset"), "{text}");
        let (status, text) = http_post(
            &format!("{base}/jobs"),
            "application/json",
            submit_body("bad", &["--eps", "minus-four"]).as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(text.contains("bad_params"), "{text}");
        let (status, text) = http_post(
            &format!("{base}/jobs"),
            "application/json",
            b"{\"dataset\":\"g\\ts0\\nnot-a-matrix\"}",
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(text.contains("bad_dataset"), "{text}");

        // Unknown routes and ids.
        let (status, _) = http_get(&format!("{base}/jobs/999")).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(&format!("{base}/jobs/xyz")).unwrap();
        assert_eq!(status, 400);
        let (status, _) = http_get(&format!("{base}/nope")).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_delete(&format!("{base}/jobs")).unwrap();
        assert_eq!(status, 404);
        shut_down(daemon);
    }

    #[test]
    fn tenant_quotas_clamp_and_over_quota_jobs_fail_structurally() {
        let _scenario = failpoint::scenario();
        let daemon = Daemon::start(ServeConfig {
            caps: TenantCaps {
                max_candidates: Some(100),
                ..TenantCaps::unlimited()
            },
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        // Requesting more than the server-wide cap: admitted, but clamped.
        let (status, accepted) = post_job(
            &base,
            &submit_body("greedy", &["--max-candidates", "999999"]),
        );
        assert_eq!(status, 202);
        assert_eq!(accepted.get("clamped").unwrap().as_bool(), Some(true));
        wait_finished(&base, accepted.get("id").unwrap().as_u64().unwrap());

        // A per-job memory quota below the matrix size: the job becomes a
        // structured failed record; the daemon keeps serving.
        let (status, accepted) =
            post_job(&base, &submit_body("over-quota", &["--max-memory", "64"]));
        assert_eq!(status, 202);
        let id = accepted.get("id").unwrap().as_u64().unwrap();
        let doc = wait_finished(&base, id);
        assert_eq!(
            doc.get_path(&["job", "state"]).unwrap().as_str(),
            Some("failed")
        );
        let error = doc
            .get_path(&["job", "error"])
            .and_then(Json::as_str)
            .unwrap();
        assert!(error.contains("memory"), "{error}");
        assert!(doc.get("report").is_none());

        // Unharmed: a clean job still runs to completion.
        let (_, accepted) = post_job(&base, &submit_body("after", &[]));
        let doc = wait_finished(&base, accepted.get("id").unwrap().as_u64().unwrap());
        assert_eq!(
            doc.get_path(&["job", "state"]).unwrap().as_str(),
            Some("done")
        );
        shut_down(daemon);
    }

    #[test]
    fn cancellation_dequeues_queued_and_trips_running_jobs() {
        let _scenario = failpoint::scenario();
        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        // Hold the single worker inside job 1 long enough to observe it
        // running and to enqueue job 2 behind it.
        failpoint::configure_once("serve.job.spawn", Action::Delay(Duration::from_millis(400)));
        let (_, a1) = post_job(&base, &submit_body("running", &[]));
        let id1 = a1.get("id").unwrap().as_u64().unwrap();
        let (_, a2) = post_job(&base, &submit_body("queued", &[]));
        let id2 = a2.get("id").unwrap().as_u64().unwrap();

        // Wait until job 1 is actually running.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, text) = http_get(&format!("{base}/jobs/{id1}")).unwrap();
            let doc = Json::parse(text.trim()).unwrap();
            match doc.get_path(&["job", "state"]).and_then(Json::as_str) {
                Some("running") => break,
                Some("queued") => {
                    assert!(Instant::now() < deadline, "job 1 never started");
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => panic!("unexpected state {other:?}"),
            }
        }

        // Cancel the queued job: immediate, releases its queue slot.
        let (status, text) = http_delete(&format!("{base}/jobs/{id2}")).unwrap();
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"cancelled\""), "{text}");
        // Cancel the running job: cooperative trip.
        let (status, text) = http_delete(&format!("{base}/jobs/{id1}")).unwrap();
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"cancelling\":true"), "{text}");

        let doc = wait_finished(&base, id1);
        assert_eq!(
            doc.get_path(&["job", "state"]).unwrap().as_str(),
            Some("cancelled")
        );
        assert_eq!(
            doc.get_path(&["job", "truncation"]).unwrap().as_str(),
            Some("cancelled")
        );
        // Cancelling a finished job is a structured conflict.
        let (status, text) = http_delete(&format!("{base}/jobs/{id1}")).unwrap();
        assert_eq!(status, 409);
        assert!(text.contains("already_finished"), "{text}");

        // The worker survives to run a clean job.
        let (_, a3) = post_job(&base, &submit_body("after", &[]));
        let doc = wait_finished(&base, a3.get("id").unwrap().as_u64().unwrap());
        assert_eq!(
            doc.get_path(&["job", "state"]).unwrap().as_str(),
            Some("done")
        );
        shut_down(daemon);
    }

    /// Every terminal transition evicts: cancelling more than
    /// `KEEP_FINISHED` queued jobs, one `DELETE` at a time or all at once
    /// through a cancelling shutdown, never retains more than
    /// `KEEP_FINISHED` finished jobs. The daemon state runs without workers,
    /// so every job stays queued until it is cancelled.
    #[test]
    fn cancelled_queued_jobs_stay_within_the_retention_window() {
        let body = submit_body("queued", &[]);
        for by_shutdown in [false, true] {
            let shared = Shared::new(ServeConfig {
                queue_depth: KEEP_FINISHED + 1,
                ..test_cfg()
            })
            .unwrap();
            let ids: Vec<u64> = (0..=KEEP_FINISHED)
                .map(|_| {
                    let r = submit_job(&shared, body.as_bytes(), 0, &mut Audit::default());
                    assert_eq!(r.status, 202, "{}", r.body);
                    let doc = Json::parse(r.body.trim()).unwrap();
                    doc.get("id").and_then(Json::as_u64).unwrap()
                })
                .collect();
            if by_shutdown {
                let r = shutdown(&shared, br#"{"mode":"cancel"}"#);
                assert_eq!(r.status, 200, "{}", r.body);
            } else {
                for id in ids {
                    let r = cancel_job(&shared, id);
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            }
            let table = shared.jobs.snapshot();
            assert_eq!(table.retained, KEEP_FINISHED, "shutdown={by_shutdown}");
            assert_eq!(table.queue_depth, 0);
            assert_eq!(table.admitted_bytes, 0);
            assert_eq!(
                shared.service.counter_value(names::SV_JOBS_CANCELLED),
                KEEP_FINISHED as u64 + 1
            );
        }
    }

    /// The tentpole guarantee: every `serve.*` site, hit with every action,
    /// degrades into a well-formed response or a structured failed-job
    /// record — and the daemon then completes a clean follow-up job.
    #[test]
    fn fault_matrix_every_site_and_action_stays_contained() {
        let _scenario = failpoint::scenario();
        for &site in SERVE_FAILPOINTS {
            for action in [
                Action::Error,
                Action::Panic,
                Action::Delay(Duration::from_millis(20)),
            ] {
                let daemon = Daemon::start(test_cfg()).unwrap();
                let base = daemon.url();
                failpoint::configure_once(site, action.clone());
                let outcome = http_post(
                    &format!("{base}/jobs"),
                    "application/json",
                    submit_body("faulted", &[]).as_bytes(),
                );
                match (site, action.clone()) {
                    // Admission-path faults reject the submission itself.
                    ("serve.admission" | "serve.queue", Action::Error) => {
                        let (status, text) = outcome.unwrap();
                        assert_eq!(status, 503, "{site}: {text}");
                        assert!(text.contains("fault_injected"), "{site}: {text}");
                    }
                    ("serve.admission" | "serve.queue", Action::Panic) => {
                        // The listener's catch_unwind downgrades the panic.
                        let (status, text) = outcome.unwrap();
                        assert_eq!(status, 500, "{site}: {text}");
                        assert!(text.contains("internal"), "{site}: {text}");
                    }
                    // A job-spawn fault is the job's problem, not the
                    // daemon's: accepted, then a structured failed record.
                    ("serve.job.spawn", Action::Error | Action::Panic) => {
                        let (status, accepted) = outcome.unwrap();
                        let accepted = Json::parse(accepted.trim()).unwrap();
                        assert_eq!(status, 202, "{site}");
                        let id = accepted.get("id").unwrap().as_u64().unwrap();
                        let doc = wait_finished(&base, id);
                        assert_eq!(
                            doc.get_path(&["job", "state"]).unwrap().as_str(),
                            Some("failed"),
                            "{site}: {doc:?}"
                        );
                        let error = doc
                            .get_path(&["job", "error"])
                            .and_then(Json::as_str)
                            .unwrap();
                        assert!(error.contains("injected"), "{site}: {error}");
                    }
                    // A response-write fault loses that one response; the
                    // job itself is unaffected.
                    ("serve.response.write", Action::Error | Action::Panic) => {
                        assert!(outcome.is_err(), "{site}: {outcome:?}");
                    }
                    // Delays are slow paths, not failures.
                    (_, Action::Delay(_)) => {
                        let (status, accepted) = outcome.unwrap();
                        assert_eq!(status, 202, "{site}");
                        let accepted = Json::parse(accepted.trim()).unwrap();
                        let id = accepted.get("id").unwrap().as_u64().unwrap();
                        let doc = wait_finished(&base, id);
                        assert_eq!(
                            doc.get_path(&["job", "state"]).unwrap().as_str(),
                            Some("done"),
                            "{site}: {doc:?}"
                        );
                    }
                    other => unreachable!("unmapped matrix cell {other:?}"),
                }
                // No cross-job leakage: with the site disarmed (configured
                // once), a clean job must run to completion.
                let (status, accepted) = post_job(&base, &submit_body("clean", &[]));
                assert_eq!(status, 202, "{site}/{action:?}: daemon stopped admitting");
                let id = accepted.get("id").unwrap().as_u64().unwrap();
                let doc = wait_finished(&base, id);
                assert_eq!(
                    doc.get_path(&["job", "state"]).unwrap().as_str(),
                    Some("done"),
                    "{site}/{action:?}: {doc:?}"
                );
                shut_down(daemon);
            }
        }
    }

    /// A job mined through the daemon must reproduce the one-shot `mine`
    /// report byte-for-byte across every deterministic section
    /// (`runreport::determinism_diff`).
    #[test]
    fn serve_reports_match_one_shot_mine_sections() {
        let _scenario = failpoint::scenario();
        let dir = std::env::temp_dir().join(format!("tricluster-serve-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("table1.tsv");
        std::fs::write(&data, table1_tsv()).unwrap();
        let oneshot_path = dir.join("oneshot.json");
        crate::mine::mine(&[
            data.to_str().unwrap().to_string(),
            "--report-json".into(),
            oneshot_path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        let oneshot = Json::parse(std::fs::read_to_string(&oneshot_path).unwrap().trim()).unwrap();

        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        let (status, accepted) = post_job(&base, &submit_body("det", &[]));
        assert_eq!(status, 202);
        let doc = wait_finished(&base, accepted.get("id").unwrap().as_u64().unwrap());
        let served = doc.get("report").unwrap();

        for section in runreport::DETERMINISTIC_SECTIONS {
            assert!(
                oneshot.get_path(section).is_some(),
                "one-shot report lacks section {section:?}"
            );
        }
        assert_eq!(
            runreport::determinism_diff(&oneshot, served),
            Ok(vec![]),
            "sections diverge between serve and mine"
        );
        shut_down(daemon);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_finishes_queued_jobs_and_flushes_the_ledger() {
        let _scenario = failpoint::scenario();
        let dir =
            std::env::temp_dir().join(format!("tricluster-serve-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let daemon = Daemon::start(ServeConfig {
            ledger_dir: Some(dir.to_str().unwrap().to_string()),
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let (_, a1) = post_job(&base, &submit_body("one", &[]));
        let (_, a2) = post_job(&base, &submit_body("two", &[]));
        assert!(a1.get("id").is_some() && a2.get("id").is_some());
        // Drain immediately: both jobs (likely one queued) must still
        // complete and be archived before the daemon exits.
        let (status, text) = http_post(
            &format!("{base}/shutdown"),
            "application/json",
            b"{\"mode\":\"drain\"}",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(text.contains("\"draining\":true"), "{text}");
        // New submissions are shed while draining.
        let (status, text) = http_post(&format!("{base}/jobs"), "application/json", b"{}").unwrap();
        assert_eq!(status, 503, "{text}");
        assert!(text.contains("draining"), "{text}");
        daemon.wait();
        let ledger = Ledger::open(&dir).unwrap();
        let entries = ledger.list().unwrap();
        assert_eq!(entries.len(), 2, "drain must flush every completed job");
        assert!(entries.iter().all(|e| e.kind == "serve"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One float sample from an OpenMetrics text body, by exact name.
    fn metric_value(text: &str, name: &str) -> Option<f64> {
        text.lines().find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
        })
    }

    /// Scrapes `/metrics` until `name` reaches `want` (counters bump just
    /// after the job's state flips, so one fetch could race).
    fn wait_metric(base: &str, name: &str, want: f64) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, text) = http_get(&format!("{base}/metrics")).unwrap();
            assert_eq!(status, 200, "{text}");
            if metric_value(&text, name) == Some(want) {
                return text;
            }
            assert!(
                Instant::now() < deadline,
                "{name} never reached {want}:\n{text}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The tentpole surface: daemon-lifetime metrics accumulate across
    /// jobs and expose counters, latency histograms, and cache gauges.
    #[test]
    fn metrics_endpoint_aggregates_across_jobs() {
        let _scenario = failpoint::scenario();
        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        for label in ["first", "second"] {
            let (status, accepted) = post_job(&base, &submit_body(label, &[]));
            assert_eq!(status, 202);
            wait_finished(&base, accepted.get("id").unwrap().as_u64().unwrap());
        }
        let text = wait_metric(&base, "tricluster_serve_jobs_completed_total", 2.0);
        assert_eq!(text.lines().last(), Some("# EOF"));
        assert_eq!(
            metric_value(&text, "tricluster_serve_jobs_accepted_total"),
            Some(2.0),
            "{text}"
        );
        // Never-touched counters stay out of the exposition entirely.
        assert_eq!(
            metric_value(&text, "tricluster_serve_jobs_failed_total").unwrap_or(0.0),
            0.0
        );
        assert_eq!(
            metric_value(&text, "tricluster_serve_job_queue_wait_seconds_count"),
            Some(2.0)
        );
        assert_eq!(
            metric_value(&text, "tricluster_serve_job_run_seconds_count"),
            Some(2.0)
        );
        // Identical submissions: the second parse must have hit the cache.
        assert!(
            metric_value(&text, "tricluster_serve_cache_hits").unwrap() >= 1.0,
            "{text}"
        );
        assert!(metric_value(&text, "tricluster_serve_cache_misses").unwrap() >= 1.0);
        assert_eq!(
            metric_value(&text, "tricluster_serve_queue_depth"),
            Some(0.0)
        );
        assert_eq!(
            metric_value(&text, "tricluster_serve_workers_busy"),
            Some(0.0)
        );
        assert_eq!(
            metric_value(&text, "tricluster_serve_jobs_retained"),
            Some(2.0)
        );
        assert!(metric_value(&text, "tricluster_serve_http_requests_total").unwrap() >= 4.0);
        // The run histogram is cumulative: its +Inf bucket equals _count.
        assert!(
            text.contains("tricluster_serve_job_run_seconds_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        shut_down(daemon);
    }

    /// Satellite e2e: with a Delay failpoint holding the single worker
    /// inside job 1, job 2's time on the queue must land in the
    /// queue-wait histogram.
    #[test]
    fn queue_wait_histogram_grows_when_the_queue_backs_up() {
        let _scenario = failpoint::scenario();
        failpoint::configure_once("serve.job.spawn", Action::Delay(Duration::from_millis(300)));
        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        let (_, a1) = post_job(&base, &submit_body("held", &[]));
        let (_, a2) = post_job(&base, &submit_body("waiting", &[]));
        wait_finished(&base, a1.get("id").unwrap().as_u64().unwrap());
        wait_finished(&base, a2.get("id").unwrap().as_u64().unwrap());
        let text = wait_metric(&base, "tricluster_serve_job_queue_wait_seconds_count", 2.0);
        let sum = metric_value(&text, "tricluster_serve_job_queue_wait_seconds_sum").unwrap();
        assert!(
            sum >= 0.25,
            "job 2 queued behind a 300ms delay, yet queue-wait sum is {sum}s:\n{text}"
        );
        shut_down(daemon);
    }

    /// One request ID ties the whole submission together: the 202 body,
    /// the job summary, the report's `serve` section, the ledger index
    /// entry, the archived Chrome trace, and the access-log record.
    #[test]
    fn request_ids_thread_through_report_ledger_trace_and_access_log() {
        let _scenario = failpoint::scenario();
        let dir = std::env::temp_dir().join(format!("tricluster-serve-rid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let access = dir.join("access.jsonl");
        let daemon = Daemon::start(ServeConfig {
            ledger_dir: Some(dir.to_str().unwrap().to_string()),
            access_log: Some(access.to_str().unwrap().to_string()),
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let (status, accepted) = post_job(&base, &submit_body("audited", &[]));
        assert_eq!(status, 202);
        let id = accepted.get("id").unwrap().as_u64().unwrap();
        let rid = accepted
            .get("request_id")
            .expect("acceptance carries the request id")
            .as_u64()
            .unwrap();
        assert!(rid >= 1);

        let doc = wait_finished(&base, id);
        assert_eq!(
            doc.get_path(&["job", "request_id"]).and_then(Json::as_u64),
            Some(rid)
        );
        assert_eq!(
            doc.get_path(&["report", "serve", "request_id"])
                .and_then(Json::as_u64),
            Some(rid),
            "report carries its originating request id"
        );
        assert_eq!(
            doc.get_path(&["report", "serve", "job_id"])
                .and_then(Json::as_u64),
            Some(id)
        );
        shut_down(daemon);

        // Ledger: the index entry lifts the id; the trace carries it plus
        // the lifecycle instants (queue wait is visible on the trace).
        let ledger = Ledger::open(&dir).unwrap();
        let entries = ledger.list().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].request_id, Some(rid));
        let trace_path = ledger.trace_path(&entries[0].id);
        assert!(trace_path.is_file(), "served jobs archive their trace");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains(&format!("\"request_id\":{rid}")), "{trace}");
        for instant in [
            "serve.job.enqueued",
            "serve.job.started",
            "serve.job.finished",
        ] {
            assert!(trace.contains(instant), "trace lacks {instant}");
        }
        // Every pipeline stage is on the job's timeline, the metrics too.
        assert!(
            trace.contains(&format!("\"name\":\"{}\"", names::SPAN_METRICS)),
            "trace lacks the metrics stage: {trace}"
        );

        // Access log: one whole-line JSON record per request; the
        // submission's record carries the same id, the job id, and the
        // clamp verdict.
        let log = std::fs::read_to_string(&access).unwrap();
        let submit_record = log
            .lines()
            .map(|l| Json::parse(l).expect("access log lines are JSON"))
            .find(|r| r.get("request_id").and_then(Json::as_u64) == Some(rid))
            .expect("submission request logged");
        assert_eq!(
            submit_record.get("method").and_then(Json::as_str),
            Some("POST")
        );
        assert_eq!(
            submit_record.get("path").and_then(Json::as_str),
            Some("/jobs")
        );
        assert_eq!(
            submit_record.get("status").and_then(Json::as_u64),
            Some(202)
        );
        assert_eq!(submit_record.get("job_id").and_then(Json::as_u64), Some(id));
        assert_eq!(
            submit_record.get("clamped").and_then(Json::as_bool),
            Some(false)
        );
        assert!(submit_record.get("duration_secs").is_some());
        assert!(
            log.lines().count() >= 2,
            "status polls must be audited too:\n{log}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `--deadline` no `Duration` holds is a 400 `bad_params` with an
    /// access-log record, not a panic on the connection thread; one past
    /// the clock's range is admitted and runs as if unbounded.
    #[test]
    fn huge_deadlines_are_rejected_or_never_fire() {
        let _scenario = failpoint::scenario();
        let dir =
            std::env::temp_dir().join(format!("tricluster-serve-deadline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let access = dir.join("access.jsonl");
        let daemon = Daemon::start(ServeConfig {
            access_log: Some(access.to_str().unwrap().to_string()),
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let (status, body) = post_job(&base, &submit_body("huge", &["--deadline", "1e30"]));
        assert_eq!(status, 400, "{}", body.render());
        assert_eq!(body.get("error").and_then(Json::as_str), Some("bad_params"));

        let (status, accepted) = post_job(&base, &submit_body("far", &["--deadline", "1e19"]));
        assert_eq!(status, 202);
        let doc = wait_finished(&base, accepted.get("id").unwrap().as_u64().unwrap());
        assert_eq!(
            doc.get_path(&["job", "state"]).and_then(Json::as_str),
            Some("done"),
            "{}",
            doc.render()
        );
        assert!(doc.get_path(&["job", "truncation"]).is_none());
        shut_down(daemon);

        let log = std::fs::read_to_string(&access).unwrap();
        let statuses: Vec<u64> = log
            .lines()
            .map(|l| Json::parse(l).expect("access log lines are JSON"))
            .filter(|r| r.get("method").and_then(Json::as_str) == Some("POST"))
            .filter_map(|r| r.get("status").and_then(Json::as_u64))
            .collect();
        assert_eq!(statuses[..2], [400, 202], "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancel_shutdown_aborts_queued_jobs_quickly() {
        let _scenario = failpoint::scenario();
        // Hold the worker so the second job stays queued at shutdown time.
        failpoint::configure_once("serve.job.spawn", Action::Delay(Duration::from_millis(300)));
        let daemon = Daemon::start(test_cfg()).unwrap();
        let base = daemon.url();
        post_job(&base, &submit_body("running", &[]));
        post_job(&base, &submit_body("queued", &[]));
        let started = Instant::now();
        let (status, _) = http_post(
            &format!("{base}/shutdown"),
            "application/json",
            b"{\"mode\":\"cancel\"}",
        )
        .unwrap();
        assert_eq!(status, 200);
        daemon.wait();
        // The queued job was dropped, the running one tripped: the drain
        // must not serialize two full delays.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancel-mode shutdown took {:?}",
            started.elapsed()
        );
    }

    /// `/stats`, `/jobs` and `/metrics` show the same daemon: wherever two
    /// of them report the same number they agree, while a job runs and
    /// after it finished, and their key sets stay put. The sequence, on one
    /// worker with room for one queued job and one cached dataset: a held
    /// job runs, a second job (other bytes, so it evicts the first
    /// dataset) is queued and then cancelled, and a third is shed with
    /// `queue_full`.
    #[test]
    fn stats_jobs_and_metrics_views_agree() {
        let _scenario = failpoint::scenario();
        failpoint::configure_once(
            "serve.job.spawn",
            Action::Delay(Duration::from_millis(2000)),
        );
        let daemon = Daemon::start(ServeConfig {
            queue_depth: 1,
            cache_entries: 1,
            ..test_cfg()
        })
        .unwrap();
        let base = daemon.url();
        let id = |accepted: &Json| accepted.get("id").and_then(Json::as_u64).unwrap();
        let (status, held) = post_job(&base, &submit_body("held", &[]));
        assert_eq!(status, 202, "{}", held.render());
        let held = id(&held);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, text) = http_get(&format!("{base}/jobs/{held}")).unwrap();
            let doc = Json::parse(text.trim()).unwrap();
            if doc.get_path(&["job", "state"]).and_then(Json::as_str) == Some("running") {
                break;
            }
            assert!(Instant::now() < deadline, "the held job never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        let other = Json::obj()
            .with("label", Json::Str("queued".into()))
            .with("dataset", Json::Str(format!("preamble\n{}", table1_tsv())))
            .render();
        let (status, queued) = post_job(&base, &other);
        assert_eq!(status, 202, "{}", queued.render());
        let (status, shed) = post_job(&base, &submit_body("shed", &[]));
        assert_eq!(status, 429, "{}", shed.render());
        assert_eq!(
            shed.get("reason").and_then(Json::as_str),
            Some("queue_full")
        );
        let (status, text) = http_delete(&format!("{base}/jobs/{}", id(&queued))).unwrap();
        assert_eq!(status, 200, "{text}");

        let views = || {
            let get = |path: &str| {
                let (status, text) = http_get(&format!("{base}{path}")).unwrap();
                assert_eq!(status, 200, "{path}: {text}");
                text
            };
            let stats = Json::parse(get("/stats").trim()).unwrap();
            let jobs = Json::parse(get("/jobs").trim()).unwrap();
            (stats, jobs, get("/metrics"))
        };
        // Each number as every view that carries it reports it; the
        // exposition leaves never-touched counters out, which reads as 0.
        let numbers = |(stats, jobs, metrics): &(Json, Json, String)| {
            let s = |path: &[&str]| stats.get_path(path).and_then(Json::as_u64).unwrap();
            let j = |path: &[&str]| jobs.get_path(path).and_then(Json::as_u64).unwrap();
            let m = |name: &str| metric_value(metrics, name).unwrap_or(0.0) as u64;
            [
                (
                    "accepted",
                    vec![
                        s(&["counters", "submitted"]),
                        j(&["service", "accepted"]),
                        m("tricluster_serve_jobs_accepted_total"),
                    ],
                ),
                (
                    "completed",
                    vec![
                        s(&["counters", "completed"]),
                        j(&["service", "completed"]),
                        m("tricluster_serve_jobs_completed_total"),
                    ],
                ),
                (
                    "cancelled",
                    vec![
                        s(&["counters", "cancelled"]),
                        j(&["service", "cancelled"]),
                        m("tricluster_serve_jobs_cancelled_total"),
                    ],
                ),
                (
                    "queue_full",
                    vec![
                        s(&["counters", "rejected_queue"]),
                        m("tricluster_serve_jobs_rejected_queue_full_total"),
                    ],
                ),
                (
                    "queue_depth",
                    vec![
                        s(&["queue_depth"]),
                        j(&["service", "queue_depth"]),
                        m("tricluster_serve_queue_depth"),
                    ],
                ),
                (
                    "running",
                    vec![
                        s(&["running"]),
                        j(&["service", "running"]),
                        m("tricluster_serve_workers_busy"),
                    ],
                ),
                (
                    "cache_hits",
                    vec![
                        s(&["dataset_cache", "hits"]),
                        j(&["dataset_cache", "hits"]),
                        m("tricluster_serve_cache_hits"),
                    ],
                ),
                (
                    "cache_misses",
                    vec![
                        s(&["dataset_cache", "misses"]),
                        j(&["dataset_cache", "misses"]),
                        m("tricluster_serve_cache_misses"),
                    ],
                ),
                (
                    "cache_evictions",
                    vec![
                        s(&["dataset_cache", "evictions"]),
                        j(&["dataset_cache", "evictions"]),
                        m("tricluster_serve_cache_evictions"),
                    ],
                ),
            ]
            .map(|(what, values)| {
                assert!(
                    values.iter().all(|&v| v == values[0]),
                    "views disagree on {what}: {values:?}"
                );
                (what, values[0])
            })
        };
        let want = |running, completed| {
            [
                ("accepted", 2),
                ("completed", completed),
                ("cancelled", 1),
                ("queue_full", 1),
                ("queue_depth", 0),
                ("running", running),
                ("cache_hits", 0),
                ("cache_misses", 2),
                ("cache_evictions", 1),
            ]
        };
        assert_eq!(numbers(&views()), want(1, 0), "while the held job runs");
        wait_finished(&base, held);
        wait_metric(&base, "tricluster_serve_jobs_completed_total", 1.0);
        let (stats, jobs, metrics) = views();
        // A job's live gauges stay in its own registry: the daemon's
        // exposition has no progress, budget or heap family.
        for family in [
            "tricluster_progress_",
            "tricluster_budget_",
            "tricluster_alloc_",
        ] {
            assert!(!metrics.contains(family), "{family} in {metrics}");
        }
        let keys = |doc: &Json, path: &[&str]| -> Vec<String> {
            let obj = if path.is_empty() {
                Some(doc)
            } else {
                doc.get_path(path)
            };
            obj.and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(
            keys(&stats, &[]),
            [
                "queue_depth",
                "queue_capacity",
                "running",
                "workers",
                "admitted_bytes",
                "memory_budget",
                "draining",
                "dataset_cache",
                "counters"
            ]
        );
        assert_eq!(
            keys(&stats, &["dataset_cache"]),
            ["hits", "misses", "evictions", "entries"]
        );
        assert_eq!(
            keys(&stats, &["counters"]),
            [
                "submitted",
                "rejected_queue",
                "rejected_memory",
                "clamped",
                "completed",
                "failed",
                "cancelled",
                "http_requests"
            ]
        );
        assert_eq!(keys(&jobs, &[]), ["jobs", "service", "dataset_cache"]);
        assert_eq!(
            keys(&jobs, &["service"]),
            [
                "accepted",
                "completed",
                "failed",
                "cancelled",
                "queue_depth",
                "running"
            ]
        );
        assert_eq!(
            keys(&jobs, &["dataset_cache"]),
            ["hits", "misses", "evictions"]
        );
        let families: Vec<&str> = metrics
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE tricluster_serve_"))
            .collect();
        assert_eq!(
            families,
            [
                "http_requests counter",
                "jobs_accepted counter",
                "jobs_cancelled counter",
                "jobs_completed counter",
                "jobs_rejected_queue_full counter",
                "job_queue_wait_seconds histogram",
                "job_run_seconds histogram",
                "queue_depth gauge",
                "admitted_bytes gauge",
                "workers_busy gauge",
                "jobs_retained gauge",
                "cache_hits gauge",
                "cache_misses gauge",
                "cache_evictions gauge"
            ],
            "{metrics}"
        );
        assert_eq!(
            numbers(&(stats, jobs, metrics)),
            want(0, 1),
            "after the held job finished"
        );
        shut_down(daemon);
    }
}
