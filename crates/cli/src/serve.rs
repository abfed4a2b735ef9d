//! The `tricluster serve` daemon and its `submit` client.
//!
//! `serve` turns the one-shot miner into a long-lived multi-tenant
//! service on top of [`Engine`]/[`Session`] (core) and [`HttpServer`]
//! (obs). The headline property is robustness: no single job — oversized
//! matrix, panicking worker, blown budget, vanished client — can take
//! down or contaminate the others.
//!
//! # Endpoints
//!
//! | endpoint | effect |
//! |---|---|
//! | `POST /jobs` | submit a job (JSON body, dataset inline or by path) |
//! | `GET /jobs` | list all retained jobs |
//! | `GET /jobs/<id>` | one job's status, live progress, final report |
//! | `DELETE /jobs/<id>` | cancel (dequeue if queued, trip mid-flight if running) |
//! | `GET /stats` | queue depth, admitted bytes, dataset-cache hits, counters |
//! | `GET /metrics` | daemon-lifetime OpenMetrics exposition (see below) |
//! | `GET /healthz` | liveness |
//! | `POST /shutdown` | graceful drain (`{"mode":"drain"}`) or cancel-all |
//!
//! # Observability
//!
//! A process-lifetime metrics [`Registry`] accumulates job-lifecycle
//! counters (accepted / rejected / clamped / completed / failed /
//! cancelled) and queue-wait vs. run vs. archive latency spans.
//! `GET /metrics` renders them with live gauges sampled at scrape time
//! (queue depth, admitted bytes, busy workers, retained jobs,
//! dataset-cache hits/misses/evictions). Every HTTP request gets a
//! monotonic request ID; with `--access-log PATH` each request is
//! appended as one JSONL audit record (method, path, status, bytes,
//! duration, clamp verdict, shed reason).
//! The submission's request ID is threaded into the job record, its
//! report (a `serve` section, outside the deterministic sections), its
//! ledger entry, and its Chrome trace — which also carries the job's
//! enqueued/started/finished lifecycle instants, so queue wait is visible
//! on the trace. None of this feeds back into mining: a served job's
//! deterministic report sections stay byte-identical to a one-shot
//! `mine`.
//!
//! # Admission control
//!
//! A submission is rejected with a machine-readable JSON body when the
//! daemon is draining (503 `"draining"`), the bounded queue is full
//! (429 `"queue_full"`), or admitting the parsed matrix would exceed the
//! server-wide `--memory-budget` (429 `"memory_budget"`). Tenant budget
//! requests (deadline / max-memory / max-candidates / threads) are
//! clamped against the server's `--cap-*` ceilings; the response says so
//! (`"clamped": true`).
//!
//! # Isolation
//!
//! Every job runs behind its own `catch_unwind` (on top of the miner's
//! internal worker isolation): a panicking job becomes a structured
//! `"failed"` record and the worker thread moves on to the next job. The
//! HTTP layer adds its own isolation (handler panics → 500). The
//! `serve.*` failpoint sites ([`SERVE_FAILPOINTS`]) inject faults at the
//! admission decision, the enqueue step, the job spawn, and the response
//! write; the fault-injection suite proves each degrades into a
//! well-formed response without crossing job boundaries.

use crate::args;
use crate::commands::{mine_params_from, parse_bytes, CliError};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tricluster_core::obs::httpd::{
    http_get_retry, http_post, Handler, HttpServer, Request, Response,
};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, Ledger, NewEntry};
use tricluster_core::obs::metrics::Registry;
use tricluster_core::obs::names;
use tricluster_core::obs::progress::{Progress, ProgressSink};
use tricluster_core::obs::timeline::{self, Timeline};
use tricluster_core::obs::{EventSink, Fanout};
use tricluster_core::{Dataset, Engine, Reported, Session, TenantCaps};

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

/// How many finished (done/failed/cancelled) jobs the daemon retains for
/// `GET /jobs/<id>` before evicting the oldest.
const KEEP_FINISHED: usize = 64;

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
    /// Largest accepted request body (inline datasets).
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

/// How `POST /shutdown` treats in-flight jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShutdownMode {
    /// Stop admitting, finish queued + running jobs, then exit.
    Drain,
    /// Stop admitting, cancel queued + running jobs, then exit.
    Cancel,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_finished(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// What a finished job left behind.
struct Outcome {
    clusters: usize,
    truncation: Option<String>,
    error: Option<String>,
    secs: f64,
    report: Option<Json>,
}

/// One tenant job, from admission to retention.
struct Job {
    id: u64,
    /// Request ID of the submission that admitted this job.
    request_id: u64,
    label: String,
    dataset_hash: String,
    matrix_bytes: u64,
    cached: bool,
    clamped: bool,
    state: JobState,
    cancelling: bool,
    /// The clamped run built at admission; cancelling it trips the job.
    session: Arc<Session>,
    progress: Arc<Progress>,
    /// Lifecycle instants (enqueued/started/finished/cancelled) plus the
    /// miner's own spans; archived as the job's Chrome trace.
    timeline: Arc<Timeline>,
    // Held only while queued/running; dropped with the job's completion
    // so finished jobs stop pinning their matrices.
    dataset: Option<Arc<Dataset>>,
    submitted: Instant,
    outcome: Option<Outcome>,
}

impl Job {
    /// Listing summary (no report body).
    fn summary_json(&self) -> Json {
        let mut j = Json::obj()
            .with("id", Json::U64(self.id))
            .with("request_id", Json::U64(self.request_id))
            .with("label", Json::Str(self.label.clone()))
            .with("state", Json::Str(self.state.as_str().into()))
            .with("dataset_hash", Json::Str(self.dataset_hash.clone()))
            .with("matrix_bytes", Json::U64(self.matrix_bytes))
            .with("cached", Json::Bool(self.cached))
            .with("clamped", Json::Bool(self.clamped))
            .with(
                "age_secs",
                Json::F64(self.submitted.elapsed().as_secs_f64()),
            );
        if self.cancelling && !self.state.is_finished() {
            j = j.with("cancelling", Json::Bool(true));
        }
        if let Some(outcome) = &self.outcome {
            j = j.with("secs", Json::F64(outcome.secs));
            if let Some(err) = &outcome.error {
                j = j.with("error", Json::Str(err.clone()));
            } else {
                j = j.with("clusters", Json::U64(outcome.clusters as u64));
            }
            if let Some(reason) = &outcome.truncation {
                j = j.with("truncation", Json::Str(reason.clone()));
            }
        }
        j
    }
}

/// Mutable daemon state, all under one lock.
struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    admitted_bytes: u64,
    draining: Option<ShutdownMode>,
}

struct Shared {
    cfg: ServeConfig,
    engine: Engine,
    // `Ledger::archive` reads the index to sequence ids, so concurrent
    // archives must serialize.
    ledger: Option<Mutex<Ledger>>,
    state: Mutex<State>,
    /// Daemon-lifetime counters and latency histograms (`GET /metrics`).
    /// Its locks are leaves: never take `state` while holding them.
    service: Registry,
    /// Monotonic per-request IDs, assigned before routing.
    next_request_id: AtomicU64,
    /// JSONL audit sink (`--access-log`); whole-line single writes.
    access_log: Option<Mutex<std::fs::File>>,
    /// Wakes workers (new job, or drain requested).
    work: Condvar,
    /// Wakes the main thread (shutdown requested).
    shutdown: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
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
        let ledger = match &cfg.ledger_dir {
            Some(dir) => {
                Some(Mutex::new(Ledger::open(dir).map_err(|e| {
                    CliError::Run(format!("cannot open ledger {dir}: {e}"))
                })?))
            }
            None => None,
        };
        let access_log = match &cfg.access_log {
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| CliError::Run(format!("cannot open access log {path}: {e}")))?;
                Some(Mutex::new(file))
            }
            None => None,
        };
        let engine = Engine::with_cache_entries(cfg.caps.clone(), cfg.cache_entries);
        let addr = cfg.addr.clone();
        let max_body = cfg.max_body;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            engine,
            ledger,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                next_id: 1,
                admitted_bytes: 0,
                draining: None,
            }),
            service: Registry::new(),
            next_request_id: AtomicU64::new(1),
            access_log,
            work: Condvar::new(),
            shutdown: Condvar::new(),
        });
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
        {
            let mut state = self.shared.lock();
            while state.draining.is_none() {
                state = self
                    .shared
                    .shutdown
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.server.take(); // drop: stop accepting, join the accept thread
    }
}

/// One mining worker: pull, run isolated, record, repeat. Exits once the
/// daemon drains and the queue is empty.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (id, request_id, dataset, session, progress, tl, queue_wait) = {
            let mut state = shared.lock();
            loop {
                if let Some(&id) = state.queue.front() {
                    state.queue.pop_front();
                    let job = state.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    let dataset = job.dataset.clone().expect("queued job holds its dataset");
                    break (
                        id,
                        job.request_id,
                        dataset,
                        job.session.clone(),
                        job.progress.clone(),
                        job.timeline.clone(),
                        job.submitted.elapsed(),
                    );
                }
                if state.draining.is_some() {
                    return;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared.service.span(names::SV_QUEUE_WAIT, queue_wait);
        let started = Instant::now();
        // Per-job isolation: a panic anywhere in this job (including one
        // escaping the miner's own boundaries) is downgraded to a failed
        // record; the worker and every other job are untouched.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, id, request_id, &tl, &dataset, &session, &progress)
        }))
        .unwrap_or_else(|payload| Err(FailedJob::Panic(payload)));
        shared.service.span(names::SV_RUN, started.elapsed());
        let outcome = match ran {
            Ok((clusters, truncation, report)) => Outcome {
                clusters,
                truncation,
                error: None,
                secs: started.elapsed().as_secs_f64(),
                report: Some(report),
            },
            Err(message) => Outcome {
                clusters: 0,
                truncation: None,
                error: Some(match message {
                    FailedJob::Message(m) => m,
                    FailedJob::Panic(payload) => format!(
                        "job panicked: {}",
                        payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into())
                    ),
                }),
                secs: started.elapsed().as_secs_f64(),
                report: None,
            },
        };
        finish_job(shared, id, outcome);
    }
}

/// Why a job produced no result.
enum FailedJob {
    Message(String),
    Panic(Box<dyn std::any::Any + Send>),
}

/// Runs one admitted job end to end through [`Session::run_report`] — the
/// same call a one-shot `mine` makes — with the progress gauges and the
/// job's timeline as the sink, so the deterministic report sections are
/// byte-identical to a one-shot run over the same dataset and params.
fn run_job(
    shared: &Arc<Shared>,
    id: u64,
    request_id: u64,
    tl: &Arc<Timeline>,
    dataset: &Dataset,
    session: &Session,
    progress: &Arc<Progress>,
) -> Result<(usize, Option<String>, Json), FailedJob> {
    if let Some(msg) = tricluster_failpoint::trigger("serve.job.spawn") {
        return Err(FailedJob::Message(msg));
    }
    let att = tl.attach("serve-worker");
    timeline::instant(names::T_SV_STARTED);
    let progress_sink = ProgressSink(progress.clone());
    let sink = Fanout(vec![&progress_sink as &dyn EventSink, tl.as_ref()]);
    let Reported { result, doc, .. } = session
        .run_report(&dataset.matrix, &sink)
        .map_err(|e| FailedJob::Message(e.to_string()))?;
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
            .with("request_id", Json::U64(request_id))
            .with("job_id", Json::U64(id)),
    );
    if let Some(ledger) = &shared.ledger {
        // Eager per-job flush: by the time a drain finishes joining the
        // workers, every completed job is already on disk.
        let archive_started = Instant::now();
        let trace = tl
            .to_chrome_json()
            .with("request_id", Json::U64(request_id))
            .render();
        let entry = NewEntry {
            kind: "serve",
            label: Some(dataset.hash.clone()),
            dataset_hash: dataset.hash.clone(),
            params_hash: content_hash(format!("{:?}", session.params()).as_bytes()),
            report: &doc,
            trace: Some(&trace),
            flame: None,
        };
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
    Ok((
        result.triclusters.len(),
        result.truncation.map(|r| r.as_str().to_owned()),
        doc,
    ))
}

/// Records a finished job: state, counters, retention, memory release.
fn finish_job(shared: &Arc<Shared>, id: u64, outcome: Outcome) {
    let mut state = shared.lock();
    let job = state.jobs.get_mut(&id).expect("running job exists");
    job.state = if outcome.error.is_some() {
        JobState::Failed
    } else if outcome.truncation.as_deref() == Some("cancelled") {
        JobState::Cancelled
    } else {
        JobState::Done
    };
    let released = job.matrix_bytes;
    let finished = job.state;
    job.dataset = None;
    job.outcome = Some(outcome);
    state.admitted_bytes = state.admitted_bytes.saturating_sub(released);
    evict_finished(&mut state);
    drop(state);
    let finished_counter = match finished {
        JobState::Failed => names::SV_JOBS_FAILED,
        JobState::Cancelled => names::SV_JOBS_CANCELLED,
        _ => names::SV_JOBS_COMPLETED,
    };
    shared.service.counter(finished_counter, 1);
    // A worker slot freed; drain waiters and peers may care.
    shared.work.notify_all();
    shared.shutdown.notify_all();
}

/// Drops the oldest finished jobs beyond the retention window. Queued and
/// running jobs are never evicted.
fn evict_finished(state: &mut State) {
    let finished: Vec<u64> = state
        .jobs
        .values()
        .filter(|j| j.state.is_finished())
        .map(|j| j.id)
        .collect();
    if finished.len() > KEEP_FINISHED {
        for id in &finished[..finished.len() - KEEP_FINISHED] {
            state.jobs.remove(id);
        }
    }
}

/// Per-request audit context, filled in by the routing layer and emitted
/// as part of the access-log record.
#[derive(Default)]
struct Audit {
    /// The job this request created or addressed.
    job_id: Option<u64>,
    /// Tenant-clamp verdict of a submission.
    clamped: Option<bool>,
    /// Why a submission was shed (`draining` / `queue_full` /
    /// `memory_budget`).
    shed_reason: Option<&'static str>,
}

/// Entry point for one HTTP request: assigns the monotonic request ID,
/// routes, then emits the audit record. Runs on a connection thread
/// behind the listener's own `catch_unwind`.
fn handle_request(shared: &Arc<Shared>, req: Request) -> Response {
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
fn route(shared: &Arc<Shared>, req: &Request, request_id: u64, audit: &mut Audit) -> Response {
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
fn error_response(status: u16, code: &str, detail: &str) -> Response {
    let body = Json::obj()
        .with("error", Json::Str(code.into()))
        .with("detail", Json::Str(detail.into()));
    Response::json(status, body.render() + "\n")
}

fn stats_response(shared: &Arc<Shared>) -> Response {
    let (hits, misses, evictions) = shared.engine.cache_stats();
    let svc = &shared.service;
    let counters = Json::obj()
        .with(
            "submitted",
            Json::U64(svc.counter_value(names::SV_JOBS_ACCEPTED)),
        )
        .with(
            "rejected_queue",
            Json::U64(svc.counter_value(names::SV_JOBS_REJECTED_QUEUE_FULL)),
        )
        .with(
            "rejected_memory",
            Json::U64(svc.counter_value(names::SV_JOBS_REJECTED_MEMORY)),
        )
        .with(
            "clamped",
            Json::U64(svc.counter_value(names::SV_JOBS_CLAMPED)),
        )
        .with(
            "completed",
            Json::U64(svc.counter_value(names::SV_JOBS_COMPLETED)),
        )
        .with(
            "failed",
            Json::U64(svc.counter_value(names::SV_JOBS_FAILED)),
        )
        .with(
            "cancelled",
            Json::U64(svc.counter_value(names::SV_JOBS_CANCELLED)),
        )
        .with(
            "http_requests",
            Json::U64(svc.counter_value(names::SV_HTTP_REQUESTS)),
        );
    let state = shared.lock();
    let running = state
        .jobs
        .values()
        .filter(|j| j.state == JobState::Running)
        .count();
    let body = Json::obj()
        .with("queue_depth", Json::U64(state.queue.len() as u64))
        .with("queue_capacity", Json::U64(shared.cfg.queue_depth as u64))
        .with("running", Json::U64(running as u64))
        .with("workers", Json::U64(shared.cfg.workers as u64))
        .with("admitted_bytes", Json::U64(state.admitted_bytes))
        .with(
            "memory_budget",
            match shared.cfg.memory_budget {
                Some(b) => Json::U64(b),
                None => Json::Null,
            },
        )
        .with("draining", Json::Bool(state.draining.is_some()))
        .with(
            "dataset_cache",
            Json::obj()
                .with("hits", Json::U64(hits))
                .with("misses", Json::U64(misses))
                .with("evictions", Json::U64(evictions))
                .with("entries", Json::U64(shared.engine.cached_datasets() as u64)),
        )
        .with("counters", counters);
    Response::json(200, body.render_pretty() + "\n")
}

/// `GET /metrics`: the daemon-lifetime OpenMetrics exposition. Counters
/// and latency histograms come from the daemon's [`Registry`]; gauges are
/// sampled here, under the daemon lock, at scrape time.
fn metrics_response(shared: &Arc<Shared>) -> Response {
    let (hits, misses, evictions) = shared.engine.cache_stats();
    let (queue_depth, admitted_bytes, running, retained) = {
        let state = shared.lock();
        let running = state
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count();
        let retained = state
            .jobs
            .values()
            .filter(|j| j.state.is_finished())
            .count();
        (state.queue.len(), state.admitted_bytes, running, retained)
    };
    let gauges = [
        (names::SV_QUEUE_DEPTH, queue_depth as f64),
        (names::SV_ADMITTED_BYTES, admitted_bytes as f64),
        (names::SV_WORKERS_BUSY, running as f64),
        (names::SV_JOBS_RETAINED, retained as f64),
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

fn list_jobs(shared: &Arc<Shared>) -> Response {
    let (hits, misses, evictions) = shared.engine.cache_stats();
    let svc = &shared.service;
    let service = Json::obj()
        .with(
            "accepted",
            Json::U64(svc.counter_value(names::SV_JOBS_ACCEPTED)),
        )
        .with(
            "completed",
            Json::U64(svc.counter_value(names::SV_JOBS_COMPLETED)),
        )
        .with(
            "failed",
            Json::U64(svc.counter_value(names::SV_JOBS_FAILED)),
        )
        .with(
            "cancelled",
            Json::U64(svc.counter_value(names::SV_JOBS_CANCELLED)),
        );
    let state = shared.lock();
    let running = state
        .jobs
        .values()
        .filter(|j| j.state == JobState::Running)
        .count();
    let jobs: Vec<Json> = state.jobs.values().map(Job::summary_json).collect();
    let body = Json::obj()
        .with("jobs", Json::Arr(jobs))
        .with(
            "service",
            service
                .with("queue_depth", Json::U64(state.queue.len() as u64))
                .with("running", Json::U64(running as u64)),
        )
        .with(
            "dataset_cache",
            Json::obj()
                .with("hits", Json::U64(hits))
                .with("misses", Json::U64(misses))
                .with("evictions", Json::U64(evictions)),
        );
    Response::json(200, body.render_pretty() + "\n")
}

fn job_status(shared: &Arc<Shared>, id: u64) -> Response {
    let state = shared.lock();
    let Some(job) = state.jobs.get(&id) else {
        return error_response(404, "not_found", "no such job (or already evicted)");
    };
    let mut body = Json::obj().with("job", job.summary_json());
    if job.state == JobState::Running {
        body = body.with("progress", job.progress.snapshot_json());
    }
    if let Some(report) = job.outcome.as_ref().and_then(|o| o.report.as_ref()) {
        body = body.with("report", report.clone());
    }
    Response::json(200, body.render_pretty() + "\n")
}

/// `POST /jobs`: parse, admit, enqueue. Body schema:
///
/// ```json
/// {"label": "...",                    // optional
///  "dataset": "<stacked TSV text>",   // inline, or:
///  "dataset_path": "/path/on/server", // server-side file
///  "params": ["--eps", "0.012"]}      // mine-style flags, optional
/// ```
fn submit_job(shared: &Arc<Shared>, body: &[u8], request_id: u64, audit: &mut Audit) -> Response {
    if let Some(msg) = tricluster_failpoint::trigger("serve.admission") {
        return error_response(503, "fault_injected", &msg);
    }
    // Cheap rejections (no parse work) first: drain state and queue depth.
    {
        let state = shared.lock();
        if state.draining.is_some() {
            audit.shed_reason = Some("draining");
            return error_response(503, "draining", "daemon is shutting down");
        }
        if state.queue.len() >= shared.cfg.queue_depth {
            let depth = state.queue.len();
            drop(state);
            shared
                .service
                .counter(names::SV_JOBS_REJECTED_QUEUE_FULL, 1);
            audit.shed_reason = Some("queue_full");
            return rejection(
                "queue_full",
                &format!("queue depth {depth} reached"),
                shared,
            );
        }
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
    // Dataset: inline TSV string, or a server-side path. The hit-counter
    // delta says whether this submission reused a cached parse (racy
    // across concurrent submissions, but the flag is informational).
    let (hits_before, _, _) = shared.engine.cache_stats();
    let dataset = if let Some(tsv) = doc.get("dataset").and_then(Json::as_str) {
        shared.engine.dataset_from_bytes(tsv.as_bytes())
    } else if let Some(path) = doc.get("dataset_path").and_then(Json::as_str) {
        shared.engine.dataset_from_path(std::path::Path::new(path))
    } else {
        return error_response(400, "bad_request", "need \"dataset\" or \"dataset_path\"");
    };
    let dataset = match dataset {
        Ok(d) => d,
        Err(e) => return error_response(400, "bad_dataset", &e.to_string()),
    };
    let was_cached = shared.engine.cache_stats().0 > hits_before;
    // Params arrive as mine-style flags and go through the exact same
    // parser as the CLI, so a daemon job cannot drift from a one-shot run.
    let params_argv: Vec<String> = doc
        .get("params")
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default();
    let parsed = args::parse(
        &params_argv,
        &[
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
            ("fanout", 1),
        ],
        &[],
    );
    let requested = match parsed.and_then(|a| mine_params_from(&a)) {
        Ok(p) => p,
        Err(e) => return error_response(400, "bad_params", &e),
    };
    let session = shared.engine.session(&requested);
    let clamped = session.was_clamped();
    let (ng, ns, nt) = dataset.matrix.dims();
    let matrix_bytes = (ng * ns * nt * std::mem::size_of::<f64>()) as u64;
    // The job's timeline starts on the HTTP thread: the enqueued instant
    // anchors the queue-wait gap visible in the Chrome trace.
    let tl = Arc::new(Timeline::new());
    {
        let _att = tl.attach("serve-http");
        timeline::instant(names::T_SV_ENQUEUED);
    }

    let mut state = shared.lock();
    // Re-check under the lock: admission raced other submissions.
    if state.draining.is_some() {
        audit.shed_reason = Some("draining");
        return error_response(503, "draining", "daemon is shutting down");
    }
    if state.queue.len() >= shared.cfg.queue_depth {
        let depth = state.queue.len();
        drop(state);
        shared
            .service
            .counter(names::SV_JOBS_REJECTED_QUEUE_FULL, 1);
        audit.shed_reason = Some("queue_full");
        return rejection(
            "queue_full",
            &format!("queue depth {depth} reached"),
            shared,
        );
    }
    if let Some(budget) = shared.cfg.memory_budget {
        if state.admitted_bytes + matrix_bytes > budget {
            let admitted = state.admitted_bytes;
            drop(state);
            shared.service.counter(names::SV_JOBS_REJECTED_MEMORY, 1);
            audit.shed_reason = Some("memory_budget");
            return rejection(
                "memory_budget",
                &format!(
                    "admitting {matrix_bytes} B on top of {admitted} B would exceed \
                     the {budget} B aggregate budget"
                ),
                shared,
            );
        }
    }
    if let Some(msg) = tricluster_failpoint::trigger("serve.queue") {
        return error_response(503, "fault_injected", &msg);
    }
    let id = state.next_id;
    state.next_id += 1;
    state.admitted_bytes += matrix_bytes;
    let job = Job {
        id,
        request_id,
        label: if label.is_empty() {
            format!("job-{id}")
        } else {
            label
        },
        dataset_hash: dataset.hash.clone(),
        matrix_bytes,
        cached: was_cached,
        clamped,
        state: JobState::Queued,
        cancelling: false,
        session: Arc::new(session),
        progress: Arc::new(Progress::new()),
        timeline: tl,
        dataset: Some(dataset.clone()),
        submitted: Instant::now(),
        outcome: None,
    };
    state.queue.push_back(id);
    state.jobs.insert(id, job);
    drop(state);
    shared.service.counter(names::SV_JOBS_ACCEPTED, 1);
    if clamped {
        shared.service.counter(names::SV_JOBS_CLAMPED, 1);
    }
    audit.job_id = Some(id);
    audit.clamped = Some(clamped);
    shared.work.notify_all();
    let body = Json::obj()
        .with("id", Json::U64(id))
        .with("request_id", Json::U64(request_id))
        .with("status_url", Json::Str(format!("/jobs/{id}")))
        .with("dataset_hash", Json::Str(dataset.hash.clone()))
        .with("clamped", Json::Bool(clamped));
    Response::json(202, body.render() + "\n")
}

/// A 429-style shed-load rejection with the queue/memory numbers the
/// client needs to back off intelligently.
fn rejection(reason: &str, detail: &str, shared: &Arc<Shared>) -> Response {
    let state = shared.lock();
    let body = Json::obj()
        .with("error", Json::Str("rejected".into()))
        .with("reason", Json::Str(reason.into()))
        .with("detail", Json::Str(detail.into()))
        .with("queue_depth", Json::U64(state.queue.len() as u64))
        .with("queue_capacity", Json::U64(shared.cfg.queue_depth as u64))
        .with("admitted_bytes", Json::U64(state.admitted_bytes));
    Response::json(429, body.render() + "\n")
}

fn cancel_job(shared: &Arc<Shared>, id: u64) -> Response {
    let mut state = shared.lock();
    let Some(job) = state.jobs.get_mut(&id) else {
        return error_response(404, "not_found", "no such job (or already evicted)");
    };
    match job.state {
        JobState::Queued => {
            job.state = JobState::Cancelled;
            job.cancelling = true;
            job.dataset = None;
            job.outcome = Some(Outcome {
                clusters: 0,
                truncation: Some("cancelled".into()),
                error: None,
                secs: 0.0,
                report: None,
            });
            {
                let _att = job.timeline.attach("serve-http");
                timeline::instant(names::T_SV_CANCELLED);
            }
            let released = job.matrix_bytes;
            state.queue.retain(|&q| q != id);
            state.admitted_bytes = state.admitted_bytes.saturating_sub(released);
            drop(state);
            shared.service.counter(names::SV_JOBS_CANCELLED, 1);
            let body = Json::obj()
                .with("id", Json::U64(id))
                .with("state", Json::Str("cancelled".into()));
            Response::json(200, body.render() + "\n")
        }
        JobState::Running => {
            // Cooperative: trip the handle, let the run wind down into a
            // truncated (reason "cancelled") result. State flips (and the
            // cancelled counter bumps) when the worker finishes.
            job.cancelling = true;
            job.session.cancel();
            {
                let _att = job.timeline.attach("serve-http");
                timeline::instant(names::T_SV_CANCELLED);
            }
            let body = Json::obj()
                .with("id", Json::U64(id))
                .with("state", Json::Str("running".into()))
                .with("cancelling", Json::Bool(true));
            Response::json(200, body.render() + "\n")
        }
        finished => error_response(
            409,
            "already_finished",
            &format!("job is {}", finished.as_str()),
        ),
    }
}

/// `POST /shutdown`: stop admitting and wake the drain. Body (optional):
/// `{"mode": "drain"}` (default — finish in-flight and queued jobs) or
/// `{"mode": "cancel"}` (cancel queued jobs, trip running ones).
fn shutdown(shared: &Arc<Shared>, body: &[u8]) -> Response {
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
    let mut state = shared.lock();
    let already = state.draining.is_some();
    state.draining = Some(mode);
    let mut cancelled_now = 0u64;
    if mode == ShutdownMode::Cancel {
        // Queued jobs become cancelled records; running jobs get tripped.
        let queued: Vec<u64> = state.queue.drain(..).collect();
        for id in queued {
            if let Some(job) = state.jobs.get_mut(&id) {
                job.state = JobState::Cancelled;
                job.dataset = None;
                job.outcome = Some(Outcome {
                    clusters: 0,
                    truncation: Some("cancelled".into()),
                    error: None,
                    secs: 0.0,
                    report: None,
                });
                {
                    let _att = job.timeline.attach("serve-http");
                    timeline::instant(names::T_SV_CANCELLED);
                }
                let released = job.matrix_bytes;
                state.admitted_bytes = state.admitted_bytes.saturating_sub(released);
                cancelled_now += 1;
            }
        }
        for job in state.jobs.values_mut() {
            if job.state == JobState::Running {
                job.cancelling = true;
                job.session.cancel();
                let _att = job.timeline.attach("serve-http");
                timeline::instant(names::T_SV_CANCELLED);
            }
        }
    }
    drop(state);
    if cancelled_now > 0 {
        shared
            .service
            .counter(names::SV_JOBS_CANCELLED, cancelled_now);
    }
    shared.work.notify_all();
    shared.shutdown.notify_all();
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
    let mut cfg = ServeConfig {
        addr: addr.clone(),
        ..ServeConfig::default()
    };
    if let Some(n) = a.get_usize("workers").map_err(CliError::Usage)? {
        if n == 0 {
            return Err(CliError::Usage("--workers must be at least 1".into()));
        }
        cfg.workers = n;
    }
    if let Some(n) = a.get_usize("queue-depth").map_err(CliError::Usage)? {
        cfg.queue_depth = n;
    }
    if let Some(s) = a.get_str("memory-budget") {
        cfg.memory_budget = Some(parse_bytes("memory-budget", s).map_err(CliError::Usage)?);
    }
    if let Some(secs) = a.get_f64("cap-deadline").map_err(CliError::Usage)? {
        if !secs.is_finite() || secs <= 0.0 {
            return Err(CliError::Usage(format!(
                "--cap-deadline expects a positive number of seconds, got {secs}"
            )));
        }
        cfg.caps.max_deadline = Some(Duration::from_secs_f64(secs));
    }
    if let Some(s) = a.get_str("cap-memory") {
        cfg.caps.max_memory = Some(parse_bytes("cap-memory", s).map_err(CliError::Usage)?);
    }
    if let Some(n) = a.get_u64("cap-candidates").map_err(CliError::Usage)? {
        cfg.caps.max_candidates = Some(n);
    }
    if let Some(n) = a.get_usize("cap-threads").map_err(CliError::Usage)? {
        cfg.caps.max_threads = Some(n);
    }
    if let Some(s) = a.get_str("max-body") {
        cfg.max_body = parse_bytes("max-body", s).map_err(CliError::Usage)? as usize;
    }
    cfg.ledger_dir = a.get_str("ledger").map(str::to_string);
    if let Some(n) = a.get_usize("cache-entries").map_err(CliError::Usage)? {
        cfg.cache_entries = n;
    }
    cfg.access_log = a.get_str("access-log").map(str::to_string);
    let daemon = Daemon::start(cfg)?;
    eprintln!("serve: listening on {}", daemon.url());
    daemon.wait();
    eprintln!("serve: drained, exiting");
    Ok(())
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
        &[
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
            ("fanout", 1),
            ("label", 1),
            ("poll", 1),
            ("report-json", 1),
            ("cancel", 1),
            ("shutdown", 1),
        ],
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
        let (status, body) = tricluster_core::obs::httpd::http_delete(&format!("{base}/jobs/{id}"))
            .map_err(CliError::Run)?;
        print!("{body}");
        return if status == 200 {
            Ok(())
        } else {
            Err(CliError::Run(format!("DELETE /jobs/{id}: HTTP {status}")))
        };
    }
    if let Some(mode) = a.get_str("shutdown") {
        let body = format!("{{\"mode\":\"{mode}\"}}");
        let (status, body) = http_post(
            &format!("{base}/shutdown"),
            "application/json",
            body.as_bytes(),
        )
        .map_err(CliError::Run)?;
        print!("{body}");
        return if status == 200 {
            Ok(())
        } else {
            Err(CliError::Run(format!("POST /shutdown: HTTP {status}")))
        };
    }

    let Some(path) = a.positional.get(1) else {
        return Err(CliError::Usage(
            "submit: missing dataset file (stacked TSV), or --cancel ID / --shutdown MODE".into(),
        ));
    };
    // Forward the param flags verbatim — the daemon runs them through the
    // same parser as `mine`, after validating them here for a fast local
    // usage error.
    mine_params_from(&a).map_err(CliError::Usage)?;
    let mut params_argv: Vec<Json> = Vec::new();
    for (flag, arity) in &[
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
        ("fanout", 1),
    ] {
        if *arity == 2 {
            if let Some((x, y)) = a.get_pair_f64(flag).map_err(CliError::Usage)? {
                params_argv.push(Json::Str(format!("--{flag}")));
                params_argv.push(Json::Str(x.to_string()));
                params_argv.push(Json::Str(y.to_string()));
            }
        } else if let Some(v) = a.get_str(flag) {
            params_argv.push(Json::Str(format!("--{flag}")));
            params_argv.push(Json::Str(v.to_owned()));
        }
    }
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
    body = body.with("params", Json::Arr(params_argv));
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
    let poll = a.get_f64("poll").map_err(CliError::Usage)?.unwrap_or(0.2);
    if !poll.is_finite() || poll <= 0.0 {
        return Err(CliError::Usage(format!(
            "--poll expects a positive number of seconds, got {poll}"
        )));
    }
    let status_url = format!("{base}/jobs/{id}");
    loop {
        let (code, body) = http_get_retry(&status_url, 5, Duration::from_millis(50))
            .into_result()
            .map_err(CliError::Run)?;
        if code != 200 {
            return Err(CliError::Run(format!("GET /jobs/{id}: HTTP {code}")));
        }
        let doc = Json::parse(body.trim())
            .map_err(|e| CliError::Run(format!("unparseable status: {e}")))?;
        let state = doc
            .get_path(&["job", "state"])
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        match state.as_str() {
            "queued" | "running" => {
                std::thread::sleep(Duration::from_secs_f64(poll));
            }
            _ => {
                if let Some(out_path) = a.get_str("report-json") {
                    match doc.get("report") {
                        Some(report) => {
                            std::fs::write(out_path, report.render_pretty() + "\n").map_err(
                                |e| CliError::Run(format!("cannot write {out_path}: {e}")),
                            )?;
                        }
                        None => {
                            return Err(CliError::Run(format!(
                                "job {id} finished {state} without a report"
                            )))
                        }
                    }
                }
                if let Some(summary) = doc.get("job") {
                    println!("{}", summary.render_pretty());
                }
                return match state.as_str() {
                    "done" | "cancelled" => Ok(()),
                    other => Err(CliError::Run(format!("job {id} finished {other}"))),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufWriter;
    use tricluster_core::obs::httpd::{http_delete, http_get, http_post};
    use tricluster_core::obs::ledger::Ledger;
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
        assert!(accepted
            .get("dataset_hash")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("fnv1a:"));

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
    /// report byte-for-byte across every deterministic section.
    #[test]
    fn serve_reports_match_one_shot_mine_sections() {
        let _scenario = failpoint::scenario();
        let dir = std::env::temp_dir().join(format!("tricluster-serve-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("table1.tsv");
        std::fs::write(&data, table1_tsv()).unwrap();
        let oneshot_path = dir.join("oneshot.json");
        crate::commands::mine(&[
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

        for section in [
            &["clusters"][..],
            &["truncated"],
            &["metrics"],
            &["report", "counters"],
            &["histograms"],
            &["search_space"],
            &["memory"],
        ] {
            let a = oneshot.get_path(section).map(Json::render);
            let b = served.get_path(section).map(Json::render);
            assert!(a.is_some(), "one-shot report lacks section {section:?}");
            assert_eq!(a, b, "section {section:?} diverges between serve and mine");
        }
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
}
