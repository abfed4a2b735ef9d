//! The serve daemon's job table: every job from admission to retention,
//! the queue, the admitted bytes and the drain flag, under one lock, with
//! the two condvars that wait on them.
//!
//! Nothing outside this module reads or writes that state. Admission,
//! dequeue, finish, cancel and drain are the table's methods, so every
//! terminal transition releases the job's admitted bytes, bumps its service
//! counter and evicts finished jobs beyond [`KEEP_FINISHED`]. Every
//! admission decision is one check, made before a submission is parsed
//! ([`JobTable::shed`]) and again under the lock ([`JobTable::admit`]).

use crate::serve::error_response;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tricluster_core::obs::httpd::Response;
use tricluster_core::obs::json::Json;
use tricluster_core::obs::metrics::Registry;
use tricluster_core::obs::names;
use tricluster_core::obs::timeline::{self, Timeline};
use tricluster_core::obs::EventSink;
use tricluster_core::{Dataset, Session};

/// How many finished (done/failed/cancelled) jobs the daemon retains for
/// `GET /jobs/<id>` before evicting the oldest.
pub(crate) const KEEP_FINISHED: usize = 64;

/// How `POST /shutdown` treats in-flight jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShutdownMode {
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
#[derive(Default)]
pub(crate) struct Outcome {
    pub clusters: usize,
    pub truncation: Option<String>,
    pub error: Option<String>,
    pub secs: f64,
    pub report: Option<Json>,
}

impl Outcome {
    /// What a job cancelled before it ran leaves behind.
    fn cancelled() -> Self {
        Outcome {
            truncation: Some("cancelled".into()),
            ..Outcome::default()
        }
    }
}

/// An admitted job's run: what its worker needs, and what cancelling it
/// trips.
pub(crate) struct Run {
    pub id: u64,
    /// Request ID of the submission that admitted the job.
    pub request_id: u64,
    /// The clamped run.
    pub session: Session,
    /// The run's live gauges; its worker feeds them through a `ProgressSink`.
    pub progress: Arc<Registry>,
    /// Lifecycle instants plus the miner's own spans; archived as the
    /// job's Chrome trace.
    pub timeline: Timeline,
}

/// One tenant job, from admission to retention.
struct Job {
    run: Arc<Run>,
    label: String,
    dataset_hash: String,
    matrix_bytes: u64,
    cached: bool,
    state: JobState,
    cancelling: bool,
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
            .with("id", Json::U64(self.run.id))
            .with("request_id", Json::U64(self.run.request_id))
            .with("label", Json::Str(self.label.clone()))
            .with("state", Json::Str(self.state.as_str().into()))
            .with("dataset_hash", Json::Str(self.dataset_hash.clone()))
            .with("matrix_bytes", Json::U64(self.matrix_bytes))
            .with("cached", Json::Bool(self.cached))
            .with("clamped", Json::Bool(self.run.session.was_clamped()))
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

    /// Trips a running job's cancel handle. The run winds down
    /// cooperatively into a truncated (reason "cancelled") result, and its
    /// worker finishes the job.
    fn trip(&mut self) {
        self.cancelling = true;
        self.run.session.cancel();
        let _att = self.run.timeline.attach("serve-http");
        timeline::instant(names::T_SV_CANCELLED);
    }
}

/// A shed submission: what the access log, the service counters and the
/// client each get.
pub(crate) struct Shed {
    /// `draining`, `queue_full` or `memory_budget`: the access log's
    /// `shed_reason`, and the 429 body's `reason`.
    pub reason: &'static str,
    /// The service counter the shed bumps; draining counts none.
    pub counter: Option<&'static str>,
    /// A 503 while draining, else a 429 with the queue and memory numbers
    /// a client needs to back off.
    pub response: Response,
}

/// What `DELETE /jobs/<id>` did.
pub(crate) enum Cancel {
    NotFound,
    /// The job was queued: it is now a cancelled record.
    Dequeued,
    /// The job was running: its run is winding down.
    Tripped,
    /// The job had already finished in this state.
    Finished(&'static str),
}

/// One consistent reading of the table, taken under one lock.
pub(crate) struct Snapshot {
    pub queue_depth: usize,
    pub running: usize,
    /// Finished jobs still kept for `GET /jobs/<id>`.
    pub retained: usize,
    pub admitted_bytes: u64,
    pub draining: bool,
}

struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    admitted_bytes: u64,
    draining: Option<ShutdownMode>,
}

impl State {
    fn snapshot(&self) -> Snapshot {
        let count =
            |keep: fn(JobState) -> bool| self.jobs.values().filter(|j| keep(j.state)).count();
        Snapshot {
            queue_depth: self.queue.len(),
            running: count(|s| s == JobState::Running),
            retained: count(JobState::is_finished),
            admitted_bytes: self.admitted_bytes,
            draining: self.draining.is_some(),
        }
    }

    /// Moves a queued or running job into its terminal state (failed,
    /// cancelled or done, read off `outcome`), drops its dataset, releases
    /// its admitted bytes, bumps the matching service counter, and evicts
    /// the oldest finished jobs beyond [`KEEP_FINISHED`].
    fn finish(&mut self, id: u64, outcome: Outcome, service: &Registry) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.state == JobState::Queued {
            // Only cancellation ends a queued job. A running job journaled
            // its cancellation when it was tripped.
            let _att = job.run.timeline.attach("serve-http");
            timeline::instant(names::T_SV_CANCELLED);
        }
        let (state, counter) = if outcome.error.is_some() {
            (JobState::Failed, names::SV_JOBS_FAILED)
        } else if outcome.truncation.as_deref() == Some("cancelled") {
            (JobState::Cancelled, names::SV_JOBS_CANCELLED)
        } else {
            (JobState::Done, names::SV_JOBS_COMPLETED)
        };
        job.state = state;
        job.dataset = None;
        job.outcome = Some(outcome);
        self.admitted_bytes = self.admitted_bytes.saturating_sub(job.matrix_bytes);
        self.queue.retain(|&q| q != id);
        let finished: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.state.is_finished())
            .map(|j| j.run.id)
            .collect();
        for id in finished.iter().rev().skip(KEEP_FINISHED) {
            self.jobs.remove(id);
        }
        service.counter(counter, 1);
    }
}

/// The daemon's jobs and their queue (see the module docs).
pub(crate) struct JobTable {
    state: Mutex<State>,
    /// Wakes workers (new job, or drain requested).
    work: Condvar,
    /// Wakes [`JobTable::wait_for_drain`] (shutdown requested).
    shutdown: Condvar,
    queue_capacity: usize,
    memory_budget: Option<u64>,
}

impl JobTable {
    /// An empty table that queues at most `queue_capacity` jobs and admits
    /// at most `memory_budget` matrix bytes across queued + running jobs.
    pub(crate) fn new(queue_capacity: usize, memory_budget: Option<u64>) -> Self {
        JobTable {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                next_id: 1,
                admitted_bytes: 0,
                draining: None,
            }),
            work: Condvar::new(),
            shutdown: Condvar::new(),
            queue_capacity,
            memory_budget,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The one admission decision: draining, then queue depth, then the
    /// memory budget, which needs the parsed matrix's `matrix_bytes` and is
    /// skipped without them.
    fn check(&self, state: &State, matrix_bytes: Option<u64>) -> Result<(), Shed> {
        if state.draining.is_some() {
            return Err(Shed {
                reason: "draining",
                counter: None,
                response: error_response(503, "draining", "daemon is shutting down"),
            });
        }
        let (depth, admitted) = (state.queue.len(), state.admitted_bytes);
        let (reason, counter, detail) = match (self.memory_budget, matrix_bytes) {
            _ if depth >= self.queue_capacity => (
                "queue_full",
                names::SV_JOBS_REJECTED_QUEUE_FULL,
                format!("queue depth {depth} reached"),
            ),
            (Some(budget), Some(bytes)) if admitted + bytes > budget => (
                "memory_budget",
                names::SV_JOBS_REJECTED_MEMORY,
                format!(
                    "admitting {bytes} B on top of {admitted} B would exceed \
                     the {budget} B aggregate budget"
                ),
            ),
            _ => return Ok(()),
        };
        let body = Json::obj()
            .with("error", Json::Str("rejected".into()))
            .with("reason", Json::Str(reason.into()))
            .with("detail", Json::Str(detail))
            .with("queue_depth", Json::U64(depth as u64))
            .with("queue_capacity", Json::U64(self.queue_capacity as u64))
            .with("admitted_bytes", Json::U64(admitted));
        Err(Shed {
            reason,
            counter: Some(counter),
            response: Response::json(429, body.render() + "\n"),
        })
    }

    /// The admission check before a submission's body is parsed: draining
    /// and queue depth.
    pub(crate) fn shed(&self) -> Option<Shed> {
        self.check(&self.lock(), None).err()
    }

    /// Admits a job mining `dataset` unless the admission check, repeated
    /// under the lock with the matrix's size, sheds it; returns its id. An
    /// empty `label` names the job `job-<id>`.
    pub(crate) fn admit(
        &self,
        request_id: u64,
        label: String,
        dataset: Arc<Dataset>,
        cached: bool,
        session: Session,
        timeline: Timeline,
    ) -> Result<u64, Shed> {
        let (ng, ns, nt) = dataset.matrix.dims();
        let matrix_bytes = (ng * ns * nt * std::mem::size_of::<f64>()) as u64;
        let mut state = self.lock();
        self.check(&state, Some(matrix_bytes))?;
        let id = state.next_id;
        state.next_id += 1;
        state.admitted_bytes += matrix_bytes;
        state.queue.push_back(id);
        let job = Job {
            run: Arc::new(Run {
                id,
                request_id,
                session,
                progress: Arc::new(Registry::for_run()),
                timeline,
            }),
            label: if label.is_empty() {
                format!("job-{id}")
            } else {
                label
            },
            dataset_hash: dataset.hash.clone(),
            matrix_bytes,
            cached,
            state: JobState::Queued,
            cancelling: false,
            dataset: Some(dataset),
            submitted: Instant::now(),
            outcome: None,
        };
        state.jobs.insert(id, job);
        drop(state);
        self.work.notify_all();
        Ok(id)
    }

    /// Blocks until a job is queued, marks it running and hands over its
    /// run, its dataset and its time on the queue; `None` once the daemon
    /// drains and the queue is empty.
    pub(crate) fn dequeue(&self) -> Option<(Arc<Run>, Arc<Dataset>, Duration)> {
        let mut state = self.lock();
        loop {
            if let Some(id) = state.queue.pop_front() {
                let job = state.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Running;
                let dataset = job.dataset.clone().expect("queued job holds its dataset");
                return Some((job.run.clone(), dataset, job.submitted.elapsed()));
            }
            if state.draining.is_some() {
                return None;
            }
            state = self
                .work
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Ends a job its worker ran.
    pub(crate) fn finish(&self, id: u64, outcome: Outcome, service: &Registry) {
        self.lock().finish(id, outcome, service);
    }

    /// `DELETE /jobs/<id>`: a queued job becomes a cancelled record at
    /// once; a running one is tripped, and its worker finishes it.
    pub(crate) fn cancel(&self, id: u64, service: &Registry) -> Cancel {
        let mut state = self.lock();
        let Some(job) = state.jobs.get_mut(&id) else {
            return Cancel::NotFound;
        };
        match job.state {
            JobState::Queued => {
                state.finish(id, Outcome::cancelled(), service);
                Cancel::Dequeued
            }
            JobState::Running => {
                job.trip();
                Cancel::Tripped
            }
            finished => Cancel::Finished(finished.as_str()),
        }
    }

    /// `POST /shutdown`: stops admission and wakes the workers and
    /// [`JobTable::wait_for_drain`]. In cancel mode queued jobs become
    /// cancelled records and running ones are tripped. Returns whether the
    /// daemon was already draining.
    pub(crate) fn drain(&self, mode: ShutdownMode, service: &Registry) -> bool {
        let mut state = self.lock();
        let already = state.draining.replace(mode).is_some();
        if mode == ShutdownMode::Cancel {
            let queued: Vec<u64> = state.queue.iter().copied().collect();
            for id in queued {
                state.finish(id, Outcome::cancelled(), service);
            }
            for job in state.jobs.values_mut() {
                if job.state == JobState::Running {
                    job.trip();
                }
            }
        }
        drop(state);
        self.work.notify_all();
        self.shutdown.notify_all();
        already
    }

    /// Blocks until a shutdown is requested.
    pub(crate) fn wait_for_drain(&self) {
        let mut state = self.lock();
        while state.draining.is_none() {
            state = self
                .shutdown
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        self.lock().snapshot()
    }

    /// Every retained job's summary, with the snapshot of the same lock.
    pub(crate) fn listing(&self) -> (Snapshot, Vec<Json>) {
        let state = self.lock();
        let jobs = state.jobs.values().map(Job::summary_json).collect();
        (state.snapshot(), jobs)
    }

    /// `GET /jobs/<id>`'s body: the summary, live progress while running,
    /// and the report once finished.
    pub(crate) fn status(&self, id: u64) -> Option<Json> {
        let state = self.lock();
        let job = state.jobs.get(&id)?;
        let mut body = Json::obj().with("job", job.summary_json());
        if job.state == JobState::Running {
            body = body.maybe_with("progress", job.run.progress.progress_json());
        }
        if let Some(report) = job.outcome.as_ref().and_then(|o| o.report.as_ref()) {
            body = body.with("report", report.clone());
        }
        Some(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use tricluster_core::obs::progress::{Phase, ProgressSink, ProgressTicker};
    use tricluster_core::obs::Gauge;
    use tricluster_core::{Engine, Params, TenantCaps};

    /// The one fixed sequence of live updates the golden views below show:
    /// a phase, the three unit pairs, candidates, budget spent, logical
    /// bytes, and all three budgets.
    fn drive(sink: &dyn EventSink) {
        let set = |name, v| sink.gauge(name, Gauge::Set(v));
        let add = |name, n, times| (0..times).for_each(|_| sink.gauge(name, Gauge::Add(n)));
        set(names::G_BUDGET_DEADLINE_NS, 90_500_000_000);
        set(names::G_BUDGET_MEMORY, 4096);
        set(names::G_BUDGET_CANDIDATES, 40);
        set(names::G_PHASE, Phase::Tricluster as u64);
        add(names::G_SLICES_TOTAL, 4, 1);
        add(names::G_SLICES_DONE, 1, 3);
        add(names::G_PAIRS_TOTAL, 66, 1);
        add(names::G_PAIRS_DONE, 1, 65);
        add(names::G_BRANCHES_TOTAL, 12, 1);
        add(names::G_BRANCHES_DONE, 1, 7);
        add(names::G_CANDIDATES, 1, 5);
        add(names::G_BUDGET_SPENT, 13, 1);
        set(names::G_LOGICAL_BYTES, 3000);
    }

    /// Replaces every value that moves with the clock (the elapsed time,
    /// the deadline's use) with `"<clock>"`, keeping key order.
    fn mask(j: &Json, parent: &str) -> Json {
        match j {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| {
                        let clocked = matches!(k.as_str(), "elapsed_secs" | "used_secs")
                            || (parent == "deadline" && k == "used_frac");
                        let v = if clocked {
                            Json::Str("<clock>".into())
                        } else {
                            mask(v, k)
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    fn masked(text: &str) -> String {
        mask(&Json::parse(text.trim()).expect("valid JSON"), "").render()
    }

    /// The exposition's progress and budget lines, clocked values masked.
    fn progress_lines(exposition: &str) -> String {
        exposition
            .lines()
            .filter(|l| l.contains("tricluster_progress_") || l.contains("tricluster_budget_"))
            .map(|l| {
                let clocked = !l.starts_with('#')
                    && (l.starts_with("tricluster_progress_elapsed_seconds ")
                        || l.contains("{budget=\"deadline\"}"));
                match l.rsplit_once(' ') {
                    Some((name, _)) if clocked => format!("{name} <clock>\n"),
                    _ => format!("{l}\n"),
                }
            })
            .collect()
    }

    /// A run registry's progress document before any update.
    const INIT: &str = concat!(
        r#"{"progress":{"elapsed_secs":"<clock>","phase":"init","#,
        r#""slices":{"done":0,"total":0},"pairs":{"done":0,"total":0},"#,
        r#""branches":{"done":0,"total":0},"candidates":0,"logical_bytes":0}}"#
    );
    /// The progress document after [`drive`].
    const DRIVEN: &str = concat!(
        r#"{"progress":{"elapsed_secs":"<clock>","phase":"tricluster","#,
        r#""slices":{"done":3,"total":4},"pairs":{"done":65,"total":66},"#,
        r#""branches":{"done":7,"total":12},"candidates":5,"logical_bytes":3000,"#,
        r#""budgets":{"deadline":{"limit_secs":90.5,"used_secs":"<clock>","used_frac":"<clock>"},"#,
        r#""memory":{"limit_bytes":4096,"used_bytes":3000,"used_frac":0.732421875},"#,
        r#""candidates":{"limit":40,"spent":13,"used_frac":0.325}}}}"#
    );
    /// The exposition's progress and budget lines after [`drive`].
    const DRIVEN_LINES: &str = concat!(
        "# TYPE tricluster_progress_elapsed_seconds gauge\n",
        "tricluster_progress_elapsed_seconds <clock>\n",
        "# TYPE tricluster_progress_phase gauge\n",
        "tricluster_progress_phase{phase=\"init\"} 0\n",
        "tricluster_progress_phase{phase=\"slices\"} 0\n",
        "tricluster_progress_phase{phase=\"tricluster\"} 1\n",
        "tricluster_progress_phase{phase=\"prune\"} 0\n",
        "tricluster_progress_phase{phase=\"done\"} 0\n",
        "# TYPE tricluster_progress_slices_done gauge\n",
        "tricluster_progress_slices_done 3\n",
        "# TYPE tricluster_progress_slices_total gauge\n",
        "tricluster_progress_slices_total 4\n",
        "# TYPE tricluster_progress_pairs_done gauge\n",
        "tricluster_progress_pairs_done 65\n",
        "# TYPE tricluster_progress_pairs_total gauge\n",
        "tricluster_progress_pairs_total 66\n",
        "# TYPE tricluster_progress_branches_done gauge\n",
        "tricluster_progress_branches_done 7\n",
        "# TYPE tricluster_progress_branches_total gauge\n",
        "tricluster_progress_branches_total 12\n",
        "# TYPE tricluster_progress_candidates gauge\n",
        "tricluster_progress_candidates 5\n",
        "# TYPE tricluster_progress_logical_bytes gauge\n",
        "tricluster_progress_logical_bytes 3000\n",
        "# TYPE tricluster_budget_used_ratio gauge\n",
        "tricluster_budget_used_ratio{budget=\"deadline\"} <clock>\n",
        "tricluster_budget_used_ratio{budget=\"memory\"} 0.732421875\n",
        "tricluster_budget_used_ratio{budget=\"candidates\"} 0.325\n",
        "# TYPE tricluster_budget_headroom_ratio gauge\n",
        "tricluster_budget_headroom_ratio{budget=\"deadline\"} <clock>\n",
        "tricluster_budget_headroom_ratio{budget=\"memory\"} 0.267578125\n",
        "tricluster_budget_headroom_ratio{budget=\"candidates\"} 0.675\n",
    );

    /// A running job, whose status `GET /jobs/<id>` serves.
    fn running_job() -> (JobTable, Arc<Run>) {
        let engine = Engine::new(TenantCaps::unlimited());
        let m = tricluster_core::testdata::paper_table1();
        let labels = tricluster_matrix::Labels::default_for(10, 7, 2);
        let mut tsv = Vec::new();
        tricluster_matrix::io::write_stacked_tsv(&mut tsv, &m, &labels).unwrap();
        let dataset = engine.dataset_from_bytes(&tsv).unwrap();
        let session = Session::new(Params::builder().epsilon(0.01).build().unwrap());
        let table = JobTable::new(1, None);
        let id = table
            .admit(1, String::new(), dataset, false, session, Timeline::new())
            .unwrap_or_else(|_| panic!("admitted"));
        let (run, _, _) = table.dequeue().expect("queued");
        assert_eq!(run.id, id);
        (table, run)
    }

    /// The live views pinned byte for byte: the `/progress` document, the
    /// progress and budget lines of a run registry's exposition, one
    /// heartbeat line, and a running job's `progress` object. A run's
    /// registry shows phase `init` and zero counts from its creation.
    #[test]
    fn live_views_render_pinned_bytes() {
        let registry = Arc::new(Registry::for_run());
        let (table, run) = running_job();
        let job_progress = |table: &JobTable| {
            let status = table.status(run.id).expect("retained");
            masked(&status.get("progress").expect("running").render())
        };

        let doc = registry.progress_json().expect("a run's registry");
        assert_eq!(masked(&doc.render()), INIT, "fresh /progress");
        assert_eq!(job_progress(&table), INIT, "fresh job");

        drive(&*registry);
        drive(&ProgressSink(run.progress.clone()));
        let doc = registry.progress_json().expect("a run's registry");
        assert_eq!(masked(&doc.render()), DRIVEN, "/progress");
        assert_eq!(job_progress(&table), DRIVEN, "job progress");
        assert_eq!(
            progress_lines(&registry.render_openmetrics(&[])),
            DRIVEN_LINES,
            "exposition"
        );

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let out = Arc::new(Mutex::new(Vec::new()));
        let ticker = ProgressTicker::start(
            registry.clone(),
            Duration::from_secs(3600),
            Box::new(Shared(out.clone())),
        );
        drop(ticker);
        let line = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(line.matches('\n').count(), 1, "one final line: {line:?}");
        assert_eq!(masked(&line), DRIVEN, "heartbeat");
    }
}
