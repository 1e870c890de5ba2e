//! The bounded job queue and its worker pool.
//!
//! Jobs are keyed by scenario fingerprint and **single-flight**: while
//! a fingerprint is queued or running, further submissions attach to
//! the existing job instead of enqueueing duplicate work — concurrent
//! identical requests are computed once and all observers receive the
//! same payload. The queue is bounded; past capacity, submission
//! reports [`Submit::QueueFull`] and the server answers 503 instead of
//! accumulating unbounded work.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use carma_core::scenario::ScenarioSpec;

/// Executes one job: given the fingerprint and the spec, produce the
/// cached payload (the server's runner renders the report to JSON and
/// stores it in the memo's report stage before returning, so a `Done`
/// job implies a warm cache).
pub type RunnerFn = Arc<dyn Fn(&str, &ScenarioSpec) -> Result<Arc<String>, String> + Send + Sync>;

/// Called (outside the queue lock) every time a job retires — the
/// event loop registers its waker here so suspended connections get
/// their responses re-armed the moment results land.
pub type NotifyFn = Arc<dyn Fn() + Send + Sync>;

/// Lifecycle state of one job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the bounded queue.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished; the payload is the rendered report JSON.
    Done(Arc<String>),
    /// The spec failed to run (resolve-stage errors are rejected
    /// before enqueueing, so this is a runner error or panic).
    Failed(String),
}

impl JobStatus {
    /// The wire spelling (`queued` / `running` / `done` / `failed`).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// A point-in-time copy of one job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id (stable across its lifetime, unique per server).
    pub id: u64,
    /// Content address of the job's scenario.
    pub fingerprint: String,
    /// Experiment name, for display.
    pub experiment: String,
    /// Current status.
    pub status: JobStatus,
}

struct JobRecord {
    fingerprint: String,
    experiment: String,
    spec: ScenarioSpec,
    status: JobStatus,
}

/// Outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// A new job was enqueued under this id.
    Enqueued(u64),
    /// An identical (same-fingerprint) job is already in flight; the
    /// caller should observe that id instead.
    Coalesced(u64),
    /// The bounded queue is at capacity.
    QueueFull,
}

/// Outcome of [`JobQueue::submit_or_lookup`].
pub enum SubmitOutcome {
    /// The result already exists; no job was created.
    Cached(Arc<String>),
    /// See [`Submit`].
    Submitted(Submit),
}

/// How many finished (done/failed) job records are retained for
/// `GET /jobs/:id` polling before the oldest is evicted. Results
/// themselves live in the memo's report stage; this only bounds
/// the *metadata* a long-lived server keeps, so a multi-day sweep
/// over many distinct scenarios cannot grow the job table without
/// bound.
pub const FINISHED_JOB_HISTORY: usize = 256;

#[derive(Default)]
struct QueueState {
    pending: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    /// fingerprint → job id, for queued/running jobs only.
    inflight: HashMap<String, u64>,
    /// Finished job ids, oldest first, capped at
    /// [`FINISHED_JOB_HISTORY`].
    finished: VecDeque<u64>,
    next_id: u64,
    running: usize,
    completed: u64,
    failed: u64,
    shutdown: bool,
}

/// Point-in-time queue counters (see [`JobQueue::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs waiting in the bounded queue.
    pub queued: usize,
    /// Jobs claimed by a worker right now.
    pub running: usize,
    /// Jobs that finished successfully, lifetime.
    pub completed: u64,
    /// Jobs that failed (runner error, panic, or shutdown
    /// abandonment), lifetime.
    pub failed: u64,
}

/// The bounded, single-flight job queue shared by the HTTP handlers
/// and the worker pool.
pub struct JobQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
    notify: Mutex<Option<NotifyFn>>,
}

impl JobQueue {
    /// Creates a queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(JobQueue {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            capacity,
            notify: Mutex::new(None),
        })
    }

    /// Registers `f` to be called (outside the queue lock) after every
    /// job retires. At most one notifier; later calls replace it.
    pub fn set_notify(&self, f: NotifyFn) {
        *self.notify.lock().expect("notify lock") = Some(f);
    }

    fn notify_external(&self) {
        let notify = self.notify.lock().expect("notify lock").clone();
        if let Some(f) = notify {
            f();
        }
    }

    /// Submits a job, deduplicating against in-flight work by
    /// `fingerprint` (the unit tests' entry point; the server always
    /// goes through [`JobQueue::submit_or_lookup`]).
    #[cfg(test)]
    pub fn submit(&self, fingerprint: &str, experiment: &str, spec: &ScenarioSpec) -> Submit {
        match self.submit_or_lookup(fingerprint, experiment, spec, || None) {
            SubmitOutcome::Submitted(submit) => submit,
            SubmitOutcome::Cached(_) => unreachable!("lookup is None"),
        }
    }

    /// Submits a job, deduplicating against in-flight work by
    /// `fingerprint`, with a cache lookup folded under the queue
    /// lock. This closes the lost-result race a separate
    /// check-then-submit would leave open: a worker inserts the cache
    /// entry *before* it retires the fingerprint from the in-flight
    /// map (under this same lock), so under the lock every fingerprint
    /// is either still in flight (→ coalesce) or already materialized
    /// (→ `lookup` finds it) — a caller can never re-enqueue work that
    /// just finished.
    pub fn submit_or_lookup(
        &self,
        fingerprint: &str,
        experiment: &str,
        spec: &ScenarioSpec,
        lookup: impl FnOnce() -> Option<Arc<String>>,
    ) -> SubmitOutcome {
        let mut state = self.state.lock().expect("queue lock");
        if let Some(&id) = state.inflight.get(fingerprint) {
            return SubmitOutcome::Submitted(Submit::Coalesced(id));
        }
        if let Some(payload) = lookup() {
            return SubmitOutcome::Cached(payload);
        }
        if state.pending.len() >= self.capacity {
            return SubmitOutcome::Submitted(Submit::QueueFull);
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobRecord {
                fingerprint: fingerprint.to_string(),
                experiment: experiment.to_string(),
                spec: spec.clone(),
                status: JobStatus::Queued,
            },
        );
        state.inflight.insert(fingerprint.to_string(), id);
        state.pending.push_back(id);
        self.cond.notify_all();
        SubmitOutcome::Submitted(Submit::Enqueued(id))
    }

    /// The current state of job `id`, if it exists.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let state = self.state.lock().expect("queue lock");
        state.jobs.get(&id).map(|job| JobSnapshot {
            id,
            fingerprint: job.fingerprint.clone(),
            experiment: job.experiment.clone(),
            status: job.status.clone(),
        })
    }

    /// Blocks until job `id` reaches `Done` or `Failed` (or the queue
    /// shuts down — a shutdown mid-wait reports the job as failed).
    /// The server never blocks on a job (the event loop polls
    /// [`JobQueue::status`] on wake), so only the unit tests wait.
    #[cfg(test)]
    pub fn wait(&self, id: u64) -> Option<JobSnapshot> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(job) => match &job.status {
                    JobStatus::Done(_) | JobStatus::Failed(_) => {
                        return Some(JobSnapshot {
                            id,
                            fingerprint: job.fingerprint.clone(),
                            experiment: job.experiment.clone(),
                            status: job.status.clone(),
                        })
                    }
                    _ if state.shutdown => {
                        return Some(JobSnapshot {
                            id,
                            fingerprint: job.fingerprint.clone(),
                            experiment: job.experiment.clone(),
                            status: JobStatus::Failed("server shutting down".to_string()),
                        })
                    }
                    _ => {}
                },
            }
            state = self.cond.wait(state).expect("queue lock");
        }
    }

    /// Current queue counters.
    pub fn stats(&self) -> QueueStats {
        let state = self.state.lock().expect("queue lock");
        QueueStats {
            queued: state.pending.len(),
            running: state.running,
            completed: state.completed,
            failed: state.failed,
        }
    }

    /// Wakes every worker and the external notifier, and stops the
    /// pool. Abandoned jobs (queued or running) transition to `Failed`
    /// in the job table, so [`JobQueue::status`] (and thus
    /// `GET /jobs/:id`) reports them as failed across a shutdown.
    pub fn shutdown(&self) {
        {
            let mut state = self.state.lock().expect("queue lock");
            state.shutdown = true;
            state.pending.clear();
            state.inflight.clear();
            let abandoned: Vec<u64> = state
                .jobs
                .iter()
                .filter(|(_, job)| matches!(job.status, JobStatus::Queued | JobStatus::Running))
                .map(|(&id, _)| id)
                .collect();
            for id in abandoned {
                if let Some(job) = state.jobs.get_mut(&id) {
                    job.status = JobStatus::Failed("server shutting down".to_string());
                }
                state.failed += 1;
                state.finished.push_back(id);
            }
            while state.finished.len() > FINISHED_JOB_HISTORY {
                if let Some(old) = state.finished.pop_front() {
                    state.jobs.remove(&old);
                }
            }
            self.cond.notify_all();
        }
        self.notify_external();
    }

    /// Spawns `workers` pool threads draining the queue through
    /// `runner`. Worker panics are contained per job: the job fails,
    /// the worker survives.
    pub fn start_workers(
        self: &Arc<Self>,
        workers: usize,
        runner: &RunnerFn,
    ) -> Vec<JoinHandle<()>> {
        (0..workers)
            .map(|n| {
                let queue = Arc::clone(self);
                let runner = Arc::clone(runner);
                std::thread::Builder::new()
                    .name(format!("carma-serve-worker-{n}"))
                    .spawn(move || queue.worker_loop(&runner))
                    .expect("spawn worker thread")
            })
            .collect()
    }

    fn worker_loop(&self, runner: &RunnerFn) {
        loop {
            // Claim the next job (or exit on shutdown).
            let (id, fingerprint, spec) = {
                let mut state = self.state.lock().expect("queue lock");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(id) = state.pending.pop_front() {
                        state.running += 1;
                        let job = state.jobs.get_mut(&id).expect("pending job exists");
                        job.status = JobStatus::Running;
                        break (id, job.fingerprint.clone(), job.spec.clone());
                    }
                    state = self.cond.wait(state).expect("queue lock");
                }
            };

            let outcome = catch_unwind(AssertUnwindSafe(|| runner(&fingerprint, &spec)))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(std::string::ToString::to_string)
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "runner panicked".to_string());
                    Err(format!("runner panicked: {msg}"))
                });

            let mut state = self.state.lock().expect("queue lock");
            state.running -= 1;
            state.inflight.remove(&fingerprint);
            // A shutdown that raced this job already marked it Failed,
            // counted it, and pushed it into the finished history —
            // don't flip a state waiters and pollers have observed.
            let abandoned = state.shutdown
                && matches!(
                    state.jobs.get(&id).map(|j| &j.status),
                    Some(JobStatus::Failed(_)) | None
                );
            if !abandoned {
                match outcome {
                    Ok(_) => state.completed += 1,
                    Err(_) => state.failed += 1,
                }
                if let Some(job) = state.jobs.get_mut(&id) {
                    job.status = match outcome {
                        Ok(payload) => JobStatus::Done(payload),
                        Err(msg) => JobStatus::Failed(msg),
                    };
                }
                // Bound the finished-job history so a long-lived
                // server never accumulates unbounded metadata (late
                // pollers of an evicted id get 404; the result stays
                // in the cache).
                state.finished.push_back(id);
                while state.finished.len() > FINISHED_JOB_HISTORY {
                    if let Some(old) = state.finished.pop_front() {
                        state.jobs.remove(&old);
                    }
                }
            }
            self.cond.notify_all();
            drop(state);
            self.notify_external();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::named("fig2")
    }

    /// A runner the tests control: sleeps a beat, then echoes the
    /// fingerprint, failing on demand.
    fn echo_runner(delay: Duration, fail_on: Option<&'static str>) -> RunnerFn {
        Arc::new(move |fingerprint, _spec| {
            std::thread::sleep(delay);
            if fail_on == Some(fingerprint) {
                Err("injected failure".to_string())
            } else if fingerprint == "0000000000000000" {
                panic!("injected panic");
            } else {
                Ok(Arc::new(format!("{{\"fp\":\"{fingerprint}\"}}")))
            }
        })
    }

    #[test]
    fn submit_run_wait_roundtrip() {
        let queue = JobQueue::new(8);
        let workers = queue.start_workers(2, &echo_runner(Duration::ZERO, None));
        let Submit::Enqueued(id) = queue.submit("aa11", "fig2", &spec()) else {
            panic!("fresh fingerprint must enqueue");
        };
        let done = queue.wait(id).expect("job exists");
        match done.status {
            JobStatus::Done(payload) => assert_eq!(&*payload, "{\"fp\":\"aa11\"}"),
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(done.experiment, "fig2");
        let completed = queue.stats().completed;
        assert_eq!(completed, 1);
        queue.shutdown();
        for handle in workers {
            handle.join().expect("worker exits cleanly");
        }
    }

    #[test]
    fn identical_fingerprints_coalesce_while_in_flight() {
        let queue = JobQueue::new(8);
        // No workers yet: the first submit stays queued, so the second
        // must coalesce onto it rather than duplicating the work.
        let Submit::Enqueued(id) = queue.submit("bb22", "fig2", &spec()) else {
            panic!("fresh fingerprint must enqueue");
        };
        assert_eq!(queue.submit("bb22", "fig2", &spec()), Submit::Coalesced(id));
        // A different fingerprint still enqueues.
        assert!(matches!(
            queue.submit("cc33", "fig2", &spec()),
            Submit::Enqueued(_)
        ));
        let workers = queue.start_workers(1, &echo_runner(Duration::ZERO, None));
        queue.wait(id).expect("job exists");
        // Once done, the fingerprint is no longer in flight — a
        // resubmission is a fresh job (the server checks its cache
        // first, so this only happens on a cache eviction or miss).
        assert!(matches!(
            queue.submit("bb22", "fig2", &spec()),
            Submit::Enqueued(_)
        ));
        queue.shutdown();
        for handle in workers {
            handle.join().expect("worker exits cleanly");
        }
    }

    #[test]
    fn bounded_queue_reports_full() {
        let queue = JobQueue::new(2);
        // No workers: submissions stay pending.
        assert!(matches!(
            queue.submit("01aa", "fig2", &spec()),
            Submit::Enqueued(_)
        ));
        assert!(matches!(
            queue.submit("02bb", "fig2", &spec()),
            Submit::Enqueued(_)
        ));
        assert_eq!(queue.submit("03cc", "fig2", &spec()), Submit::QueueFull);
        // Coalescing still works at capacity — it adds no queue entry.
        assert!(matches!(
            queue.submit("01aa", "fig2", &spec()),
            Submit::Coalesced(_)
        ));
        queue.shutdown();
    }

    #[test]
    fn failures_and_panics_mark_the_job_failed_not_the_pool() {
        let queue = JobQueue::new(8);
        let workers = queue.start_workers(1, &echo_runner(Duration::ZERO, Some("ee55")));
        let Submit::Enqueued(fail_id) = queue.submit("ee55", "fig2", &spec()) else {
            panic!("enqueue");
        };
        // "0000000000000000" trips the injected panic path.
        let Submit::Enqueued(panic_id) = queue.submit("0000000000000000", "fig2", &spec()) else {
            panic!("enqueue");
        };
        let Submit::Enqueued(ok_id) = queue.submit("ff66", "fig2", &spec()) else {
            panic!("enqueue");
        };
        match queue.wait(fail_id).expect("exists").status {
            JobStatus::Failed(msg) => assert!(msg.contains("injected failure"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        match queue.wait(panic_id).expect("exists").status {
            JobStatus::Failed(msg) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The worker survived both and still completes real work.
        match queue.wait(ok_id).expect("exists").status {
            JobStatus::Done(_) => {}
            other => panic!("expected Done, got {other:?}"),
        }
        queue.shutdown();
        for handle in workers {
            handle.join().expect("worker exits cleanly");
        }
    }

    #[test]
    fn finished_job_history_is_bounded() {
        let queue = JobQueue::new(FINISHED_JOB_HISTORY + 16);
        let workers = queue.start_workers(1, &echo_runner(Duration::ZERO, None));
        let mut first_id = None;
        let mut last_id = 0;
        for n in 0..FINISHED_JOB_HISTORY + 1 {
            let Submit::Enqueued(id) = queue.submit(&format!("{n:016x}1"), "fig2", &spec()) else {
                panic!("enqueue {n}");
            };
            first_id.get_or_insert(id);
            last_id = id;
        }
        queue.wait(last_id).expect("last job exists");
        // One over the cap: the oldest finished record is gone, the
        // newest is still pollable.
        assert!(
            queue.status(first_id.expect("submitted")).is_none(),
            "oldest finished job must be evicted"
        );
        assert!(queue.status(last_id).is_some());
        let completed = queue.stats().completed;
        assert_eq!(completed, (FINISHED_JOB_HISTORY + 1) as u64);
        queue.shutdown();
        for handle in workers {
            handle.join().expect("worker exits cleanly");
        }
    }

    #[test]
    fn unknown_job_ids_are_none() {
        let queue = JobQueue::new(2);
        assert!(queue.status(99).is_none());
        assert!(queue.wait(99).is_none());
    }

    #[test]
    fn shutdown_unblocks_waiters() {
        let queue = JobQueue::new(2);
        // No workers ever run this job.
        let Submit::Enqueued(id) = queue.submit("abcd", "fig2", &spec()) else {
            panic!("enqueue");
        };
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.wait(id))
        };
        std::thread::sleep(Duration::from_millis(50));
        queue.shutdown();
        let snapshot = waiter.join().expect("waiter exits").expect("job exists");
        assert!(matches!(snapshot.status, JobStatus::Failed(_)));
    }

    /// Regression: `wait` used to fabricate a `Failed` snapshot on
    /// shutdown while `status` (what `GET /jobs/:id` serves) kept
    /// reporting the same job as `queued` — a poller and a waiter
    /// disagreed about the same id. Shutdown now transitions abandoned
    /// jobs in the table itself, so both views agree.
    #[test]
    fn shutdown_job_status_agrees_with_wait() {
        let queue = JobQueue::new(4);
        // No workers: the job stays queued until shutdown abandons it.
        let Submit::Enqueued(id) = queue.submit("feed", "fig2", &spec()) else {
            panic!("enqueue");
        };
        let before = queue.status(id).expect("job exists");
        assert!(matches!(before.status, JobStatus::Queued));
        queue.shutdown();
        // Poll the id across the shutdown: status and wait must both
        // see Failed, with the shutdown message.
        let polled = queue.status(id).expect("job still pollable");
        match &polled.status {
            JobStatus::Failed(msg) => assert!(msg.contains("shutting down"), "{msg}"),
            other => panic!("status after shutdown is {other:?}, wait would say Failed"),
        }
        let waited = queue.wait(id).expect("job exists");
        assert_eq!(waited.status.as_str(), polled.status.as_str());
        // And the abandonment is visible in the failure counter.
        assert_eq!(queue.stats().failed, 1);
        assert_eq!(queue.stats().completed, 0);
    }
}
