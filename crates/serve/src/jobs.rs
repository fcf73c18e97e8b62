//! Asynchronous profiling jobs: clients submit a workload, get a job id
//! back immediately, and poll its state while dedicated runner threads
//! chew through the queue. Profiling is the only slow operation in the
//! service (seconds, versus microseconds for a cached prediction), so it
//! is the only thing that goes through the queue.

use rppm::WorkloadHandle;
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Lifecycle of one profiling job.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting for a runner thread.
    Queued,
    /// A runner is profiling (or coalescing onto an in-flight run).
    Running,
    /// Profile resident in the cache; predictions now take the fast path.
    Done {
        /// Workload name the profile is stored under.
        workload: String,
    },
    /// The profiling run panicked or the workload was invalid.
    Failed {
        /// One-line diagnostic.
        error: String,
    },
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// Counts per state, for `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobCounts {
    /// Jobs waiting for a runner.
    pub queued: usize,
    /// Jobs being profiled right now.
    pub running: usize,
    /// Jobs that completed.
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    states: HashMap<u64, JobState>,
    queue: VecDeque<(u64, WorkloadHandle)>,
    shutdown: bool,
}

/// A submit/poll queue of profiling jobs, drained by runner threads.
#[derive(Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a profiling job for `workload` and returns its id.
    pub fn submit(&self, workload: WorkloadHandle) -> u64 {
        let mut inner = self.inner.lock().expect("job queue lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.states.insert(id, JobState::Queued);
        inner.queue.push_back((id, workload));
        drop(inner);
        self.ready.notify_one();
        id
    }

    /// Blocks until a job is available (returning it marked `Running`) or
    /// the queue shuts down (returning `None`). Runner threads loop on
    /// this.
    pub fn next_job(&self) -> Option<(u64, WorkloadHandle)> {
        let mut inner = self.inner.lock().expect("job queue lock");
        loop {
            if let Some((id, handle)) = inner.queue.pop_front() {
                inner.states.insert(id, JobState::Running);
                return Some((id, handle));
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue lock");
        }
    }

    /// Records a finished job's outcome.
    pub fn finish(&self, id: u64, outcome: Result<String, String>) {
        let state = match outcome {
            Ok(workload) => JobState::Done { workload },
            Err(error) => JobState::Failed { error },
        };
        self.inner
            .lock()
            .expect("job queue lock")
            .states
            .insert(id, state);
    }

    /// The state of job `id`, if it exists.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.inner
            .lock()
            .expect("job queue lock")
            .states
            .get(&id)
            .cloned()
    }

    /// Per-state job counts.
    pub fn counts(&self) -> JobCounts {
        let inner = self.inner.lock().expect("job queue lock");
        let mut c = JobCounts::default();
        for s in inner.states.values() {
            match s {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done { .. } => c.done += 1,
                JobState::Failed { .. } => c.failed += 1,
            }
        }
        c
    }

    /// Wakes every runner and makes [`JobQueue::next_job`] return `None`
    /// once the queue drains.
    pub fn shutdown(&self) {
        self.inner.lock().expect("job queue lock").shutdown = true;
        self.ready.notify_all();
    }
}

/// The error a job reports when its profiling run panicked: the panic's
/// message (a `&str` or `String` payload) after a fixed prefix, e.g.
/// `profiling run panicked: deadlock during profiling of W: T0 waits on
/// consume(Q0)`.
pub(crate) fn failure_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    match message {
        Some(m) => format!("profiling run panicked: {m}"),
        None => "profiling run panicked".to_string(),
    }
}

/// The `/jobs/<id>` response document.
pub fn job_doc(id: u64, state: &JobState) -> Value {
    let mut fields = vec![
        ("job".to_string(), Value::U64(id)),
        (
            "state".to_string(),
            Value::String(state.label().to_string()),
        ),
    ];
    match state {
        JobState::Done { workload } => {
            fields.push(("workload".into(), Value::String(workload.clone())));
        }
        JobState::Failed { error } => {
            fields.push(("error".into(), Value::String(error.clone())));
        }
        _ => {}
    }
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm::Session;

    #[test]
    fn submit_poll_finish_cycle() {
        let q = JobQueue::new();
        let session = Session::builder().jobs(1).build();
        let w = session.workload("nn").expect("catalog");
        let id = q.submit(w);
        assert!(matches!(q.state(id), Some(JobState::Queued)));
        let (got, _handle) = q.next_job().expect("queued job");
        assert_eq!(got, id);
        assert!(matches!(q.state(id), Some(JobState::Running)));
        q.finish(id, Ok("nn".into()));
        assert!(matches!(q.state(id), Some(JobState::Done { .. })));
        assert_eq!(q.counts().done, 1);
        assert!(q.state(id + 1).is_none());
        q.shutdown();
        assert!(q.next_job().is_none());
    }

    #[test]
    fn job_doc_carries_outcome() {
        let done = job_doc(
            3,
            &JobState::Done {
                workload: "nn".into(),
            },
        );
        assert_eq!(
            serde_json::to_string(&done).unwrap(),
            r#"{"job":3,"state":"done","workload":"nn"}"#
        );
        let failed = job_doc(
            4,
            &JobState::Failed {
                error: "boom".into(),
            },
        );
        assert!(serde_json::to_string(&failed).unwrap().contains("boom"));
    }

    #[test]
    fn failure_message_carries_the_panic_payload() {
        let caught = |f: fn()| std::panic::catch_unwind(f).expect_err("panics");
        let formatted = caught(|| panic!("deadlock in {}", "w"));
        assert_eq!(
            failure_message(formatted.as_ref()),
            "profiling run panicked: deadlock in w"
        );
        let literal = caught(|| panic!("static message"));
        assert_eq!(
            failure_message(literal.as_ref()),
            "profiling run panicked: static message"
        );
        let opaque = caught(|| std::panic::panic_any(7u32));
        assert_eq!(failure_message(opaque.as_ref()), "profiling run panicked");
    }
}
