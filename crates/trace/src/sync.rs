//! Synchronization events and the one state machine that gives them their
//! meaning.
//!
//! RPPM's profiler hooks the pthread/OpenMP library calls that delimit
//! inter-synchronization epochs (Section III-A of the paper). Our trace IR
//! carries the same events as first-class items in each thread's stream
//! ([`SyncOp`]).
//!
//! Condition variables deserve care: in the paper, whether a thread actually
//! calls `pthread_cond_wait` is timing-dependent, so source-level *markers*
//! flag every point where a thread *may* wait. Our IR takes the equivalent
//! route: condition-variable synchronization appears as semantic operations
//! ([`SyncOp::Produce`], [`SyncOp::Consume`], and barriers flagged
//! `via_cond`), i.e. the trace records the marker — the possibility of
//! waiting — and the timing domains decide who actually waits.
//!
//! Three engines replay these events: the profiler's unit-cost executor,
//! Algorithm 2's symbolic execution over predicted epoch times (Phase 2 of
//! the paper) and the golden simulator. Algorithm 2 is only as good as its
//! agreement with the simulator's rules, so the rules live once, here:
//! [`SyncState`] owns thread status, barrier arrivals, mutex, reader-writer
//! lock, semaphore and queue state and joiners, generic over the clock
//! type. Each engine keeps only its clock work (closing a profiling epoch,
//! charging library overhead and spawn latency, recording active
//! intervals) and runs ready threads in time order through the shared
//! [`EventQueue`](crate::EventQueue).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet, VecDeque};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> u32 {
                v.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name).chars().next().unwrap_or('#'), self.0)
            }
        }

        impl $name {
            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_newtype!(
    /// Identifies a thread within a [`crate::Program`] (0 is the main thread).
    ThreadId
);
id_newtype!(
    /// Identifies a barrier object.
    BarrierId
);
id_newtype!(
    /// Identifies a mutex object (critical section).
    MutexId
);
id_newtype!(
    /// Identifies a condition-variable object.
    CondId
);
id_newtype!(
    /// Identifies a producer/consumer queue implemented with a condition
    /// variable.
    QueueId
);
id_newtype!(
    /// Identifies a reader-writer lock object.
    ///
    /// Reader-writer events are trace-format version 2: traces containing
    /// them cannot be serialized as version-1 artifacts.
    RwLockId
);
id_newtype!(
    /// Identifies a counting semaphore object.
    ///
    /// Semaphore events are trace-format version 2: traces containing them
    /// cannot be serialized as version-1 artifacts.
    SemId
);

/// A synchronization event in a thread's dynamic stream.
///
/// Each variant corresponds to a library call the paper's profiler tracks
/// (`pthread_create`, `pthread_join`, `pthread_mutex_lock`/`unlock`,
/// `gomp_team_barrier_wait`, `pthread_cond_wait`/`broadcast` + manual
/// markers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncOp {
    /// The executing thread creates (unblocks) `child`.
    Create {
        /// Thread being created.
        child: ThreadId,
    },
    /// The executing thread waits until `child` has finished its stream.
    Join {
        /// Thread being joined.
        child: ThreadId,
    },
    /// All participating threads wait for each other at barrier `id`.
    Barrier {
        /// Barrier object.
        id: BarrierId,
        /// Whether the barrier is implemented with a condition variable
        /// (recognized via markers, Section III-A); affects only how the
        /// profiler classifies the event for Table III, not its semantics.
        via_cond: bool,
    },
    /// Enter the critical section guarded by mutex `id`.
    Lock {
        /// Mutex object.
        id: MutexId,
    },
    /// Leave the critical section guarded by mutex `id`.
    Unlock {
        /// Mutex object.
        id: MutexId,
    },
    /// Producer side of a condition variable: make `count` items available in
    /// `queue` and broadcast.
    Produce {
        /// Queue (condition variable) identifier.
        queue: QueueId,
        /// Number of items produced.
        count: u32,
    },
    /// Consumer side of a condition variable: take one item from `queue`,
    /// waiting if none is available (this is the paper's `CondMarker` — the
    /// *possibility* of waiting).
    Consume {
        /// Queue (condition variable) identifier.
        queue: QueueId,
    },
    /// Acquire reader-writer lock `id` (`pthread_rwlock_rdlock` /
    /// `wrlock`). Readers share the lock; a writer is exclusive. Grants are
    /// FIFO by arrival (writers are not starved by late readers).
    ///
    /// Trace-format version 2.
    RwLock {
        /// Reader-writer lock object.
        id: RwLockId,
        /// `true` for a writer (exclusive) acquisition.
        write: bool,
    },
    /// Release reader-writer lock `id` (one reader share, or the writer).
    ///
    /// Trace-format version 2.
    RwUnlock {
        /// Reader-writer lock object.
        id: RwLockId,
    },
    /// Decrement semaphore `id` (`sem_wait`), blocking while its count is
    /// zero.
    ///
    /// Trace-format version 2.
    SemWait {
        /// Semaphore object.
        id: SemId,
    },
    /// Increment semaphore `id` by `count` (`sem_post`), waking blocked
    /// waiters.
    ///
    /// Trace-format version 2.
    SemPost {
        /// Semaphore object.
        id: SemId,
        /// Number of permits released.
        count: u32,
    },
}

impl SyncOp {
    /// Whether this event can block the executing thread.
    pub fn may_block(&self) -> bool {
        !matches!(
            self,
            SyncOp::Create { .. }
                | SyncOp::Unlock { .. }
                | SyncOp::Produce { .. }
                | SyncOp::RwUnlock { .. }
                | SyncOp::SemPost { .. }
        )
    }

    /// Paper-taxonomy category used for Table III accounting.
    pub fn category(&self) -> SyncCategory {
        match self {
            SyncOp::Lock { .. }
            | SyncOp::Unlock { .. }
            | SyncOp::RwLock { .. }
            | SyncOp::RwUnlock { .. } => SyncCategory::CriticalSection,
            SyncOp::Barrier {
                via_cond: false, ..
            } => SyncCategory::Barrier,
            SyncOp::Barrier { via_cond: true, .. } => SyncCategory::CondVar,
            SyncOp::Produce { .. }
            | SyncOp::Consume { .. }
            | SyncOp::SemWait { .. }
            | SyncOp::SemPost { .. } => SyncCategory::CondVar,
            SyncOp::Create { .. } | SyncOp::Join { .. } => SyncCategory::ThreadMgmt,
        }
    }

    /// Minimum trace-format version able to carry this event: version 1
    /// for the paper's original event set, version 2 for reader-writer
    /// locks and semaphores.
    pub fn min_format_version(&self) -> u32 {
        match self {
            SyncOp::RwLock { .. }
            | SyncOp::RwUnlock { .. }
            | SyncOp::SemWait { .. }
            | SyncOp::SemPost { .. } => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for SyncOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncOp::Create { child } => write!(f, "create({child})"),
            SyncOp::Join { child } => write!(f, "join({child})"),
            SyncOp::Barrier { id, via_cond } => {
                if *via_cond {
                    write!(f, "barrier({id}, cond)")
                } else {
                    write!(f, "barrier({id})")
                }
            }
            SyncOp::Lock { id } => write!(f, "lock({id})"),
            SyncOp::Unlock { id } => write!(f, "unlock({id})"),
            SyncOp::Produce { queue, count } => write!(f, "produce({queue}, {count})"),
            SyncOp::Consume { queue } => write!(f, "consume({queue})"),
            SyncOp::RwLock { id, write } => {
                if *write {
                    write!(f, "rwlock({id}, write)")
                } else {
                    write!(f, "rwlock({id}, read)")
                }
            }
            SyncOp::RwUnlock { id } => write!(f, "rwunlock({id})"),
            SyncOp::SemWait { id } => write!(f, "sem_wait({id})"),
            SyncOp::SemPost { id, count } => write!(f, "sem_post({id}, {count})"),
        }
    }
}

/// Synchronization categories as reported in Table III of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncCategory {
    /// Critical sections (`pthread_mutex_lock`/`unlock` pairs).
    CriticalSection,
    /// Barriers (`gomp_team_barrier_wait`, `pthread_barrier_wait`).
    Barrier,
    /// Condition variables (waits/broadcasts/markers).
    CondVar,
    /// Thread creation and joining (not reported in Table III).
    ThreadMgmt,
}

impl std::fmt::Display for SyncCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SyncCategory::CriticalSection => "critical section",
            SyncCategory::Barrier => "barrier",
            SyncCategory::CondVar => "condition variable",
            SyncCategory::ThreadMgmt => "thread management",
        };
        f.write_str(s)
    }
}

/// Dynamic synchronization-event counts by paper category (Table III).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncEventCounts {
    /// Critical sections entered (lock and reader-writer lock
    /// acquisitions; releases belong to the same section).
    pub critical_sections: u64,
    /// Barrier waits (plain barriers).
    pub barriers: u64,
    /// Condition-variable events (cond-implemented barriers, produces,
    /// consumes, semaphore posts and waits).
    pub cond_vars: u64,
}

impl SyncEventCounts {
    /// Counts one event under its [`SyncOp::category`].
    pub fn record(&mut self, op: &SyncOp) {
        match op.category() {
            SyncCategory::CriticalSection if op.may_block() => self.critical_sections += 1,
            SyncCategory::Barrier => self.barriers += 1,
            SyncCategory::CondVar => self.cond_vars += 1,
            SyncCategory::CriticalSection | SyncCategory::ThreadMgmt => {}
        }
    }
}

/// Counts, per barrier id, the threads taking part in it: every thread
/// whose event stream names the barrier joins each of its instances.
/// Barrier participation is a static property of the program (or
/// profile), so [`SyncState::new`] computes it once.
fn barrier_participants<I, E>(events_per_thread: I) -> HashMap<u32, usize>
where
    I: IntoIterator<Item = E>,
    E: IntoIterator,
    E::Item: Borrow<SyncOp>,
{
    let mut participants: HashMap<u32, usize> = HashMap::new();
    let mut seen = HashSet::new();
    for events in events_per_thread {
        seen.clear();
        for ev in events {
            if let SyncOp::Barrier { id, .. } = *ev.borrow() {
                if seen.insert(id.0) {
                    *participants.entry(id.0).or_insert(0) += 1;
                }
            }
        }
    }
    participants
}

/// Where a thread stands in the synchronization state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Not yet created (every thread but the main thread starts here).
    NotStarted,
    /// Runnable: running, or waiting in the engine's ready queue.
    Ready,
    /// Waiting on the given event until another thread's event or finish
    /// wakes it.
    Blocked(SyncOp),
    /// Reached the end of its stream.
    Done,
}

/// What the calling thread does after [`SyncState::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step<T> {
    /// Continue at the current time.
    Proceed,
    /// Continue after waiting in place until the given, later, time (join
    /// of a finished thread, last barrier arrival, an item or permit made
    /// available after this thread's clock).
    WaitUntil(T),
    /// The thread blocked; a wakeup reported by a later
    /// [`apply`](SyncState::apply) or [`finish`](SyncState::finish)
    /// resumes it.
    Blocked,
}

/// The threads left unfinished when no thread can run: each blocked thread
/// with the event it waits on, and threads never created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// Every unfinished thread and its status (`Blocked` or `NotStarted`).
    pub stuck: Vec<(ThreadId, ThreadStatus)>,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, (t, status)) in self.stuck.iter().enumerate() {
            if k > 0 {
                f.write_str(", ")?;
            }
            match status {
                ThreadStatus::Blocked(op) => write!(f, "{t} waits on {op}")?,
                ThreadStatus::NotStarted => write!(f, "{t} never created")?,
                other => write!(f, "{t} {other:?}")?,
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct ThreadSync<T> {
    status: ThreadStatus,
    /// Clock at which the thread last blocked.
    since: T,
    /// Clock at which the thread finished.
    finish: T,
    /// Threads blocked joining this one, in arrival order.
    joiners: Vec<usize>,
}

#[derive(Debug, Clone, Default)]
struct BarrierState<T> {
    arrived: Vec<usize>,
    latest: T,
}

#[derive(Debug, Clone, Default)]
struct MutexState {
    held_by: Option<usize>,
    queue: VecDeque<usize>,
}

#[derive(Debug, Clone, Default)]
struct RwLockState {
    writer: Option<usize>,
    readers: usize,
    /// Blocked acquirers in arrival order: `(thread, wants_write)`.
    queue: VecDeque<(usize, bool)>,
}

/// A producer/consumer queue or a counting semaphore: available items
/// (permits) carry the time they became available.
#[derive(Debug, Clone, Default)]
struct FifoState<T> {
    items: VecDeque<T>,
    waiting: VecDeque<usize>,
}

/// The synchronization rules shared by every execution engine: thread
/// status, barriers, mutexes, reader-writer locks, semaphores,
/// producer/consumer queues and joins, over a clock type `T` (`u64` ticks
/// in the profiler, `f64` cycles in symbolic execution and the simulator).
///
/// The engine owns the clocks. It calls [`apply`](Self::apply) with the
/// thread's current time when the thread reaches an event and
/// [`finish`](Self::finish) when it reaches the end of its stream, then
/// resumes every thread in [`wakeups`](Self::wakeups) at the reported time
/// (never earlier than that thread's own clock). Creating a thread marks
/// the child [`ThreadStatus::Ready`] and reports no wakeup: starting a
/// thread (spawn latency, start time) is clock work the engine does itself.
///
/// Grants are FIFO by arrival. A mutex goes to its oldest waiter. After a
/// release, a reader-writer lock admits the writer at the front of its
/// queue alone once the lock is free, or else the run of readers at the
/// front together. An item or permit goes to the oldest waiter, which
/// resumes at the later of the item's time and the time it blocked. A
/// barrier releases every participant at the latest arrival.
#[derive(Debug, Clone)]
pub struct SyncState<T> {
    threads: Vec<ThreadSync<T>>,
    participants: HashMap<u32, usize>,
    barriers: HashMap<u32, BarrierState<T>>,
    mutexes: HashMap<u32, MutexState>,
    rwlocks: HashMap<u32, RwLockState>,
    queues: HashMap<u32, FifoState<T>>,
    sems: HashMap<u32, FifoState<T>>,
    wakeups: Vec<(usize, T)>,
}

impl<T: Copy + PartialOrd + Default> SyncState<T> {
    /// Creates the state for a program whose threads carry the given event
    /// streams (one item per thread, in thread order). Thread 0 starts
    /// ready; every other thread waits to be created.
    pub fn new<I, E>(events_per_thread: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: IntoIterator,
        E::Item: Borrow<SyncOp>,
    {
        let mut n = 0;
        let participants = barrier_participants(events_per_thread.into_iter().inspect(|_| n += 1));
        let thread = ThreadSync {
            status: ThreadStatus::NotStarted,
            since: T::default(),
            finish: T::default(),
            joiners: Vec::new(),
        };
        let mut state = SyncState {
            threads: vec![thread; n],
            participants,
            barriers: HashMap::new(),
            mutexes: HashMap::new(),
            rwlocks: HashMap::new(),
            queues: HashMap::new(),
            sems: HashMap::new(),
            wakeups: Vec::new(),
        };
        state.reset();
        state
    }

    /// Returns every thread and primitive to its initial state, keeping all
    /// allocations (repeated executions of one program reuse them).
    pub fn reset(&mut self) {
        for (i, th) in self.threads.iter_mut().enumerate() {
            th.status = if i == 0 {
                ThreadStatus::Ready
            } else {
                ThreadStatus::NotStarted
            };
            th.since = T::default();
            th.finish = T::default();
            th.joiners.clear();
        }
        for b in self.barriers.values_mut() {
            b.arrived.clear();
            b.latest = T::default();
        }
        for m in self.mutexes.values_mut() {
            m.held_by = None;
            m.queue.clear();
        }
        for rw in self.rwlocks.values_mut() {
            rw.writer = None;
            rw.readers = 0;
            rw.queue.clear();
        }
        for q in self.queues.values_mut().chain(self.sems.values_mut()) {
            q.items.clear();
            q.waiting.clear();
        }
        self.wakeups.clear();
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The status of `thread`.
    pub fn status(&self, thread: usize) -> ThreadStatus {
        self.threads[thread].status
    }

    /// Whether `thread` is runnable.
    pub fn is_ready(&self, thread: usize) -> bool {
        self.threads[thread].status == ThreadStatus::Ready
    }

    /// The time `thread` finished (`T::default()` until it has).
    pub fn finish_time(&self, thread: usize) -> T {
        self.threads[thread].finish
    }

    /// Threads the last [`apply`](Self::apply) or [`finish`](Self::finish)
    /// made runnable, with the time each resumes at, in wake order. Each is
    /// [`ThreadStatus::Ready`] already.
    pub fn wakeups(&self) -> &[(usize, T)] {
        &self.wakeups
    }

    /// Applies event `op` of the running thread `thread`, reached at time
    /// `now`, and reports what the thread does next. Threads the event
    /// releases are listed in [`wakeups`](Self::wakeups).
    ///
    /// # Panics
    ///
    /// Panics if a thread is created twice or a barrier has no recorded
    /// participants (an event stream other than the one the state was
    /// built from).
    pub fn apply(&mut self, thread: usize, op: SyncOp, now: T) -> Step<T> {
        debug_assert!(self.is_ready(thread), "T{thread} is not running");
        self.wakeups.clear();
        let threads = &mut self.threads;
        let wakeups = &mut self.wakeups;
        let granted = match op {
            SyncOp::Create { child } => {
                let c = &mut threads[child.index()];
                assert_eq!(
                    c.status,
                    ThreadStatus::NotStarted,
                    "thread {child} created twice"
                );
                c.status = ThreadStatus::Ready;
                true
            }
            SyncOp::Join { child } => {
                let c = &mut threads[child.index()];
                if c.status == ThreadStatus::Done {
                    return wait_until(c.finish, now);
                }
                c.joiners.push(thread);
                false
            }
            SyncOp::Barrier { id, .. } => {
                let need = *self.participants.get(&id.0).expect("known barrier");
                let bar = self.barriers.entry(id.0).or_default();
                bar.arrived.push(thread);
                if now > bar.latest {
                    bar.latest = now;
                }
                if bar.arrived.len() < need {
                    false
                } else {
                    let release = bar.latest;
                    for &w in &bar.arrived {
                        if w != thread {
                            wake(threads, wakeups, w, release);
                        }
                    }
                    bar.arrived.clear();
                    bar.latest = T::default();
                    return wait_until(release, now);
                }
            }
            SyncOp::Lock { id } => {
                let m = self.mutexes.entry(id.0).or_default();
                let free = m.held_by.is_none() && m.queue.is_empty();
                if free {
                    m.held_by = Some(thread);
                } else {
                    m.queue.push_back(thread);
                }
                free
            }
            SyncOp::Unlock { id } => {
                let m = self.mutexes.entry(id.0).or_default();
                m.held_by = m.queue.pop_front();
                if let Some(w) = m.held_by {
                    wake(threads, wakeups, w, now);
                }
                true
            }
            SyncOp::RwLock { id, write } => {
                let rw = self.rwlocks.entry(id.0).or_default();
                let free = rw.writer.is_none() && rw.queue.is_empty();
                let grant = free && (!write || rw.readers == 0);
                if !grant {
                    rw.queue.push_back((thread, write));
                } else if write {
                    rw.writer = Some(thread);
                } else {
                    rw.readers += 1;
                }
                grant
            }
            SyncOp::RwUnlock { id } => {
                let rw = self.rwlocks.entry(id.0).or_default();
                if rw.writer == Some(thread) {
                    rw.writer = None;
                } else {
                    rw.readers = rw.readers.saturating_sub(1);
                }
                if rw.writer.is_none() {
                    if let Some(&(w, true)) = rw.queue.front() {
                        if rw.readers == 0 {
                            rw.queue.pop_front();
                            rw.writer = Some(w);
                            wake(threads, wakeups, w, now);
                        }
                    } else {
                        while let Some(&(w, false)) = rw.queue.front() {
                            rw.queue.pop_front();
                            rw.readers += 1;
                            wake(threads, wakeups, w, now);
                        }
                    }
                }
                true
            }
            // Semaphores are queues whose items are permits.
            SyncOp::Produce {
                queue: QueueId(id),
                count,
            }
            | SyncOp::SemPost {
                id: SemId(id),
                count,
            } => {
                let fifos = match op {
                    SyncOp::Produce { .. } => &mut self.queues,
                    _ => &mut self.sems,
                };
                let q = fifos.entry(id).or_default();
                for _ in 0..count {
                    q.items.push_back(now);
                }
                while !q.items.is_empty() && !q.waiting.is_empty() {
                    let item = q.items.pop_front().expect("nonempty");
                    let w = q.waiting.pop_front().expect("nonempty");
                    let since = threads[w].since;
                    wake(threads, wakeups, w, if since > item { since } else { item });
                }
                true
            }
            SyncOp::Consume { queue: QueueId(id) } | SyncOp::SemWait { id: SemId(id) } => {
                let fifos = match op {
                    SyncOp::Consume { .. } => &mut self.queues,
                    _ => &mut self.sems,
                };
                let q = fifos.entry(id).or_default();
                match q.items.pop_front() {
                    Some(item) => return wait_until(item, now),
                    None => q.waiting.push_back(thread),
                }
                false
            }
        };
        if granted {
            Step::Proceed
        } else {
            let th = &mut threads[thread];
            th.status = ThreadStatus::Blocked(op);
            th.since = now;
            Step::Blocked
        }
    }

    /// Marks `thread` finished at time `t`, waking its joiners at `t` (see
    /// [`wakeups`](Self::wakeups)).
    pub fn finish(&mut self, thread: usize, t: T) {
        self.wakeups.clear();
        let th = &mut self.threads[thread];
        th.status = ThreadStatus::Done;
        th.finish = t;
        let mut joiners = std::mem::take(&mut th.joiners);
        for &w in &joiners {
            wake(&mut self.threads, &mut self.wakeups, w, t);
        }
        joiners.clear();
        self.threads[thread].joiners = joiners;
    }

    /// `None` once every thread has finished; otherwise the unfinished
    /// threads. An engine whose ready queue runs dry calls this to tell
    /// completion from deadlock.
    pub fn deadlock(&self) -> Option<Deadlock> {
        let stuck: Vec<(ThreadId, ThreadStatus)> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, th)| th.status != ThreadStatus::Done)
            .map(|(i, th)| (ThreadId(i as u32), th.status))
            .collect();
        (!stuck.is_empty()).then_some(Deadlock { stuck })
    }
}

/// Makes blocked thread `w` runnable again at `at`.
fn wake<T>(threads: &mut [ThreadSync<T>], wakeups: &mut Vec<(usize, T)>, w: usize, at: T) {
    debug_assert!(matches!(threads[w].status, ThreadStatus::Blocked(_)));
    threads[w].status = ThreadStatus::Ready;
    wakeups.push((w, at));
}

/// The running thread waits in place until `at` if that is later than
/// `now`.
fn wait_until<T: PartialOrd>(at: T, now: T) -> Step<T> {
    if at > now {
        Step::WaitUntil(at)
    } else {
        Step::Proceed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_conversions_round_trip() {
        let t: ThreadId = 3u32.into();
        assert_eq!(u32::from(t), 3);
        assert_eq!(t.index(), 3);
        assert_eq!(format!("{t}"), "T3");
    }

    #[test]
    fn blocking_classification() {
        assert!(SyncOp::Join { child: ThreadId(1) }.may_block());
        assert!(SyncOp::Barrier {
            id: BarrierId(0),
            via_cond: false
        }
        .may_block());
        assert!(SyncOp::Lock { id: MutexId(0) }.may_block());
        assert!(SyncOp::Consume { queue: QueueId(0) }.may_block());
        assert!(!SyncOp::Unlock { id: MutexId(0) }.may_block());
        assert!(!SyncOp::Create { child: ThreadId(1) }.may_block());
        assert!(!SyncOp::Produce {
            queue: QueueId(0),
            count: 1
        }
        .may_block());
    }

    #[test]
    fn table3_categories() {
        assert_eq!(
            SyncOp::Lock { id: MutexId(0) }.category(),
            SyncCategory::CriticalSection
        );
        assert_eq!(
            SyncOp::Barrier {
                id: BarrierId(0),
                via_cond: false
            }
            .category(),
            SyncCategory::Barrier
        );
        assert_eq!(
            SyncOp::Barrier {
                id: BarrierId(0),
                via_cond: true
            }
            .category(),
            SyncCategory::CondVar
        );
        assert_eq!(
            SyncOp::Consume { queue: QueueId(0) }.category(),
            SyncCategory::CondVar
        );
        assert_eq!(
            SyncOp::Create { child: ThreadId(1) }.category(),
            SyncCategory::ThreadMgmt
        );
    }

    #[test]
    fn display_nonempty() {
        let ops = [
            SyncOp::Create { child: ThreadId(1) },
            SyncOp::Join { child: ThreadId(1) },
            SyncOp::Barrier {
                id: BarrierId(2),
                via_cond: true,
            },
            SyncOp::Lock { id: MutexId(3) },
            SyncOp::Unlock { id: MutexId(3) },
            SyncOp::Produce {
                queue: QueueId(4),
                count: 2,
            },
            SyncOp::Consume { queue: QueueId(4) },
            SyncOp::RwLock {
                id: RwLockId(5),
                write: false,
            },
            SyncOp::RwLock {
                id: RwLockId(5),
                write: true,
            },
            SyncOp::RwUnlock { id: RwLockId(5) },
            SyncOp::SemWait { id: SemId(6) },
            SyncOp::SemPost {
                id: SemId(6),
                count: 2,
            },
        ];
        for op in ops {
            assert!(!format!("{op}").is_empty());
        }
    }

    #[test]
    fn v2_ops_classified() {
        let rd = SyncOp::RwLock {
            id: RwLockId(0),
            write: false,
        };
        let wr = SyncOp::RwLock {
            id: RwLockId(0),
            write: true,
        };
        let un = SyncOp::RwUnlock { id: RwLockId(0) };
        let sw = SyncOp::SemWait { id: SemId(0) };
        let sp = SyncOp::SemPost {
            id: SemId(0),
            count: 1,
        };
        assert!(rd.may_block() && wr.may_block() && sw.may_block());
        assert!(!un.may_block() && !sp.may_block());
        assert_eq!(rd.category(), SyncCategory::CriticalSection);
        assert_eq!(un.category(), SyncCategory::CriticalSection);
        assert_eq!(sw.category(), SyncCategory::CondVar);
        assert_eq!(sp.category(), SyncCategory::CondVar);
        for op in [rd, wr, un, sw, sp] {
            assert_eq!(op.min_format_version(), 2);
        }
        assert_eq!(
            SyncOp::Lock { id: MutexId(0) }.min_format_version(),
            1,
            "original event set stays version 1"
        );
    }

    const BAR: SyncOp = SyncOp::Barrier {
        id: BarrierId(0),
        via_cond: false,
    };
    const LOCK: SyncOp = SyncOp::Lock { id: MutexId(0) };
    const UNLOCK: SyncOp = SyncOp::Unlock { id: MutexId(0) };
    const READ: SyncOp = SyncOp::RwLock {
        id: RwLockId(0),
        write: false,
    };
    const WRITE: SyncOp = SyncOp::RwLock {
        id: RwLockId(0),
        write: true,
    };
    const RW_UNLOCK: SyncOp = SyncOp::RwUnlock { id: RwLockId(0) };
    const CONSUME: SyncOp = SyncOp::Consume { queue: QueueId(0) };
    const PRODUCE: SyncOp = SyncOp::Produce {
        queue: QueueId(0),
        count: 1,
    };
    const SEM_WAIT: SyncOp = SyncOp::SemWait { id: SemId(0) };

    fn sem_post(count: u32) -> SyncOp {
        SyncOp::SemPost {
            id: SemId(0),
            count,
        }
    }

    fn create(c: u32) -> SyncOp {
        SyncOp::Create { child: ThreadId(c) }
    }

    fn join(c: u32) -> SyncOp {
        SyncOp::Join { child: ThreadId(c) }
    }

    /// A state over `n` threads whose streams all name barrier 0, with
    /// every worker already created by the main thread at time 0.
    fn started(n: u32) -> SyncState<u64> {
        let mut st = SyncState::new((0..n).map(|_| [BAR]));
        for c in 1..n {
            assert_eq!(st.apply(0, create(c), 0), Step::Proceed);
            assert!(st.wakeups().is_empty(), "creation reports no wakeup");
            assert!(st.is_ready(c as usize));
        }
        st
    }

    #[test]
    fn participants_count_each_thread_once() {
        let other = SyncOp::Barrier {
            id: BarrierId(1),
            via_cond: true,
        };
        let p = barrier_participants([vec![BAR, BAR, other], vec![BAR], vec![]]);
        assert_eq!((p[&0], p[&1]), (2, 1));
    }

    #[test]
    fn barrier_releases_everyone_at_the_latest_arrival() {
        let mut st = started(3);
        assert_eq!(st.apply(1, BAR, 5), Step::Blocked);
        assert_eq!(st.apply(0, BAR, 20), Step::Blocked);
        assert_eq!(st.status(0), ThreadStatus::Blocked(BAR));
        // The last arrival waits in place until the latest arrival time.
        assert_eq!(st.apply(2, BAR, 10), Step::WaitUntil(20));
        assert_eq!(st.wakeups(), &[(1, 20), (0, 20)]);
        assert!((0..3).all(|t| st.is_ready(t)));
        // The next instance starts from scratch.
        assert_eq!(st.apply(0, BAR, 30), Step::Blocked);
        assert_eq!(st.apply(1, BAR, 31), Step::Blocked);
        assert_eq!(st.apply(2, BAR, 40), Step::Proceed);
        assert_eq!(st.wakeups(), &[(0, 40), (1, 40)]);
    }

    #[test]
    fn mutex_hands_off_in_arrival_order() {
        let mut st = started(3);
        assert_eq!(st.apply(0, LOCK, 0), Step::Proceed);
        assert_eq!(st.apply(2, LOCK, 1), Step::Blocked);
        assert_eq!(st.apply(1, LOCK, 2), Step::Blocked);
        assert_eq!(st.apply(0, UNLOCK, 10), Step::Proceed);
        assert_eq!(st.wakeups(), &[(2, 10)]);
        assert_eq!(st.apply(2, UNLOCK, 20), Step::Proceed);
        assert_eq!(st.wakeups(), &[(1, 20)]);
        assert_eq!(st.apply(1, UNLOCK, 30), Step::Proceed);
        assert!(st.wakeups().is_empty());
        // Free again: the next locker proceeds.
        assert_eq!(st.apply(0, LOCK, 40), Step::Proceed);
    }

    #[test]
    fn rwlock_admits_reader_runs_together_and_writers_alone() {
        let mut st = started(5);
        assert_eq!(st.apply(0, WRITE, 0), Step::Proceed);
        assert_eq!(st.apply(1, READ, 1), Step::Blocked);
        assert_eq!(st.apply(2, READ, 2), Step::Blocked);
        assert_eq!(st.apply(3, WRITE, 3), Step::Blocked);
        assert_eq!(st.apply(4, READ, 4), Step::Blocked);
        // The writer leaves: the run of readers at the front enters, the
        // queued writer stops the run.
        assert_eq!(st.apply(0, RW_UNLOCK, 5), Step::Proceed);
        assert_eq!(st.wakeups(), &[(1, 5), (2, 5)]);
        // The writer enters only once the last reader has left.
        assert_eq!(st.apply(1, RW_UNLOCK, 6), Step::Proceed);
        assert!(st.wakeups().is_empty());
        assert_eq!(st.apply(2, RW_UNLOCK, 7), Step::Proceed);
        assert_eq!(st.wakeups(), &[(3, 7)]);
        assert_eq!(st.apply(3, RW_UNLOCK, 8), Step::Proceed);
        assert_eq!(st.wakeups(), &[(4, 8)]);
        // A reader arriving while only readers hold the lock shares it.
        assert_eq!(st.apply(0, READ, 9), Step::Proceed);
        assert_eq!(st.apply(4, RW_UNLOCK, 10), Step::Proceed);
        assert!(st.wakeups().is_empty());
    }

    #[test]
    fn semaphore_permits_gate_waiters() {
        let mut st = started(4);
        assert_eq!(st.apply(0, sem_post(2), 3), Step::Proceed);
        assert!(st.wakeups().is_empty(), "nobody waits yet");
        // A permit posted after this thread's clock is waited for in place.
        assert_eq!(st.apply(1, SEM_WAIT, 1), Step::WaitUntil(3));
        assert_eq!(st.apply(2, SEM_WAIT, 5), Step::Proceed);
        assert_eq!(st.apply(3, SEM_WAIT, 6), Step::Blocked);
        assert_eq!(st.apply(0, sem_post(1), 9), Step::Proceed);
        assert_eq!(st.wakeups(), &[(3, 9)]);
    }

    #[test]
    fn consumers_wake_at_the_later_of_item_and_block_time() {
        let mut st = started(3);
        assert_eq!(st.apply(1, CONSUME, 10), Step::Blocked);
        assert_eq!(st.apply(2, CONSUME, 2), Step::Blocked);
        // Produced at 4, taken by the consumer that blocked at 10.
        assert_eq!(st.apply(0, PRODUCE, 4), Step::Proceed);
        assert_eq!(st.wakeups(), &[(1, 10)]);
        // Produced at 7, taken by the consumer that blocked at 2.
        assert_eq!(st.apply(0, PRODUCE, 7), Step::Proceed);
        assert_eq!(st.wakeups(), &[(2, 7)]);
    }

    #[test]
    fn join_waits_for_the_child_or_its_finish_time() {
        let mut st = started(3);
        st.finish(1, 50);
        assert!(st.wakeups().is_empty());
        assert_eq!(st.finish_time(1), 50);
        assert_eq!(st.apply(0, join(1), 30), Step::WaitUntil(50));
        assert_eq!(st.apply(0, join(1), 60), Step::Proceed);
        // Joining a running thread blocks until it finishes.
        assert_eq!(st.apply(0, join(2), 70), Step::Blocked);
        st.finish(2, 90);
        assert_eq!(st.wakeups(), &[(0, 90)]);
        st.finish(0, 90);
        assert_eq!(st.deadlock(), None);
    }

    #[test]
    #[should_panic(expected = "created twice")]
    fn double_create_panics() {
        started(2).apply(0, create(1), 0);
    }

    #[test]
    fn deadlock_names_each_stuck_thread_and_its_event() {
        let mut st: SyncState<u64> = SyncState::new([vec![create(1)], vec![CONSUME], vec![]]);
        st.apply(0, create(1), 0);
        assert_eq!(st.apply(1, CONSUME, 5), Step::Blocked);
        st.finish(0, 9);
        let d = st.deadlock().expect("thread 1 is stuck");
        assert_eq!(
            d.stuck,
            [
                (ThreadId(1), ThreadStatus::Blocked(CONSUME)),
                (ThreadId(2), ThreadStatus::NotStarted)
            ]
        );
        assert_eq!(d.to_string(), "T1 waits on consume(Q0), T2 never created");
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut st = started(2);
        assert_eq!(st.apply(1, CONSUME, 5), Step::Blocked);
        st.apply(0, LOCK, 6);
        st.reset();
        assert!(st.is_ready(0));
        assert_eq!(st.status(1), ThreadStatus::NotStarted);
        // The queue's waiter and the mutex holder are gone.
        st.apply(0, create(1), 0);
        assert_eq!(st.apply(1, LOCK, 1), Step::Proceed);
        assert_eq!(st.apply(0, PRODUCE, 2), Step::Proceed);
        assert!(st.wakeups().is_empty());
    }

    #[test]
    fn event_counts_follow_table3_categories() {
        let mut c = SyncEventCounts::default();
        for op in [
            LOCK,
            UNLOCK,
            READ,
            RW_UNLOCK,
            BAR,
            CONSUME,
            sem_post(1),
            create(1),
        ] {
            c.record(&op);
        }
        let want = SyncEventCounts {
            critical_sections: 2,
            barriers: 1,
            cond_vars: 2,
        };
        assert_eq!(c, want, "acquisitions only; creation uncounted");
    }

    #[test]
    fn serde_round_trip() {
        let op = SyncOp::Produce {
            queue: QueueId(9),
            count: 3,
        };
        let json = serde_json::to_string(&op).unwrap();
        let back: SyncOp = serde_json::from_str(&json).unwrap();
        assert_eq!(op, back);
    }
}
