//! Differential property suite for the shared discrete-event scheduler
//! ([`rppm::core::EventQueue`]): the min-heap must reproduce the retired
//! linear scan event for event, and the simulator built on it must
//! schedule an in-memory program and its out-of-core replay bit-identically
//! on random *high-thread-count* fork-join programs — including the
//! format-v2 synchronization ops (reader-writer locks, counting semaphores)
//! that post wakeups through the queue.

use proptest::prelude::*;
use rppm::core::EventQueue;
use rppm::sim::{simulate, SimResult};
use rppm::trace::{BlockSpec, DesignPoint, OpReplay, Program, ProgramBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The retired scheduler: a linear scan over every live `(key, thread)`
/// entry picking the **first** entry with the strictly smallest key —
/// i.e. the earliest-posted among key ties. Kept here as the oracle the
/// heap must match event for event.
#[derive(Default)]
struct ScanOracle {
    live: Vec<(u64, usize)>,
}

impl ScanOracle {
    fn post(&mut self, key: u64, thread: usize) {
        self.live.push((key, thread));
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let best = self.live.iter().enumerate().min_by_key(|&(_, &e)| e)?.0;
        Some(self.live.swap_remove(best))
    }
}

/// Builds a fork-join program over `n_threads` workers where every thread
/// runs `phases` phases of: a compute block, a shared read (or exclusive
/// write for the designated writer) under a reader-writer lock, and a
/// semaphore-gated handoff — the v2 sync surface, at thread counts far
/// beyond the paper's 4–8.
fn rw_sem_program(n_threads: usize, phases: usize, ops: u32, seed: u64) -> Program {
    let mut b = ProgramBuilder::new("sched-stress", n_threads);
    let rw = b.alloc_rwlock();
    let sem = b.alloc_sem();
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..n_threads {
        let mut tb = b.thread(t as u32);
        for k in 0..phases {
            let spec = BlockSpec::new(ops, seed ^ ((t as u64) << 24) ^ k as u64).deps(0.3, 6.0);
            tb.block(spec);
            // One writer per phase (rotating), everyone else shares reads.
            let write = t == k % n_threads;
            tb.rw_lock(rw, write);
            tb.block(BlockSpec::new(ops / 4 + 1, seed ^ 0xABCD ^ t as u64));
            tb.rw_unlock(rw);
            // Thread 0 stocks the semaphore; the rest drain one permit each.
            if t == 0 {
                tb.sem_post(sem, (n_threads - 1) as u32);
            } else {
                tb.sem_wait(sem);
            }
            tb.barrier(bar);
        }
    }
    b.join_workers();
    b.build()
}

/// Records `p`'s op stream to a temporary file and opens it for replay; the
/// file is removed again once opened (the replay holds its own handle).
fn replay_of(p: &Program) -> OpReplay {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "rppm-sched-test-{}-{}.rpt",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    rppm::trace::write_program_ops(p, &path).expect("record op stream");
    let replay = OpReplay::open(&path).expect("open op stream");
    let _ = std::fs::remove_file(&path);
    replay
}

/// Asserts two simulation results are bit-for-bit identical (the schedule,
/// not just the total, must match).
fn assert_identical(a: &SimResult, b: &SimResult) {
    prop_assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
    prop_assert_eq!(a.threads.len(), b.threads.len());
    for (t, (x, y)) in a.threads.iter().zip(b.threads.iter()).enumerate() {
        prop_assert_eq!(x.start.to_bits(), y.start.to_bits(), "thread {} start", t);
        prop_assert_eq!(
            x.finish.to_bits(),
            y.finish.to_bits(),
            "thread {} finish",
            t
        );
        prop_assert_eq!(x.ops, y.ops, "thread {} ops", t);
    }
    prop_assert_eq!(&a.sync_events, &b.sync_events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of posts and pops: the heap pops exactly what
    /// the retired linear scan would have picked, every time. Keys repeat
    /// on purpose (barrier releases wake whole cohorts at one timestamp).
    #[test]
    fn event_queue_matches_linear_scan_oracle(
        script in proptest::collection::vec((0u64..50, 0usize..64, any::<bool>()), 1usize..300),
    ) {
        let mut heap = EventQueue::new();
        let mut scan = ScanOracle::default();
        for (key, thread, pop) in script {
            heap.post(key, thread);
            scan.post(key, thread);
            if pop {
                prop_assert_eq!(heap.pop(), scan.pop());
            }
        }
        loop {
            let (a, b) = (heap.pop(), scan.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// High-thread-count fork-join programs exercising the v2 sync ops:
    /// the expansion-backed and the replay-backed op sources drive the same
    /// engine and event queue and must produce bit-identical schedules at
    /// every design point.
    #[test]
    fn high_thread_count_engines_stay_bit_identical(
        n_threads in 8usize..96,
        phases in 1usize..4,
        ops in 50u32..600,
        seed in 0u64..1000,
        point in 0usize..5,
    ) {
        let p = rw_sem_program(n_threads, phases, ops, seed);
        // One core per thread: the engines enforce the paper's
        // thread-per-core assumption, so scaling threads scales cores.
        let cfg = DesignPoint::ALL[point].config_with_cores(n_threads as u32);
        assert_identical(&simulate(&p, &cfg), &simulate(&replay_of(&p), &cfg));
    }

    /// The logical profiler walks the same programs through the same
    /// sync state machine and queue over tick clocks; its profile must stay
    /// structurally consistent (epochs = events + 1 on every thread) at any
    /// thread count and sync mix.
    #[test]
    fn profiler_stays_consistent_at_high_thread_counts(
        n_threads in 8usize..96,
        phases in 1usize..3,
        seed in 0u64..1000,
    ) {
        let p = rw_sem_program(n_threads, phases, 100, seed);
        let prof = rppm::profiler::profile(&p);
        prop_assert!(prof.is_consistent());
        prop_assert_eq!(prof.threads.len(), n_threads);
    }
}
