//! Host-speed calibration. Every host-time figure of the benchmark is
//! converted to reference time: the time it would have taken on a host where
//! the calibration kernel below runs in exactly [`REF_S`] seconds.
//!
//! The kernel is the benchmark's own code, fixed, and shaped like the
//! program's hot loops: a set-associative LRU cache walk (the simulator's
//! caches) and a hash table of last-use times (the profiler's reuse
//! collectors) over a mixed sequential and random line stream. It runs next
//! to each timed unit, so the unit and the kernel see the same host.
//!
//! On a shared 2-vCPU Intel Xeon VM, host speed moves within seconds and
//! drifts over minutes. In one process pinned to one vCPU for nine minutes,
//! the per-minute median time of profiling and simulating three analogs
//! moved between 0.431 and 0.507 s (18%), and the same median in units of
//! the adjacent kernel time between 306 and 318 (4%). A pure integer loop
//! and a random walk over 32 MiB tracked the program less well (11% and 9%).
//!
//! A kernel sample is the median of a few short runs, so it does not see
//! another runnable thread on the same CPU: calibrate only while the
//! benchmark's own threads are idle.
//!
//! A change to the program moves reference time as it moves host time: the
//! kernel calls nothing outside this file.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host: about its median on the VM
/// above when that was fast. Reference time there ran between 0.6 and 1.2
/// times host time.
pub const REF_S: f64 = 0.001;

/// Kernel runs per sample; a sample is their median time.
const RUNS: usize = 7;
/// Line accesses per kernel run.
const ACCESSES: u64 = 40_000;
const SETS: usize = 4096;
const WAYS: usize = 8;

pub struct Calibration {
    tags: Vec<u64>,
    last_use: HashMap<u64, u64>,
}

impl Default for Calibration {
    /// A calibration whose memory is already touched: the first kernel run
    /// of a fresh one also pays its page faults.
    fn default() -> Self {
        let mut c = Calibration {
            tags: vec![u64::MAX; SETS * WAYS],
            last_use: HashMap::with_capacity(1 << 15),
        };
        black_box(c.kernel());
        c
    }
}

impl Calibration {
    fn kernel(&mut self) -> u64 {
        self.tags.fill(u64::MAX);
        self.last_use.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let (mut seq, mut hits, mut reuse) = (0u64, 0u64, 0u64);
        for i in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = if x & 3 == 0 {
                (x >> 40) & 0xFFFF
            } else {
                seq += 1;
                (seq >> 3) & 0x3_FFFF
            };
            let set = (line as usize % SETS) * WAYS;
            let ways = &mut self.tags[set..set + WAYS];
            if let Some(w) = ways.iter().position(|&t| t == line) {
                hits += 1;
                ways[..=w].rotate_right(1);
            } else {
                ways.rotate_right(1);
                ways[0] = line;
            }
            if let Some(prev) = self.last_use.insert(line, i) {
                reuse += i - prev;
            }
        }
        hits ^ reuse
    }

    /// Host seconds of one kernel run: the median of [`RUNS`] runs.
    pub fn sample(&mut self) -> f64 {
        let mut t = [0.0; RUNS];
        for s in &mut t {
            let start = Instant::now();
            black_box(self.kernel());
            *s = start.elapsed().as_secs_f64();
        }
        t.sort_by(f64::total_cmp);
        t[RUNS / 2]
    }
}

/// Reference seconds per host second, from kernel samples taken around a
/// measurement.
pub fn factor(samples: &[f64]) -> f64 {
    REF_S / crate::report::mean(samples)
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` where
/// affinity is not supported or the call fails.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    use std::os::raw::c_int;
    /// `cpu_set_t`: a bit mask of 1024 CPUs.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, set: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, set: *const CpuSet) -> c_int;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, reading `one`.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
