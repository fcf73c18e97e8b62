//! Property suite for the simulator's self-profiling probe: a probed run
//! must be **bit-identical** to an unprobed one on random programs (thread
//! counts, op mixes, dependence chains, sync patterns) × random design
//! points, and the probe must see exactly the op stream the cores executed.

use proptest::prelude::*;
use rppm::sim::{simulate, simulate_with_probe, ProfileCollector, SimProfile, SimResult};
use rppm::trace::{AddressPattern, BlockSpec, DesignPoint, Program, ProgramBuilder};
use rppm::workloads::{by_name, Params};

/// Asserts two simulation results are bit-for-bit identical: end-to-end
/// time, every per-thread timing/counter, intervals and sync events.
fn assert_identical(a: &SimResult, b: &SimResult) {
    prop_assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
    prop_assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
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
        prop_assert_eq!(x.branches, y.branches, "thread {} branches", t);
        prop_assert_eq!(x.mispredicts, y.mispredicts, "thread {} mispredicts", t);
        prop_assert_eq!(x.dram_loads, y.dram_loads, "thread {} dram_loads", t);
        prop_assert_eq!(
            x.cpi.total().to_bits(),
            y.cpi.total().to_bits(),
            "thread {} cpi",
            t
        );
    }
    prop_assert_eq!(&a.sync_events, &b.sync_events);
    prop_assert_eq!(&a.intervals, &b.intervals);
}

/// Simulates `p` under a [`ProfileCollector`], returning the timing and the
/// self-profile.
fn simulate_profiled(p: &Program, cfg: &rppm::trace::MachineConfig) -> (SimResult, SimProfile) {
    let mut collector = ProfileCollector::new();
    let result = simulate_with_probe(p, cfg, &mut collector);
    (result, collector.into_profile())
}

/// Builds a random fork-join program: `n_threads` workers, each running
/// `blocks` blocks with a generated op mix, separated by barriers.
#[allow(clippy::too_many_arguments)]
fn random_program(
    n_threads: usize,
    blocks: usize,
    ops: u32,
    seed: u64,
    loads: f64,
    stores: f64,
    branches: f64,
    dep_p: f64,
    dep_mean: f64,
    footprint: u64,
) -> Program {
    let mut b = ProgramBuilder::new("random", n_threads);
    let heap = b.alloc_region(4096);
    let shared = b.alloc_region(64);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..n_threads {
        let mut tb = b.thread(t as u32);
        for k in 0..blocks {
            let spec = BlockSpec::new(ops, seed ^ ((t as u64) << 32) ^ k as u64)
                .loads(loads)
                .stores(stores)
                .branches(branches)
                .deps(dep_p, dep_mean)
                .deps2(dep_p / 2.0)
                .load_chain(0.2)
                .fp(0.15, 0.1)
                .code_footprint(footprint)
                .addr(AddressPattern::stream(heap), 2.0)
                .addr(AddressPattern::random(shared), 1.0);
            tb.block(spec);
            if n_threads > 1 {
                tb.barrier(bar);
            }
        }
    }
    b.join_workers();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The self-profiling probe does not perturb timing, and it observes
    /// exactly the executed op stream: the op mix and the per-thread op
    /// counts account for every op the cores ran.
    #[test]
    fn probe_observes_identical_streams(
        n_threads in 1usize..5,
        ops in 200u32..2000,
        seed in 0u64..1000,
        point in 0usize..5,
    ) {
        let p = random_program(n_threads, 2, ops, seed, 0.3, 0.1, 0.1, 0.4, 8.0, 7);
        let cfg = DesignPoint::ALL[point].config();
        let plain = simulate(&p, &cfg);
        let (probed, prof) = simulate_profiled(&p, &cfg);
        assert_identical(&plain, &probed);
        prop_assert_eq!(prof.total_ops(), plain.total_ops(), "executed op mix must match");
        prop_assert_eq!(prof.threads.len(), plain.threads.len());
        for (shape, t) in prof.threads.iter().zip(&plain.threads) {
            prop_assert_eq!(shape.ops, t.ops);
        }
    }
}

/// The paper's profiling-run insensitivity sanity: a workload simulated at
/// two different generator seeds gives different streams, which the probe
/// must reflect (guards against the profile being accidentally static).
#[test]
fn probe_distinguishes_seeds() {
    let bench = by_name("kmeans").expect("known workload");
    let p1 = bench.build(&Params {
        scale: 0.02,
        seed: 1,
    });
    let p2 = bench.build(&Params {
        scale: 0.02,
        seed: 2,
    });
    let cfg = DesignPoint::Base.config();
    let (_, a) = simulate_profiled(&p1, &cfg);
    let (_, b) = simulate_profiled(&p2, &cfg);
    assert_eq!(a.total_ops(), b.total_ops(), "same size at equal scale");
    assert_ne!(a.pairs, b.pairs, "distinct dynamic streams");
}
