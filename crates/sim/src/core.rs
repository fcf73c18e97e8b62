//! Instruction-grain out-of-order core timing model.
//!
//! The model tracks, per dynamic micro-op: its dispatch cycle (bounded by
//! front-end width, front-end stalls after mispredictions and I-cache
//! misses, and ROB availability), its ready time (register dependences via a
//! completion ring buffer), its execution start (functional-unit port
//! contention, MSHR availability for loads) and its completion. Retirement
//! is in order; dispatch stalls when the ROB is full, so a long-latency load
//! at the ROB head naturally blocks the window while independent misses
//! underneath it overlap — the mechanism behind memory-level parallelism.
//!
//! This is the same modeling altitude as the "instruction-window centric"
//! core models validated in Carlson et al. (TACO 2014), which the paper uses
//! as its golden reference.
//!
//! [`CoreModel::process`] is a straight per-op dispatch: the front end, the
//! window entry and one `match` over the op class. [`CoreModel::run_ops`]
//! is that dispatch in a loop with the engine's quantum check after each op.

use crate::bpred::TournamentPredictor;
use crate::mem::{MemorySystem, ServiceLevel};
use rppm_trace::{CpiStack, MachineConfig, MicroOp, OpClass};
use std::collections::VecDeque;

/// Upper bound on the completion ring: register dependence distances are
/// `u16`, so a ring of `1 << 16` entries can index every one of them.
const MAX_RING: usize = 1 << 16;

/// Stall-attribution component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    Base,
    Branch,
    ICache,
    MemL2,
    MemL3,
    MemDram,
}

fn attribute(stalls: &mut CpiStack, cause: Cause, delta: f64) {
    match cause {
        Cause::Base => stalls.base += delta,
        Cause::Branch => stalls.branch += delta,
        Cause::ICache => stalls.icache += delta,
        Cause::MemL2 => stalls.mem_l2 += delta,
        Cause::MemL3 => stalls.mem_l3 += delta,
        Cause::MemDram => stalls.mem_dram += delta,
    }
}

/// Per-thread execution counters reported by the core model.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreCounters {
    /// Micro-ops executed.
    pub ops: u64,
    /// Dynamic branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Loads serviced by DRAM.
    pub dram_loads: u64,
}

/// Out-of-order core timing state for one thread.
#[derive(Debug)]
pub struct CoreModel {
    // Configuration scalars.
    width: u32,
    rob_size: usize,
    frontend_depth: f64,
    mshrs: usize,
    ports: [u8; rppm_trace::op::NUM_PORT_POOLS],

    // Timing state.
    cycle: f64,
    dispatched: u32,
    fe_stall_until: f64,
    fe_cause: Cause,
    /// Completion times of the last `ring_mask + 1` ops, sized at
    /// `rob_size + 1` rounded up to a power of two (a few KB that stay
    /// L1-resident, against 512 KB per thread for a ring covering every
    /// `u16` distance).
    ///
    /// That is exact because a dependence on an op more than `rob_size`
    /// back can never raise the ready time: by then the producer has been
    /// popped from the ROB (the ROB pops exactly when the window is full,
    /// i.e. on every dispatch once `op_index >= rob_size`), and the pop
    /// already advanced `cycle` to at least its retire time — which is `>=`
    /// its completion time — so `ready.max(completion)` is a no-op.
    /// Distances the ring cannot index are therefore skipped outright; a
    /// unit test pins this against a full-width ring.
    completions: Vec<f64>,
    ring_mask: usize,
    op_index: u64,
    /// In-flight `(retire_time, cause)` entries in dispatch order.
    rob: VecDeque<(f64, Cause)>,
    last_retire: f64,
    fu_free: [[f64; 8]; rppm_trace::op::NUM_PORT_POOLS],
    /// Ring of the last `mshrs` miss completion times (program order).
    mshr: Vec<f64>,
    miss_index: u64,
    last_code_line: u64,

    predictor: TournamentPredictor,

    // Accounting.
    stalls: CpiStack,
    overhead: f64,
    counters: CoreCounters,
}

impl CoreModel {
    /// Creates a core in its reset state, with the thread's clock at
    /// `start_time`.
    pub fn new(config: &MachineConfig, start_time: f64) -> Self {
        let mut ports = [1u8; rppm_trace::op::NUM_PORT_POOLS];
        for class in OpClass::ALL {
            ports[class.port_pool()] = config.ports_for(class).clamp(1, 8) as u8;
        }
        let ring = (config.rob_size as usize + 1)
            .next_power_of_two()
            .min(MAX_RING);
        CoreModel {
            width: config.dispatch_width,
            rob_size: config.rob_size as usize,
            frontend_depth: config.frontend_depth as f64,
            mshrs: config.mshrs as usize,
            ports,
            cycle: start_time,
            dispatched: 0,
            fe_stall_until: 0.0,
            fe_cause: Cause::Branch,
            completions: vec![0.0; ring],
            ring_mask: ring - 1,
            op_index: 0,
            rob: VecDeque::with_capacity(config.rob_size as usize + 1),
            last_retire: start_time,
            fu_free: [[0.0; 8]; rppm_trace::op::NUM_PORT_POOLS],
            mshr: vec![0.0; config.mshrs as usize],
            miss_index: 0,
            last_code_line: u64::MAX,
            predictor: TournamentPredictor::new(&config.bpred),
            stalls: CpiStack::default(),
            overhead: 0.0,
            counters: CoreCounters::default(),
        }
    }

    /// Current thread-local time (dispatch clock) in cycles.
    pub fn time(&self) -> f64 {
        self.cycle
    }

    /// Time at which every in-flight op will have retired.
    pub fn drain_time(&self) -> f64 {
        self.cycle.max(self.last_retire)
    }

    /// Sets the thread's initial clock (thread creation), without charging
    /// any component.
    pub fn set_start_time(&mut self, t: f64) {
        self.cycle = t;
        self.last_retire = t;
    }

    /// Moves the clock forward to `t` (synchronization resume), charging the
    /// jump to the sync component.
    pub fn resume_at(&mut self, t: f64) {
        if t > self.cycle {
            self.stalls.sync += t - self.cycle;
            self.cycle = t;
            self.dispatched = 0;
        }
    }

    /// Charges `cycles` of synchronization-library overhead and advances the
    /// clock past them. Overhead is *executed* time (the thread is active),
    /// but the paper accounts it to the sync component.
    pub fn charge_sync_overhead(&mut self, cycles: f64) {
        self.stalls.sync += cycles;
        self.overhead += cycles;
        self.cycle += cycles;
        self.dispatched = 0;
    }

    /// Total synchronization-library overhead charged (a subset of the sync
    /// component during which the thread was active, not blocked).
    pub fn sync_overhead_charged(&self) -> f64 {
        self.overhead
    }

    /// Processes one micro-op, advancing the thread's timing state.
    pub fn process(&mut self, op: &MicroOp, mem: &mut MemorySystem, core_id: usize) {
        self.counters.ops += 1;

        // Instruction fetch: charge a front-end stall on an I-cache miss
        // whenever execution enters a new code line.
        if op.code_line != self.last_code_line {
            self.last_code_line = op.code_line;
            let stall = mem.icache_access(core_id, op.code_line);
            if stall > 0.0 {
                let until = self.cycle + stall;
                if until > self.fe_stall_until {
                    self.fe_stall_until = until;
                    self.fe_cause = Cause::ICache;
                }
            }
        }

        // Front-end stall (misprediction redirect or I-cache refill).
        if self.fe_stall_until > self.cycle {
            attribute(
                &mut self.stalls,
                self.fe_cause,
                self.fe_stall_until - self.cycle,
            );
            self.cycle = self.fe_stall_until;
            self.dispatched = 0;
        }

        // ROB availability: dispatch stalls until the head retires.
        if self.rob.len() >= self.rob_size {
            let (retire, cause) = self.rob.pop_front().expect("rob nonempty");
            if retire > self.cycle {
                attribute(&mut self.stalls, cause, retire - self.cycle);
                self.cycle = retire;
                self.dispatched = 0;
            }
        }

        // Dispatch-width throttle.
        if self.dispatched >= self.width {
            self.cycle += 1.0;
            self.dispatched = 0;
        }
        let dispatch_time = self.cycle;
        self.dispatched += 1;

        // Register readiness. Distances beyond `ring_mask` are provable
        // no-ops (see `completions`).
        let mut ready = dispatch_time;
        for d in [op.src1 as usize, op.src2 as usize] {
            if d != 0 && d <= self.ring_mask && (d as u64) <= self.op_index {
                let idx = (self.op_index as usize).wrapping_sub(d) & self.ring_mask;
                ready = ready.max(self.completions[idx]);
            }
        }

        // Functional-unit port: the least-loaded one in the class's pool.
        let class = op.class;
        let pool = class.port_pool();
        let nports = self.ports[pool] as usize;
        let fu = &mut self.fu_free[pool];
        let mut port = 0;
        for p in 1..nports {
            if fu[p] < fu[port] {
                port = p;
            }
        }
        let issue = ready.max(fu[port]);
        let mut start = issue;

        let (complete, cause) = match class {
            OpClass::Load => {
                self.counters.loads += 1;
                // MSHR limit: with `mshrs` miss registers allocated in
                // program order, miss k cannot start before miss k−mshrs
                // completed (a k-server queue). The wait happens in the load
                // queue — it does NOT hold the issue port (real LSUs issue
                // around a full miss queue).
                if self.miss_index >= self.mshrs as u64 {
                    let gate = self.mshr[(self.miss_index as usize) % self.mshrs];
                    start = start.max(gate);
                }
                let (lat, level) = mem.access(core_id, op.line, false);
                let complete = start + lat;
                let cause = match level {
                    ServiceLevel::L1 => Cause::Base,
                    ServiceLevel::L2 => Cause::MemL2,
                    ServiceLevel::L3 | ServiceLevel::Remote => Cause::MemL3,
                    ServiceLevel::Dram => {
                        self.counters.dram_loads += 1;
                        self.mshr[(self.miss_index as usize) % self.mshrs] = complete;
                        self.miss_index += 1;
                        Cause::MemDram
                    }
                };
                (complete, cause)
            }
            OpClass::Store => {
                self.counters.stores += 1;
                // Stores retire through the store buffer; coherence state is
                // updated now, latency is hidden.
                let _ = mem.access(core_id, op.line, true);
                (start + 1.0, Cause::Base)
            }
            OpClass::Branch => {
                self.counters.branches += 1;
                let miss = self.predictor.predict_and_update(op.site, op.taken);
                let complete = start + class.latency() as f64;
                if miss {
                    self.counters.mispredicts += 1;
                    // Redirect: front-end refills after the branch resolves.
                    let until = complete + self.frontend_depth;
                    if until > self.fe_stall_until {
                        self.fe_stall_until = until;
                        self.fe_cause = Cause::Branch;
                    }
                }
                (complete, Cause::Base)
            }
            _ => (start + class.latency() as f64, Cause::Base),
        };

        fu[port] = if class.pipelined() {
            issue + 1.0
        } else {
            complete
        };

        // In-order retirement.
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.rob.push_back((retire, cause));
        self.completions[(self.op_index as usize) & self.ring_mask] = complete;
        self.op_index += 1;
    }

    /// Processes a prefix of `ops`, stopping after the first op that pushes
    /// the clock past `limit`. Returns `(ops_used, over_limit)`.
    pub fn run_ops(
        &mut self,
        ops: &[MicroOp],
        mem: &mut MemorySystem,
        core_id: usize,
        limit: f64,
    ) -> (usize, bool) {
        for (i, op) in ops.iter().enumerate() {
            self.process(op, mem, core_id);
            if self.cycle > limit {
                return (i + 1, true);
            }
        }
        (ops.len(), false)
    }

    /// Finishes the thread: drains the ROB and returns the final time.
    pub fn finish(&mut self) -> f64 {
        let t = self.drain_time();
        self.cycle = t;
        t
    }

    /// Stall attribution accumulated so far. The `base` field is *not* yet
    /// populated (it is the residual, computed by the engine as active time
    /// minus attributed stalls).
    pub fn stalls(&self) -> &CpiStack {
        &self.stalls
    }

    /// Execution counters.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Observed branch misprediction rate.
    pub fn branch_miss_rate(&self) -> f64 {
        self.predictor.miss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm_trace::{BlockSpec, DesignPoint};

    fn run_block(spec: BlockSpec, config: &rppm_trace::MachineConfig) -> (CoreModel, MemorySystem) {
        let mut mem = MemorySystem::new(config);
        let mut core = CoreModel::new(config, 0.0);
        for op in spec.expand() {
            core.process(&op, &mut mem, 0);
        }
        core.finish();
        (core, mem)
    }

    #[test]
    fn long_dependence_distances_match_full_ring() {
        // Dependence distances far beyond the ROB size: the default ring
        // skips these reads outright (they are provable no-ops — see
        // `CoreModel::completions`), while a ring covering every `u16`
        // distance performs them. Timing must still agree to the bit.
        let ops = BlockSpec::new(40_000, 99)
            .deps(1.0, 700.0)
            .deps2(0.5)
            .fp(0.2, 0.2)
            .expand();
        for dp in [
            DesignPoint::Smallest,
            DesignPoint::Base,
            DesignPoint::Biggest,
        ] {
            let cfg = dp.config();
            let mut mem_a = MemorySystem::new(&cfg);
            let mut small = CoreModel::new(&cfg, 0.0);
            assert!(small.ring_mask < MAX_RING - 1, "{dp:?}");
            let mut mem_b = MemorySystem::new(&cfg);
            let mut wide = CoreModel::new(&cfg, 0.0);
            wide.completions = vec![0.0; MAX_RING];
            wide.ring_mask = MAX_RING - 1;
            for op in &ops {
                small.process(op, &mut mem_a, 0);
                wide.process(op, &mut mem_b, 0);
            }
            assert_eq!(small.finish().to_bits(), wide.finish().to_bits(), "{dp:?}");
            let (x, y) = (small.stalls(), wide.stalls());
            for (a, b) in [
                (x.branch, y.branch),
                (x.icache, y.icache),
                (x.mem_l2, y.mem_l2),
                (x.mem_l3, y.mem_l3),
                (x.mem_dram, y.mem_dram),
                (x.sync, y.sync),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{dp:?}");
            }
        }
    }

    #[test]
    fn run_ops_respects_limit_per_op() {
        let cfg = DesignPoint::Base.config();
        let ops: Vec<_> = BlockSpec::new(5_000, 3).deps(0.3, 4.0).expand();
        // Replay with a limit: `run_ops` must stop exactly where a per-op
        // loop with a quantum check stops.
        let mut mem_a = MemorySystem::new(&cfg);
        let mut a = CoreModel::new(&cfg, 0.0);
        let limit = 200.0;
        let mut naive_used = 0;
        for op in &ops {
            a.process(op, &mut mem_a, 0);
            naive_used += 1;
            if a.time() > limit {
                break;
            }
        }
        let mut mem_b = MemorySystem::new(&cfg);
        let mut b = CoreModel::new(&cfg, 0.0);
        let (used, over) = b.run_ops(&ops, &mut mem_b, 0, limit);
        assert_eq!(used, naive_used);
        assert!(over);
        assert_eq!(a.time().to_bits(), b.time().to_bits());
    }

    #[test]
    fn ideal_ilp_reaches_dispatch_width() {
        let cfg = DesignPoint::Base.config();
        // Independent integer ops, no memory, no branches.
        let spec = BlockSpec::new(100_000, 1).deps(0.0, 1.0).deps2(0.0);
        let (core, _) = run_block(spec, &cfg);
        let ipc = core.counters().ops as f64 / core.drain_time();
        assert!(
            (ipc - cfg.dispatch_width as f64).abs() < 0.2,
            "ipc {ipc} vs width {}",
            cfg.dispatch_width
        );
    }

    #[test]
    fn serial_chain_runs_at_one_over_latency() {
        let cfg = DesignPoint::Base.config();
        // Every op depends on the previous one: IPC ~ 1 (IntAlu latency 1).
        let spec = BlockSpec::new(50_000, 2).deps(1.0, 1.0).deps2(0.0);
        let (core, _) = run_block(spec, &cfg);
        let ipc = core.counters().ops as f64 / core.drain_time();
        assert!(ipc < 1.25, "chain ipc {ipc}");
    }

    #[test]
    fn fu_contention_limits_throughput() {
        let cfg = DesignPoint::Base.config(); // 2 FP pipes at width 4
        let spec = BlockSpec::new(50_000, 3)
            .fp(1.0, 0.0)
            .deps(0.0, 1.0)
            .deps2(0.0);
        let (core, _) = run_block(spec, &cfg);
        let ipc = core.counters().ops as f64 / core.drain_time();
        assert!(ipc < 2.3, "fp-bound ipc {ipc} must respect 2 FP ports");
    }

    #[test]
    fn dram_misses_dominate_streaming() {
        let cfg = DesignPoint::Base.config();
        let region = rppm_trace::Region::new(0, 4 << 20); // far beyond LLC
        let spec = BlockSpec::new(100_000, 4)
            .loads(0.3)
            .addr(rppm_trace::AddressPattern::stream(region), 1.0);
        let (core, _) = run_block(spec, &cfg);
        assert!(core.counters().dram_loads > 1000);
        assert!(core.stalls().mem_dram > 0.0);
        let cpi = core.drain_time() / core.counters().ops as f64;
        assert!(cpi > 0.5, "memory-bound cpi {cpi}");
    }

    #[test]
    fn mlp_overlaps_independent_misses() {
        let cfg = DesignPoint::Base.config();
        let region = rppm_trace::Region::new(0, 4 << 20);
        // Independent streaming loads: misses overlap.
        let indep = BlockSpec::new(50_000, 5)
            .loads(0.3)
            .deps(0.0, 1.0)
            .addr(rppm_trace::AddressPattern::stream(region), 1.0);
        // Pointer-chasing loads: serialized misses.
        let chained = BlockSpec::new(50_000, 5)
            .loads(0.3)
            .deps(0.0, 1.0)
            .load_chain(1.0)
            .addr(rppm_trace::AddressPattern::stream(region), 1.0);
        let (c1, _) = run_block(indep, &cfg);
        let (c2, _) = run_block(chained, &cfg);
        let t1 = c1.drain_time();
        let t2 = c2.drain_time();
        assert!(
            t2 > t1 * 2.0,
            "chained ({t2}) should be much slower than independent ({t1})"
        );
    }

    #[test]
    fn mispredictions_cost_cycles() {
        let cfg = DesignPoint::Base.config();
        let predictable = BlockSpec::new(50_000, 6)
            .branches(0.2)
            .branch_pattern(rppm_trace::BranchPattern::loop_every(64));
        let random = BlockSpec::new(50_000, 6)
            .branches(0.2)
            .branch_pattern(rppm_trace::BranchPattern::bernoulli(0.5));
        let (c1, _) = run_block(predictable, &cfg);
        let (c2, _) = run_block(random, &cfg);
        assert!(c2.counters().mispredicts > 10 * c1.counters().mispredicts.max(1));
        assert!(c2.drain_time() > c1.drain_time() * 1.3);
        assert!(c2.stalls().branch > c1.stalls().branch);
    }

    #[test]
    fn icache_misses_from_large_code_footprint() {
        let cfg = DesignPoint::Base.config();
        // 32 KB L1I = 512 lines; a 4096-line loop body thrashes it.
        let big_code = BlockSpec::new(200_000, 7).code_footprint(4096);
        let (core, mem) = run_block(big_code, &cfg);
        assert!(mem.stats(0).l1i_misses > 1000);
        assert!(core.stalls().icache > 0.0);
    }

    #[test]
    fn small_rob_hurts_mlp() {
        let small = DesignPoint::Smallest.config(); // ROB 32
        let big = DesignPoint::Biggest.config(); // ROB 288
        let region = rppm_trace::Region::new(0, 4 << 20);
        let mk = || {
            BlockSpec::new(50_000, 8)
                .loads(0.2)
                .deps(0.2, 8.0)
                .addr(rppm_trace::AddressPattern::stream(region), 1.0)
        };
        let (c_small, _) = run_block(mk(), &small);
        let (c_big, _) = run_block(mk(), &big);
        // Same DRAM miss count, but the small window overlaps fewer misses:
        // higher stall per miss.
        let per_miss_small = c_small.stalls().mem_dram / c_small.counters().dram_loads as f64;
        let per_miss_big = c_big.stalls().mem_dram / c_big.counters().dram_loads.max(1) as f64;
        assert!(
            per_miss_small > per_miss_big,
            "small {per_miss_small} vs big {per_miss_big}"
        );
    }

    #[test]
    fn resume_and_sync_accounting() {
        let cfg = DesignPoint::Base.config();
        let mut core = CoreModel::new(&cfg, 0.0);
        core.resume_at(1000.0);
        assert_eq!(core.time(), 1000.0);
        assert_eq!(core.stalls().sync, 1000.0);
        core.charge_sync_overhead(40.0);
        assert_eq!(core.time(), 1040.0);
        assert_eq!(core.stalls().sync, 1040.0);
        // Resuming to the past is a no-op.
        core.resume_at(10.0);
        assert_eq!(core.time(), 1040.0);
    }
}
