//! `catalog`: the paper's own evaluation. Every catalog analog is profiled,
//! prepared, predicted on the five Table IV design points, simulated on
//! the same five, and scored against the simulator.

use crate::calib::{self, Calibration};
use crate::report::{mean, median, Outcome};
use crate::spans::Spans;
use crate::{Budget, Ctx};
use rppm::core::{dse_row, Prediction, PreparedProfile};
use rppm::prelude::*;
use rppm::trace::{BlockItem, CpiStack, ThreadCursor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Generator seeds each analog is built from. Accuracy is averaged over
/// them: `particlefilter` on the biggest design point sets the largest
/// error, and over six seeds of one build its error ranged from 63% to 89%.
pub const VARIANTS: usize = 3;

pub struct State {
    /// `variants[v][i]`: analog `i` built from seed `v` (seed 0 is the
    /// workload seed).
    pub variants: Vec<Vec<Program>>,
}

impl State {
    /// The analogs built from the workload seed.
    pub fn programs(&self) -> &[Program] {
        &self.variants[0]
    }
}

/// The catalog built from `variants` seeds.
pub fn build(ctx: &Ctx, sp: &mut Spans, variants: usize) -> State {
    let benches = rppm::workloads::all();
    let variants = (0..variants as u64)
        .map(|v| {
            let params = ctx
                .params(ctx.size.scale)
                .with_seed(ctx.seed.wrapping_add(v.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            sp.time("workloads.build", benches.len() as u64, || {
                benches.iter().map(|b| b.build(&params)).collect::<Vec<_>>()
            })
        })
        .collect();
    State { variants }
}

pub fn setup(ctx: &Ctx, sp: &mut Spans, out: &mut Outcome) -> State {
    let st = build(ctx, sp, VARIANTS);
    for p in st.variants.iter().flatten() {
        let valid = p.validate();
        out.check(valid.is_ok(), || {
            format!("{}: invalid program: {valid:?}", p.name)
        });
    }
    st
}

/// Components of a CPI stack, in `core.cpi_err.*` order.
const COMPONENTS: [&str; 7] = [
    "base", "branch", "icache", "mem_l2", "mem_l3", "mem_dram", "sync",
];

fn components(s: &CpiStack) -> [f64; 7] {
    [
        s.base, s.branch, s.icache, s.mem_l2, s.mem_l3, s.mem_dram, s.sync,
    ]
}

/// Back-to-back repetitions, within one pass, of prepare-and-predict-five.
const PREDICT_REPS: usize = 9;

fn timed<T>(host_s: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    *host_s = t.elapsed().as_secs_f64();
    r
}

/// Prepares `prof` and predicts every config.
fn prepare_predict(
    sp: &mut Spans,
    prof: &Arc<ApplicationProfile>,
    configs: &[(DesignPoint, MachineConfig)],
) -> Vec<Prediction> {
    let prep = sp.time("core.prepare", 1, || PreparedProfile::new(Arc::clone(prof)));
    configs
        .iter()
        .map(|(_, c)| sp.time("core.predict", 1, || prep.predict(c)))
        .collect()
}

/// Runs passes over the catalog (at least [`VARIANTS`] under a time
/// budget), pass `p` on seed variant `p % VARIANTS`. Each analog's timed
/// units (profiles, prepare-and-predict-five, simulations) sit between two
/// calibration samples and are converted to reference time with them; each
/// unit reports the median over its repetitions and passes of its time per
/// op (profile, simulate) or its time (predict). The first pass on each
/// variant is checked and scored.
pub fn measure(_ctx: &Ctx, st: &State, budget: Budget, sp: &mut Spans, out: &mut Outcome) {
    let configs: Vec<(DesignPoint, MachineConfig)> =
        DesignPoint::ALL.iter().map(|&d| (d, d.config())).collect();
    let n = st.programs().len();
    let mut cal = Calibration::default();
    // Reference seconds per op (profile, simulate) and reference seconds
    // (predict), per analog.
    let mut profile_s = vec![Vec::new(); n];
    let mut predict_s = vec![Vec::new(); n];
    let mut simulate_s = vec![vec![Vec::new(); configs.len()]; n];
    let mut host_s = 0.0;
    let mut ref_s = 0.0;
    // Errors per analog and design point, one per scored variant.
    let mut errs = vec![vec![Vec::new(); configs.len()]; n];
    let mut deficiency = Vec::new();
    let mut cpi_err = vec![Vec::new(); COMPONENTS.len()];
    let mut epochs = 0u64;
    let start = Instant::now();
    let mut pass = 0;
    let mut last_pass_s = 0.0;
    while budget.another_pass(pass, VARIANTS, start.elapsed().as_secs_f64(), last_pass_s) {
        let pass_start = Instant::now();
        let mut checks_s = 0.0;
        let programs = &st.variants[pass % st.variants.len()];
        let mut before = cal.sample();
        for (i, program) in programs.iter().enumerate() {
            let ops = program.total_ops();
            // Host seconds of this analog's units, converted below.
            let mut profile_host = 0.0;
            let mut predict_host = [0.0; PREDICT_REPS];
            let mut simulate_host = vec![0.0; configs.len()];
            let prof = timed(&mut profile_host, || {
                sp.time("profiler.profile", ops, || Arc::new(profile(program)))
            });
            let mut preds = Vec::new();
            for t in &mut predict_host {
                preds = timed(t, || prepare_predict(sp, &prof, &configs));
            }
            let mut sims = Vec::new();
            for ((d, c), t) in configs.iter().zip(&mut simulate_host) {
                sims.push(timed(t, || {
                    sp.time(&format!("sim.simulate.{d}"), ops, || simulate(program, c))
                }));
            }

            let after = cal.sample();
            let f = calib::factor(&[before, after]);
            before = after;
            profile_s[i].push(profile_host * f / ops as f64);
            predict_s[i].extend(predict_host.iter().map(|s| s * f));
            for (j, s) in simulate_host.iter().enumerate() {
                simulate_s[i][j].push(s * f / ops as f64);
            }
            let timed_host = profile_host + simulate_host.iter().sum::<f64>();
            host_s += timed_host;
            ref_s += timed_host * f;
            if pass >= st.variants.len() {
                continue;
            }

            // Checks and scoring, once per analog and variant, outside the
            // timed calls.
            let checks_start = Instant::now();
            let name = &program.name;
            out.check(prof.is_consistent(), || {
                format!("{name}: inconsistent profile")
            });
            out.check(prof.total_ops() == ops, || {
                format!("{name}: profiled {} of {ops} ops", prof.total_ops())
            });
            if pass == 0 {
                epochs += prof
                    .threads
                    .iter()
                    .map(|t| t.epochs.len() as u64)
                    .sum::<u64>();
            }
            for (j, ((d, c), (pred, sim))) in
                configs.iter().zip(preds.iter().zip(&sims)).enumerate()
            {
                out.check(sim.total_ops() == ops, || {
                    format!("{name}/{d}: simulated {} of {ops} ops", sim.total_ops())
                });
                let scalar = rppm::core::predict(&prof, c);
                out.check(
                    scalar.total_cycles.to_bits() == pred.total_cycles.to_bits(),
                    || format!("{name}/{d}: prepared predict differs from predict"),
                );
                errs[i][j].push(abs_pct_error(pred.total_cycles, sim.total_cycles) * 100.0);
                let (p, s) = (pred.mean_cpi_stack(), sim.mean_cpi_stack());
                let total = s.total().max(f64::MIN_POSITIVE);
                for (k, (pc, sc)) in components(&p).iter().zip(components(&s)).enumerate() {
                    cpi_err[k].push((pc - sc) / total * 100.0);
                }
            }
            let predicted: Vec<f64> = preds.iter().map(|p| p.total_seconds).collect();
            let simulated: Vec<f64> = sims.iter().map(|s| s.total_seconds).collect();
            match dse_row(name, &predicted, &simulated, &[0.0]) {
                Ok(row) => {
                    out.check(true, String::new);
                    deficiency.push(row.cells[0].1 * 100.0);
                }
                Err(e) => out.check(false, || format!("{name}: dse_row: {e}")),
            }
            checks_s += checks_start.elapsed().as_secs_f64();
        }
        last_pass_s = pass_start.elapsed().as_secs_f64() - checks_s;
        pass += 1;
    }

    // Throughput over the workload-seed catalog, at each unit's median time
    // per op.
    let ops: Vec<f64> = st.programs().iter().map(|p| p.total_ops() as f64).collect();
    let total_ops: f64 = ops.iter().sum();
    let profile_total: f64 = ops.iter().zip(&profile_s).map(|(o, s)| o * median(s)).sum();
    let simulate_total: f64 = ops
        .iter()
        .zip(&simulate_s)
        .map(|(o, per_point)| per_point.iter().map(|s| o * median(s)).sum::<f64>())
        .sum();
    let predict_s: Vec<f64> = predict_s.iter().map(|s| median(s)).collect();
    let simulated_ops = total_ops * configs.len() as f64;
    out.set(
        "profile_mops_per_s",
        total_ops / profile_total / 1e6,
        "Mops/s",
    );
    out.set(
        "simulate_mops_per_s",
        simulated_ops / simulate_total / 1e6,
        "Mops/s",
    );
    out.set("predict_ms", median(&predict_s) * 1e3, "ms");
    // Each analog and design point's error, averaged over the variants.
    let mut worst = (0.0, String::new());
    let mut mean_errs = Vec::new();
    for (program, per_point) in st.programs().iter().zip(&errs) {
        for ((d, _), e) in configs.iter().zip(per_point) {
            let e = mean(e);
            if e > worst.0 {
                worst = (e, format!("{}/{d}", program.name));
            }
            mean_errs.push(e);
        }
    }
    out.set("rppm_err_pct", mean(&mean_errs), "%");
    out.set(
        "rppm_max_err_pct",
        mean_errs.iter().copied().fold(0.0, f64::max),
        "%",
    );
    out.set("dse_deficiency_pct", mean(&deficiency), "%");
    println!(
        "catalog: errors averaged over {} seed variant(s); largest {:.2}% on {}",
        pass.min(st.variants.len()),
        worst.0,
        worst.1
    );
    println!(
        "catalog: {n} analog(s) x {pass} pass(es); profile/simulate time per op {:.3} \
         (paper: about 0.1); reference/host time {:.3}; accuracy is against the in-repo \
         simulator (a stand-in for Sniper, no hardware validation), whose caches start empty",
        (profile_total / total_ops) / (simulate_total / simulated_ops),
        ref_s / host_s,
    );
    if sp.is_on() {
        sp.count("profiler.epochs", epochs as f64);
        for (k, errs) in COMPONENTS.iter().zip(&cpi_err) {
            let abs: Vec<f64> = errs.iter().map(|e| e.abs()).collect();
            sp.count(&format!("core.cpi_err.{k}"), mean(&abs));
            println!(
                "catalog: cpi component {k}: mean signed error {:+.2}% of simulated CPI",
                mean(errs)
            );
        }
    }
}

/// Walks every op of every thread of `program`, handing each op run to
/// `visit(thread, ops)`.
pub fn walk(program: &Program, mut visit: impl FnMut(usize, &[rppm::trace::MicroOp])) {
    for (t, script) in program.threads.iter().enumerate() {
        let mut cur = ThreadCursor::new(script);
        loop {
            match cur.peek_block() {
                Some(BlockItem::Ops(ops)) => {
                    let n = ops.len();
                    visit(t, ops);
                    cur.consume_ops(n);
                }
                Some(BlockItem::Sync(_)) => cur.consume_sync(),
                None => break,
            }
        }
    }
}

/// The profiler's sampling rule: the first 512 ops of every 10 000.
const MICROTRACE_LEN: usize = 512;
const SAMPLE_PERIOD: usize = 10_000;

/// Per-layer probes of the traced run: the bare cursor walk, each public
/// profiler collector driven alone over the walked stream, micro-trace
/// analysis of the sampled windows, and the miss-rate models.
pub fn layers(_ctx: &Ctx, st: &State, sp: &mut Spans, out: &mut Outcome) {
    use rppm::branch_model::{predict_miss_rate, EntropyCollector};
    use rppm::statstack::{MultiThreadCollector, SingleThreadCollector, StackDistanceModel};

    let space = rppm::core::ConfigSpace::default_space();
    let base = space.base();
    let l1: Vec<_> = space
        .l1_kb
        .iter()
        .map(|&kb| {
            rppm::trace::CacheGeometry::new(
                u64::from(kb) << 10,
                base.l1d.assoc,
                base.l1d.line_bytes,
                base.l1d.latency,
            )
        })
        .collect();
    let bpreds: Vec<_> = space
        .bpred_kb
        .iter()
        .map(|&kb| rppm::trace::BranchPredictorConfig {
            size_bytes: kb << 10,
            history_bits: base.bpred.history_bits,
        })
        .collect();
    for program in st.programs() {
        let ops = program.total_ops();
        let n = program.threads.len();
        sp.time("trace.walk", ops, || {
            let mut seen = 0u64;
            walk(program, |_, run| seen += black_box(run).len() as u64);
            black_box(seen)
        });

        // Extract each collector's input once, then time it alone.
        let mut data: Vec<Vec<(u64, bool)>> = vec![Vec::new(); n];
        let mut code: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut branches: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
        let mut windows: Vec<Vec<rppm::trace::MicroOp>> = Vec::new();
        let mut phase = vec![0usize; n];
        let mut last_code = vec![u64::MAX; n];
        walk(program, |t, run| {
            for op in run {
                if op.is_mem() {
                    data[t].push((op.line, op.is_store()));
                }
                if op.class == rppm::trace::OpClass::Branch {
                    branches[t].push((op.site, op.taken));
                }
                if op.code_line != last_code[t] {
                    last_code[t] = op.code_line;
                    code[t].push(op.code_line);
                }
                if phase[t] == 0 {
                    windows.push(Vec::with_capacity(MICROTRACE_LEN));
                }
                if phase[t] < MICROTRACE_LEN {
                    windows.last_mut().expect("window open").push(*op);
                }
                phase[t] = (phase[t] + 1) % SAMPLE_PERIOD;
            }
        });
        let mut hists = Vec::new();
        sp.time("statstack.data_reuse", ops, || {
            let mut c = MultiThreadCollector::new(n);
            for (t, accesses) in data.iter().enumerate() {
                for &(line, write) in accesses {
                    c.access(t, line, write);
                }
                hists.push(c.end_epoch(t).private);
            }
        });
        sp.time("statstack.icache_reuse", ops, || {
            for lines in &code {
                let mut c = SingleThreadCollector::new();
                for &line in lines {
                    c.access(line);
                }
                black_box(c.into_histogram());
            }
        });
        let mut profiles = Vec::new();
        sp.time("branch_model.entropy", ops, || {
            for sites in &branches {
                let mut c = EntropyCollector::new();
                for &(site, taken) in sites {
                    c.record(site, taken);
                }
                profiles.push(c.finish());
            }
        });
        sp.time("profiler.microtrace", ops, || {
            for w in windows.iter().filter(|w| w.len() >= 16) {
                black_box(rppm::profiler::analyze(w));
            }
        });

        let models: Vec<StackDistanceModel> = hists.iter().map(StackDistanceModel::new).collect();
        let calls = (models.len() * l1.len() * 50) as u64;
        sp.time("statstack.miss_rate", calls, || {
            for _ in 0..50 {
                for m in &models {
                    for g in &l1 {
                        black_box(m.miss_rate_geom(black_box(g)));
                    }
                }
            }
        });
        let calls = (profiles.len() * bpreds.len() * 200) as u64;
        sp.time("branch_model.miss_rate", calls, || {
            for _ in 0..200 {
                for p in &profiles {
                    for b in &bpreds {
                        black_box(predict_miss_rate(p, black_box(b)));
                    }
                }
            }
        });
        out.check(hists.len() == n && profiles.len() == n, || {
            format!("{}: collectors missed a thread", program.name)
        });
    }
}
