//! `dse`: design-space sweeps from profiles built in setup. The timed part
//! is `PreparedProfile::new` plus `rppm_core::dse::sweep`, on a barrier-only
//! profile with few distinct epoch cells (`kmeans`, whole default space)
//! and a lock-heavy one with many (`fluidanimate`, a sub-space).

use crate::calib::{self, Calibration};
use crate::report::{median, Outcome};
use crate::spans::Spans;
use crate::Ctx;
use rppm::core::{
    pareto_frontier, sweep, symexec, ConfigSpace, Constraints, DsePoint, DseSweep, PreparedProfile,
    ThreadTimeline,
};
use rppm::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub struct Input {
    pub name: &'static str,
    pub profile: Arc<ApplicationProfile>,
    pub space: ConfigSpace,
}

pub struct State {
    pub inputs: Vec<Input>,
}

/// The `fluidanimate` sub-space: every core family of the default space
/// crossed with a few cache and MSHR values, sized so its sweep takes about
/// as long as `kmeans` over the whole default space.
fn fluid_space(tiny: bool) -> ConfigSpace {
    let mut s = ConfigSpace::default_space();
    s.l1_kb = vec![16, 32, 64];
    s.l2_kb = vec![256, 512, 1024];
    s.l3_mb = vec![4, 16];
    s.mshrs = vec![8, 12, 16];
    s.bpred_kb = vec![4];
    if tiny {
        s.cores.truncate(6);
    }
    s
}

fn kmeans_space(tiny: bool) -> ConfigSpace {
    let mut s = ConfigSpace::default_space();
    if tiny {
        s.l1_kb.truncate(2);
        s.l2_kb.truncate(2);
    }
    s
}

pub fn setup(ctx: &Ctx, sp: &mut Spans, _out: &mut Outcome) -> State {
    let tiny = ctx.size.tiny;
    let mut inputs = Vec::new();
    for (name, space) in [
        ("kmeans", kmeans_space(tiny)),
        ("fluidanimate", fluid_space(tiny)),
    ] {
        let bench = rppm::workloads::by_name(name).expect("catalog analog");
        let program = sp.time("workloads.build", 1, || {
            bench.build(&ctx.params(ctx.size.scale))
        });
        let ops = program.total_ops();
        let profile = sp.time("profiler.profile", ops, || profile(&program));
        inputs.push(Input {
            name,
            profile: Arc::new(profile),
            space,
        });
    }
    State { inputs }
}

const BOUNDS: [f64; 3] = [0.0, 0.01, 0.05];

/// Workers of the timed sweep. A sweep splits the space into one fixed
/// chunk per worker and waits for the slowest, so on a shared machine a
/// 2-worker sweep takes the speed of the more contended core: over the same
/// minutes on a 2-vCPU VM, the best-of-rounds sweep rate spread 2-3 times as
/// much from run to run with 2 workers as with 1. The check still sweeps
/// with `Ctx::jobs` workers.
const TIMED_JOBS: usize = 1;

fn run_sweep(
    input: &Input,
    prep: &PreparedProfile,
    jobs: usize,
) -> Result<DseSweep, rppm::core::DseError> {
    sweep(prep, &input.space, &Constraints::none(), &BOUNDS, jobs)
}

/// `rounds` rounds of prepare + sweep on each input, each between two
/// calibration samples; each input reports the median of its rounds in
/// reference time.
pub fn measure(ctx: &Ctx, st: &State, rounds: usize, sp: &mut Spans, out: &mut Outcome) {
    let mut cal = Calibration::default();
    let mut ref_s = vec![Vec::new(); st.inputs.len()];
    for round in 0..rounds {
        for (i, input) in st.inputs.iter().enumerate() {
            let before = cal.sample();
            let t = Instant::now();
            let prep = sp.time(&format!("core.prepare.{}", input.name), 1, || {
                PreparedProfile::new(Arc::clone(&input.profile))
            });
            let n = input.space.len();
            let result = sp.time(&format!("core.sweep.{}", input.name), n as u64, || {
                run_sweep(input, &prep, TIMED_JOBS)
            });
            let host_s = t.elapsed().as_secs_f64();
            ref_s[i].push(host_s * calib::factor(&[before, cal.sample()]));
            if round == 0 {
                check(ctx, input, &prep, &result, out);
            }
        }
    }
    let ref_s: Vec<f64> = ref_s.iter().map(|s| median(s)).collect();
    let points: usize = st.inputs.iter().map(|i| i.space.len()).sum();
    out.set(
        "dse_points_per_s",
        points as f64 / ref_s.iter().sum::<f64>(),
        "points/s",
    );
    let per_input: Vec<String> = st
        .inputs
        .iter()
        .zip(&ref_s)
        .map(|(i, s)| format!("{} {} points in {:.3} s", i.name, i.space.len(), s))
        .collect();
    println!(
        "dse: median of {rounds} round(s) with {TIMED_JOBS} worker(s), reference time: {}",
        per_input.join(", ")
    );
}

/// Sampled batched evaluations bit-equal scalar prediction, and the sweep
/// optimum does not depend on the worker count.
fn check(
    ctx: &Ctx,
    input: &Input,
    prep: &PreparedProfile,
    result: &Result<DseSweep, rppm::core::DseError>,
    out: &mut Outcome,
) {
    let name = input.name;
    let Ok(result) = result else {
        out.check(false, || format!("{name}: sweep failed: {result:?}"));
        return;
    };
    let n = input.space.len();
    let mut batch = prep.batched();
    for k in 0..8 {
        let i = (k * n / 8 + k * 7) % n;
        let config = input.space.config(i);
        let batched = batch.eval(&config);
        let scalar = rppm::core::predict(&input.profile, &config).total_cycles;
        out.check(batched.to_bits() == scalar.to_bits(), || {
            format!("{name}: point {i}: batched {batched} vs scalar {scalar}")
        });
    }
    let jobs = ctx.jobs;
    match run_sweep(input, prep, jobs) {
        Ok(other) => out.check(
            other.best.index == result.best.index
                && other.best.seconds.to_bits() == result.best.seconds.to_bits()
                && other.candidates == result.candidates,
            || format!("{name}: {jobs}-worker optimum differs from {TIMED_JOBS}-worker optimum"),
        ),
        Err(e) => out.check(false, || format!("{name}: {jobs}-worker sweep failed: {e}")),
    }
}

/// Per-layer probes of the traced run: batched evaluation, symbolic
/// execution, the distinct-cell count, and Pareto extraction.
pub fn layers(ctx: &Ctx, st: &State, sp: &mut Spans, out: &mut Outcome) {
    for input in &st.inputs {
        let name = input.name;
        let prep = PreparedProfile::new(Arc::clone(&input.profile));
        sp.count(&format!("core.cells.{name}"), prep.distinct_epochs() as f64);
        // A run of consecutive points, as one sweep worker sees them (the
        // evaluator memoizes miss rates across neighbouring points).
        let n = input.space.len();
        let run = (n / 16).clamp(1, 4096);
        let samples: Vec<_> = (n / 2..n / 2 + run)
            .map(|i| input.space.config(i))
            .collect();
        let mut batch = prep.batched();
        sp.time(&format!("core.eval.{name}"), samples.len() as u64, || {
            for c in &samples {
                black_box(batch.eval(black_box(c)));
            }
        });

        let config = DesignPoint::Base.config();
        let pred = prep.predict(&config);
        let timelines: Vec<ThreadTimeline> = input
            .profile
            .threads
            .iter()
            .zip(&pred.threads)
            .map(|(t, p)| ThreadTimeline {
                epochs: p.epochs.iter().map(|e| e.cycles).collect(),
                events: t.events.clone(),
            })
            .collect();
        let reps = 32;
        let schedule = sp.time(&format!("core.symexec.{name}"), reps, || {
            let mut last = None;
            for _ in 0..reps {
                last = Some(symexec::execute(black_box(&timelines), &config));
            }
            last.expect("at least one repetition")
        });
        out.check(
            schedule.total.to_bits() == pred.total_cycles.to_bits(),
            || format!("{name}: symexec total differs from the prediction's"),
        );
    }

    // Pareto extraction over every point of the kmeans sweep.
    let input = &st.inputs[0];
    let prep = PreparedProfile::new(Arc::clone(&input.profile));
    let n = input.space.len();
    let chunk = n.div_ceil(ctx.jobs);
    let points: Vec<DsePoint> = rppm::core::parallel_map(ctx.jobs, ctx.jobs, |w| {
        let mut batch = prep.batched();
        ((w * chunk)..((w + 1) * chunk).min(n))
            .map(|index| {
                let c = input.space.config(index);
                DsePoint {
                    index,
                    seconds: c.cycles_to_seconds(batch.eval(&c)),
                    area: rppm::core::area_proxy(&c),
                    power: rppm::core::power_proxy(&c),
                }
            })
            .collect::<Vec<_>>()
    })
    .concat();
    let frontier = sp.time("core.frontier", 1, || pareto_frontier(&points));
    let expected = run_sweep(input, &prep, ctx.jobs).map(|s| s.frontier.len());
    out.check(expected == Ok(frontier.len()), || {
        format!(
            "kmeans: frontier of {} points vs sweep's {expected:?}",
            frontier.len()
        )
    });
}
