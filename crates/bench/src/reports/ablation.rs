//! Ablation study: re-run the Figure 4 accuracy suite with each refinement
//! of the Equation 1 interval model (PAPER.md, "The model"; each one is
//! documented in `rppm_core::eq1`) disabled in turn, quantifying what every
//! mechanism contributes to RPPM's accuracy.
//!
//! The knobs are env-var overrides read by `rppm-core::eq1` at every
//! `predict` call, and profiles/simulations are knob-independent — so one
//! plan run supplies the golden simulations and the one-time profiles, and
//! each variant only re-predicts. Variants run sequentially (the
//! environment is process-global state); the re-predictions inside a
//! variant fan out in parallel under a then-stable environment.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{parallel_for, ExperimentPlan, Row};
use rppm_core::predict;
use rppm_workloads::Params;
use serde_json::Value;
use std::sync::Mutex;

/// Every knob any variant touches (cleared around each variant).
const KNOBS: [&str; 5] = [
    "RPPM_KAPPA",
    "RPPM_MLP_EFF",
    "RPPM_MLP_CAP",
    "RPPM_NO_CHAIN_BOUND",
    "RPPM_NO_EXPOSURE",
];

const VARIANTS: &[(&str, &[(&str, &str)])] = &[
    ("full model", &[]),
    (
        "no path-selection factor (kappa=1)",
        &[("RPPM_KAPPA", "1.0")],
    ),
    (
        "no MLP efficiency (gamma=cap=1)",
        &[("RPPM_MLP_EFF", "1.0"), ("RPPM_MLP_CAP", "1.0")],
    ),
    ("no chain bound", &[("RPPM_NO_CHAIN_BOUND", "1")]),
    ("no retirement exposure", &[("RPPM_NO_EXPOSURE", "1")]),
];

/// Renders the ablation study at the given work scale.
pub fn ablation(scale: f64, ctx: &RunCtx<'_>) -> Report {
    let params = Params {
        scale,
        ..Params::full()
    };
    let config = ctx.base.clone();
    let runs =
        ExperimentPlan::single_config(ctx.specs(rppm_workloads::all()), params, config.clone())
            .run(ctx.cache, ctx.jobs);

    let mut out = String::new();
    out.push_str(&format!(
        "Ablation: RPPM suite error (all {} benchmarks, base config, scale {scale})\n\n",
        runs.len()
    ));
    Row::new()
        .cell(38, "variant")
        .rcell(10, "avg err")
        .rcell(10, "max err")
        .line(&mut out);
    out.push_str(&"-".repeat(60));
    out.push('\n');

    // Snapshot caller-set knobs so they can be restored afterwards: this
    // function owns the knob environment only for its own duration. (Env
    // mutation is process-global — call this from one thread at a time,
    // which is how `run_all` and the binary drive it.)
    let prior: Vec<(&str, Option<String>)> =
        KNOBS.iter().map(|&k| (k, std::env::var(k).ok())).collect();

    let mut rows = Vec::new();
    for (name, env) in VARIANTS {
        for k in KNOBS {
            std::env::remove_var(k);
        }
        for (k, v) in *env {
            std::env::set_var(k, v);
        }
        // Re-predict only: simulations and profiles are knob-independent.
        let errs = Mutex::new(vec![0.0f64; runs.len()]);
        parallel_for(ctx.jobs, runs.len(), |i| {
            let run = &runs[i];
            let pred = predict(&run.workload.profile, &config);
            let err = rppm_core::abs_pct_error(pred.total_cycles, run.only().sim.total_cycles);
            errs.lock().expect("errs lock")[i] = err;
        });
        let errs = errs.into_inner().expect("errs lock");
        let (mean, max) = (rppm_core::mean(&errs), rppm_core::max(&errs));
        Row::new()
            .cell(38, *name)
            .rcell(10, format!("{:.1}%", mean * 100.0))
            .rcell(10, format!("{:.1}%", max * 100.0))
            .line(&mut out);
        rows.push(obj([
            ("variant", Value::String(name.to_string())),
            ("avg_error", Value::F64(mean)),
            ("max_error", Value::F64(max)),
            (
                "env",
                Value::Object(
                    env.iter()
                        .map(|(k, v)| (k.to_string(), Value::String(v.to_string())))
                        .collect(),
                ),
            ),
        ]));
    }
    for (k, v) in prior {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    out.push('\n');
    out.push_str("Each row disables one Eq. 1 refinement (PAPER.md, \"The model\"); deltas vs. the first row\n");
    out.push_str("quantify that mechanism's contribution to RPPM's accuracy.\n");

    Report {
        name: "ablation",
        text: out,
        json: obj([("scale", Value::F64(scale)), ("variants", arr(rows))]),
    }
}
