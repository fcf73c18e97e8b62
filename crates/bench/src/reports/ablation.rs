//! Ablation study: re-run the Figure 4 accuracy suite with each refinement
//! of the Equation 1 interval model (PAPER.md, "The model"; each one is
//! documented in `rppm_core::eq1`) disabled in turn, quantifying what every
//! mechanism contributes to RPPM's accuracy.
//!
//! Profiles and simulations do not depend on the calibration [`Knobs`], so
//! one plan run supplies the golden simulations and the one-time profiles,
//! and each variant only re-predicts, through a
//! [`PreparedProfile::with_knobs`] per workload carrying its knob values.

use super::{arr, obj, Report, RunCtx};
use crate::runner::{parallel_for, ExperimentPlan, Row};
use rppm_core::{Knobs, PreparedProfile};
use rppm_workloads::Params;
use serde_json::Value;
use std::sync::{Arc, Mutex};

/// The full model, then one variant per disabled refinement.
fn variants() -> [(&'static str, Knobs); 5] {
    let full = Knobs::default();
    [
        ("full model", full),
        (
            "no path-selection factor (kappa=1)",
            Knobs { kappa: 1.0, ..full },
        ),
        (
            "no MLP efficiency (gamma=cap=1)",
            Knobs {
                mlp_eff: 1.0,
                mlp_cap: 1.0,
                ..full
            },
        ),
        (
            "no chain bound",
            Knobs {
                no_chain_bound: true,
                ..full
            },
        ),
        (
            "no retirement exposure",
            Knobs {
                no_exposure: true,
                ..full
            },
        ),
    ]
}

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

    let mut rows = Vec::new();
    for (name, knobs) in variants() {
        // Re-predict only: simulations and profiles are knob-independent.
        let errs = Mutex::new(vec![0.0f64; runs.len()]);
        parallel_for(ctx.jobs, runs.len(), |i| {
            let run = &runs[i];
            let prepared = PreparedProfile::with_knobs(Arc::clone(&run.workload.profile), knobs);
            let pred = prepared.predict(&config);
            let err = rppm_core::abs_pct_error(pred.total_cycles, run.only().sim.total_cycles);
            errs.lock().expect("errs lock")[i] = err;
        });
        let errs = errs.into_inner().expect("errs lock");
        let (mean, max) = (rppm_core::mean(&errs), rppm_core::max(&errs));
        Row::new()
            .cell(38, name)
            .rcell(10, format!("{:.1}%", mean * 100.0))
            .rcell(10, format!("{:.1}%", max * 100.0))
            .line(&mut out);
        rows.push(obj([
            ("variant", Value::String(name.to_string())),
            ("avg_error", Value::F64(mean)),
            ("max_error", Value::F64(max)),
            (
                "knobs",
                obj([
                    ("kappa", Value::F64(knobs.kappa)),
                    ("mlp_eff", Value::F64(knobs.mlp_eff)),
                    ("mlp_cap", Value::F64(knobs.mlp_cap)),
                    ("no_chain_bound", Value::Bool(knobs.no_chain_bound)),
                    ("no_exposure", Value::Bool(knobs.no_exposure)),
                ]),
            ),
        ]));
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
