//! End-to-end and per-layer benchmark of the RPPM workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload catalog|serve --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! See `e2ebench/README.md` for the workloads, the metrics and what each
//! per-layer metric should move. The last line of standard output is the
//! JSON result.

mod calib;
mod catalog;
mod dse;
mod replay;
mod report;
mod serve;
mod spans;

use report::{median, peak_rss_mib, result_json, Outcome};
use spans::Spans;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How much work one measurement does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole passes (rounds) while they fit in this many seconds, and at
    /// least the workload's minimum. For `serve`, requests until the time
    /// is up.
    Seconds(f64),
    /// Exactly this many passes; for `serve`, this many requests in all.
    Rounds(usize),
}

impl Budget {
    /// Whether to start pass `done` (0-based), given the workload's minimum
    /// pass count under a time budget, the time spent so far and the length
    /// of the previous pass.
    pub fn another_pass(self, done: usize, min: usize, elapsed: f64, last: f64) -> bool {
        match self {
            Budget::Seconds(s) => done < min || elapsed + last <= s,
            Budget::Rounds(n) => done < n,
        }
    }
}

/// Input sizes: `full` is the benchmark, `tiny` the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub tiny: bool,
    /// Work scale of the catalog, replay and DSE programs.
    pub scale: f64,
    /// Work scale of the programs the service profiles.
    pub serve_scale: f64,
    /// Requests of the serve measurement of the traced run.
    pub serve_requests: usize,
    /// Seconds of the fixed-size serve measurement of a `catalog` run.
    pub serve_seconds: f64,
}

impl Size {
    fn full() -> Self {
        Size {
            tiny: false,
            scale: 0.3,
            serve_scale: 0.05,
            serve_requests: 2000,
            serve_seconds: 8.0,
        }
    }

    fn tiny() -> Self {
        Size {
            tiny: true,
            scale: 0.02,
            serve_scale: 0.02,
            serve_requests: 200,
            serve_seconds: 0.5,
        }
    }
}

pub struct Ctx {
    /// Workload seed handed to the generators (derived from `--seed`).
    pub seed: u64,
    pub size: Size,
    /// Worker threads for sweeps and stream decoding.
    pub jobs: usize,
    out_dir: PathBuf,
}

impl Ctx {
    pub fn params(&self, scale: f64) -> rppm::prelude::WorkloadParams {
        rppm::prelude::WorkloadParams {
            scale,
            seed: self.seed,
        }
    }

    /// A fresh directory under the output directory; the caller removes it.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = self
            .out_dir
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a scratch directory in the output directory");
        dir
    }
}

/// The seed the catalog's goldens and model knobs were tuned on; the
/// benchmark never generates inputs from it.
const TUNING_SEED: u64 = 0x5EED;

/// Maps the benchmark's `--seed` to a generator seed (SplitMix64 finalizer),
/// away from the tuning seed.
fn workload_seed(seed: u64) -> u64 {
    let mut z = seed ^ 0xE2E_BE4C;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == TUNING_SEED {
        z + 1
    } else {
        z
    }
}

/// The benchmark's workloads, named by `--workload`. The `dse` and `replay`
/// pipelines are not workloads of their own: `dse` runs at fixed size in
/// every untraced run, and both run in every traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Catalog,
    Serve,
}

const WORKLOADS: [Workload; 2] = [Workload::Catalog, Workload::Serve];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog",
            Workload::Serve => "serve",
        }
    }
}

/// Set-ups per untraced run; `setup_s` is their median. A catalog set-up
/// only builds the lazily expanded programs (a few milliseconds), so it
/// takes about a second of them: with 101 the median moved between 0.65 and
/// 1.2 ms from run to run. A serve set-up takes about 0.1 s.
const CATALOG_SETUPS: usize = 201;
const SERVE_SETUPS: usize = 9;
/// Size of the fixed-size measurements that supply the metrics the named
/// workload does not measure itself (serve's length is in [`Size`]): one
/// catalog pass per seed variant, and DSE rounds.
const CATALOG_COMPANION_PASSES: usize = catalog::VARIANTS;
const DSE_ROUNDS: usize = 3;

/// Runs `setup` `n` times between two calibration samples, keeping the last
/// state; returns it with the median set-up time in reference seconds. Each
/// state is dropped only after the next is built, so a set-up allocates into memory its predecessor's predecessor freed.
/// Dropping first left it to the allocator whether freed pages went back to
/// the kernel and had to be faulted in again: the catalog's set-up took about
/// 0.9 ms in some runs and 1.4 ms (200 more page faults) in others.
fn setups<S>(n: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut cal = calib::Calibration::default();
    let before = cal.sample();
    let mut st = None;
    let mut times = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        let next = setup();
        times.push(t.elapsed().as_secs_f64());
        st = Some(next);
    }
    let f = calib::factor(&[before, cal.sample()]);
    (st.expect("at least one set-up"), median(&times) * f)
}

/// The untraced run: the named workload for `seconds`, then fixed-size
/// measurements of the other workload and of `dse`, so every end-to-end
/// metric is printed.
fn untraced(ctx: &Ctx, w: Workload, seconds: f64) -> Outcome {
    let mut sp = Spans::new(false, 0);
    let mut out = Outcome::default();
    let own = Budget::Seconds(seconds);
    let start = Instant::now();
    let setup_s = match w {
        Workload::Catalog => {
            let (st, setup_s) = setups(CATALOG_SETUPS, || catalog::setup(ctx, &mut sp, &mut out));
            catalog::measure(ctx, &st, own, &mut sp, &mut out);
            setup_s
        }
        Workload::Serve => {
            let (st, setup_s) = setups(SERVE_SETUPS, || serve::setup(ctx, &mut sp, &mut out));
            serve::measure(ctx, &st, own, &mut sp, &mut out);
            setup_s
        }
    };
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mib(), "MiB");
    let own_s = start.elapsed().as_secs_f64();

    let mut companion = Outcome::default();
    match w {
        Workload::Catalog => {
            let st = serve::setup(ctx, &mut sp, &mut companion);
            let budget = Budget::Seconds(ctx.size.serve_seconds);
            serve::measure(ctx, &st, budget, &mut sp, &mut companion);
        }
        Workload::Serve => {
            let st = catalog::setup(ctx, &mut sp, &mut companion);
            let budget = Budget::Rounds(CATALOG_COMPANION_PASSES);
            catalog::measure(ctx, &st, budget, &mut sp, &mut companion);
        }
    }
    let other_s = start.elapsed().as_secs_f64() - own_s;
    let st = dse::setup(ctx, &mut sp, &mut companion);
    dse::measure(ctx, &st, DSE_ROUNDS, &mut sp, &mut companion);
    println!(
        "{}: host time {own_s:.1} s for set-ups and measurement, {other_s:.1} s for the \
         other workload, {:.1} s for dse",
        w.name(),
        start.elapsed().as_secs_f64() - own_s - other_s
    );
    let borrowed: Vec<&str> = companion
        .metrics
        .keys()
        .map(String::as_str)
        .filter(|k| !out.metrics.contains_key(*k))
        .collect();
    println!(
        "{}: {} from fixed-size companion measurements",
        w.name(),
        borrowed.join(", ")
    );
    out.absorb_missing(companion);
    out
}

/// How a per-layer metric is derived from the recorded spans.
enum Source {
    /// Self time of the named spans per work unit, times a unit factor
    /// (1 for ns, 1e-3 for µs, 1e-6 for ms).
    PerUnit(&'static str, f64),
    /// A counter recorded by the workload.
    Counter(&'static str),
}

/// Every per-layer metric derived from the spans: name, unit, source
/// (`tracing.overhead_pct` is computed separately).
const PER_LAYER: [(&str, &str, Source); 44] = [
    (
        "trace.walk_ns_per_op",
        "ns",
        Source::PerUnit("trace.walk", 1.0),
    ),
    (
        "trace.replay_walk_ns_per_op",
        "ns",
        Source::PerUnit("trace.replay_walk", 1.0),
    ),
    (
        "trace.replay_open_ms",
        "ms",
        Source::PerUnit("trace.replay_open", 1e-6),
    ),
    (
        "trace.record_ms",
        "ms",
        Source::PerUnit("trace.record", 1e-6),
    ),
    (
        "trace.decode_us",
        "us",
        Source::PerUnit("trace.decode", 1e-3),
    ),
    (
        "workloads.build_ms",
        "ms",
        Source::PerUnit("workloads.build", 1e-6),
    ),
    (
        "profiler.profile_ns_per_op",
        "ns",
        Source::PerUnit("profiler.profile", 1.0),
    ),
    (
        "profiler.microtrace_ns_per_op",
        "ns",
        Source::PerUnit("profiler.microtrace", 1.0),
    ),
    (
        "profiler.epochs",
        "count",
        Source::Counter("profiler.epochs"),
    ),
    (
        "statstack.data_reuse_ns_per_op",
        "ns",
        Source::PerUnit("statstack.data_reuse", 1.0),
    ),
    (
        "statstack.icache_reuse_ns_per_op",
        "ns",
        Source::PerUnit("statstack.icache_reuse", 1.0),
    ),
    (
        "branch_model.entropy_ns_per_op",
        "ns",
        Source::PerUnit("branch_model.entropy", 1.0),
    ),
    (
        "statstack.miss_rate_ns",
        "ns",
        Source::PerUnit("statstack.miss_rate", 1.0),
    ),
    (
        "branch_model.miss_rate_ns",
        "ns",
        Source::PerUnit("branch_model.miss_rate", 1.0),
    ),
    (
        "core.prepare_ms",
        "ms",
        Source::PerUnit("core.prepare", 1e-6),
    ),
    (
        "core.prepare_ms.kmeans",
        "ms",
        Source::PerUnit("core.prepare.kmeans", 1e-6),
    ),
    (
        "core.prepare_ms.fluidanimate",
        "ms",
        Source::PerUnit("core.prepare.fluidanimate", 1e-6),
    ),
    (
        "core.predict_us",
        "us",
        Source::PerUnit("core.predict", 1e-3),
    ),
    (
        "core.eval_us.kmeans",
        "us",
        Source::PerUnit("core.eval.kmeans", 1e-3),
    ),
    (
        "core.eval_us.fluidanimate",
        "us",
        Source::PerUnit("core.eval.fluidanimate", 1e-3),
    ),
    (
        "core.symexec_us.kmeans",
        "us",
        Source::PerUnit("core.symexec.kmeans", 1e-3),
    ),
    (
        "core.symexec_us.fluidanimate",
        "us",
        Source::PerUnit("core.symexec.fluidanimate", 1e-3),
    ),
    (
        "core.cells.kmeans",
        "count",
        Source::Counter("core.cells.kmeans"),
    ),
    (
        "core.cells.fluidanimate",
        "count",
        Source::Counter("core.cells.fluidanimate"),
    ),
    (
        "core.frontier_ms",
        "ms",
        Source::PerUnit("core.frontier", 1e-6),
    ),
    (
        "core.cpi_err.base",
        "%",
        Source::Counter("core.cpi_err.base"),
    ),
    (
        "core.cpi_err.branch",
        "%",
        Source::Counter("core.cpi_err.branch"),
    ),
    (
        "core.cpi_err.icache",
        "%",
        Source::Counter("core.cpi_err.icache"),
    ),
    (
        "core.cpi_err.mem_l2",
        "%",
        Source::Counter("core.cpi_err.mem_l2"),
    ),
    (
        "core.cpi_err.mem_l3",
        "%",
        Source::Counter("core.cpi_err.mem_l3"),
    ),
    (
        "core.cpi_err.mem_dram",
        "%",
        Source::Counter("core.cpi_err.mem_dram"),
    ),
    (
        "core.cpi_err.sync",
        "%",
        Source::Counter("core.cpi_err.sync"),
    ),
    (
        "sim.ns_per_op.smallest",
        "ns",
        Source::PerUnit("sim.simulate.smallest", 1.0),
    ),
    (
        "sim.ns_per_op.small",
        "ns",
        Source::PerUnit("sim.simulate.small", 1.0),
    ),
    (
        "sim.ns_per_op.base",
        "ns",
        Source::PerUnit("sim.simulate.base", 1.0),
    ),
    (
        "sim.ns_per_op.big",
        "ns",
        Source::PerUnit("sim.simulate.big", 1.0),
    ),
    (
        "sim.ns_per_op.biggest",
        "ns",
        Source::PerUnit("sim.simulate.biggest", 1.0),
    ),
    (
        "sim.replay_ns_per_op",
        "ns",
        Source::PerUnit("sim.simulate_replay", 1.0),
    ),
    (
        "serve.http_parse_us",
        "us",
        Source::PerUnit("serve.http_parse", 1e-3),
    ),
    (
        "serve.http_write_us",
        "us",
        Source::PerUnit("serve.http_write", 1e-3),
    ),
    ("serve.hit_us", "us", Source::Counter("serve.hit_us")),
    ("serve.cold_ms", "ms", Source::Counter("serve.cold_ms")),
    (
        "serve.cache_hit_ratio",
        "ratio",
        Source::Counter("serve.cache_hit_ratio"),
    ),
    (
        "serve.evictions",
        "count",
        Source::Counter("serve.evictions"),
    ),
];

/// Measures the named workload untraced, traced and untraced again on one
/// set-up; prints, per end-to-end metric, the traced value minus the mean
/// untraced value, and sets `tracing.overhead_pct` from the wall times.
fn with_overhead(
    sp: &mut Spans,
    out: &mut Outcome,
    mut measure: impl FnMut(&mut Spans, &mut Outcome),
) {
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut metrics: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
    for on in [false, true, false] {
        let mut o = Outcome::default();
        let t = Instant::now();
        if on {
            measure(sp, &mut o);
        } else {
            measure(&mut Spans::new(false, 0), &mut o);
        }
        walls[usize::from(on)].push(t.elapsed().as_secs_f64());
        metrics[usize::from(on)].push(o);
    }
    let [plain, spanned] = metrics;
    for (k, (v1, unit)) in &spanned[0].metrics {
        let v0: Vec<f64> = plain
            .iter()
            .filter_map(|o| o.metrics.get(k))
            .map(|m| m.0)
            .collect();
        let v0 = report::mean(&v0);
        println!(
            "tracing overhead: {k}: traced {v1:.4} - untraced {v0:.4} = {:+.4} {unit}",
            v1 - v0
        );
    }
    for o in plain.into_iter().chain(spanned) {
        out.absorb_checks(o);
    }
    let untraced_wall = report::mean(&walls[0]);
    out.set(
        "tracing.overhead_pct",
        (walls[1][0] - untraced_wall) / untraced_wall * 100.0,
        "%",
    );
}

/// The traced run: the named workload through [`with_overhead`], then the
/// other pipelines (`catalog`, `dse`, `replay`, `serve`) once each at fixed
/// size, with spans around each call into a crate; each pipeline's
/// per-layer probes follow its measurement.
fn traced(ctx: &Ctx, w: Workload, seed: u64) -> Outcome {
    let mut sp = Spans::new(true, seed);
    let mut out = Outcome::default();
    // End-to-end figures of the pipelines run after the named workload;
    // only their checks are kept.
    let mut e2e = Outcome::default();
    let catalog_budget = Budget::Rounds(1);
    let serve_budget = Budget::Rounds(ctx.size.serve_requests);

    match w {
        Workload::Catalog => {
            let st = catalog::setup(ctx, &mut sp, &mut out);
            with_overhead(&mut sp, &mut out, |sp, o| {
                catalog::measure(ctx, &st, catalog_budget, sp, o)
            });
            catalog::layers(ctx, &st, &mut sp, &mut out);
        }
        Workload::Serve => {
            let st = serve::setup(ctx, &mut sp, &mut out);
            with_overhead(&mut sp, &mut out, |sp, o| {
                serve::measure(ctx, &st, serve_budget, sp, o)
            });
            serve::layers(ctx, &st, &mut sp, &mut out);
        }
    }
    if w != Workload::Catalog {
        let st = catalog::setup(ctx, &mut sp, &mut out);
        catalog::measure(ctx, &st, catalog_budget, &mut sp, &mut e2e);
        catalog::layers(ctx, &st, &mut sp, &mut out);
    }
    let st = dse::setup(ctx, &mut sp, &mut out);
    dse::measure(ctx, &st, 1, &mut sp, &mut e2e);
    dse::layers(ctx, &st, &mut sp, &mut out);
    drop(st);
    let st = replay::setup(ctx, &mut sp, &mut out);
    replay::measure(ctx, &st, &mut sp, &mut e2e);
    replay::layers(ctx, &st, &mut sp, &mut out);
    drop(st);
    if w != Workload::Serve {
        let st = serve::setup(ctx, &mut sp, &mut out);
        serve::measure(ctx, &st, serve_budget, &mut sp, &mut e2e);
        serve::layers(ctx, &st, &mut sp, &mut out);
    }
    out.absorb_checks(e2e);

    let self_times = sp.self_times();
    for (name, unit, source) in &PER_LAYER {
        let value = match *source {
            Source::PerUnit(span, factor) => self_times
                .get(span)
                .filter(|(_, n)| *n > 0)
                .map(|&(ns, n)| ns as f64 / n as f64 * factor),
            Source::Counter(c) => sp.counter(c),
        };
        // A metric that was not recorded is NaN: a failed check.
        out.set(name, value.unwrap_or(f64::NAN), unit);
    }

    let path = ctx
        .out_dir
        .join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    let written = sp.write_jsonl(&path);
    out.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", path.display())
    });
    println!("spans written to {}", path.display());
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

const USAGE: &str = "usage: rppm-e2ebench --workload catalog|serve [--seed N] \
                     [--seconds S] [--trace 0|1] [--size full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Catalog,
        // A held-out seed: inputs are never generated from the tuning seed.
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::full(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::full(),
                    "tiny" => Size::tiny(),
                    _ => return Err(format!("--size takes full or tiny, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Worker threads for checks and decoding, counted before pinning.
    let jobs = rppm::core::default_jobs().min(2);
    // One CPU for the whole process. With `serve`'s client, worker and
    // runner threads spread over two vCPUs, requests woke threads across
    // vCPUs and the closed loop's rate moved with the host much more than the
    // calibration kernel did: over three runs of one seed, the median
    // reference-time rate ranged over 4 417-5 080 requests/s unpinned and
    // 4 444-4 556 pinned.
    let pinned = calib::pin_to_one_cpu();
    let ctx = Ctx {
        seed: workload_seed(args.seed),
        size: args.size,
        jobs,
        out_dir: PathBuf::from(".e2ebench_out"),
    };
    println!(
        "workload {} seed {} (generator seed {:#x}), {} s, trace {}, scale {}, {} worker(s), \
         pinned to CPU {pinned:?}",
        args.workload.name(),
        args.seed,
        ctx.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.size.scale,
        ctx.jobs
    );
    let out = if args.trace {
        traced(&ctx, args.workload, args.seed)
    } else {
        untraced(&ctx, args.workload, args.seconds)
    };
    for (k, (v, unit)) in &out.metrics {
        println!("{k} = {v} {unit}");
    }
    println!("{}", result_json(&out));
}
