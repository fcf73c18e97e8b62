//! `replay`: the catalog's op streams recorded to disk in setup, then
//! replayed out of core: each stream is opened under a decode-buffer pool
//! smaller than one stream (no mmap, verify on), profiled and simulated on
//! the base design point through `ExecSource`.

use crate::report::{median, Outcome};
use crate::spans::Spans;
use crate::Ctx;
use rppm::prelude::*;
use rppm::profiler::profile_replay;
use rppm::sim::simulate_replay;
use rppm::trace::{write_program_ops, BlockItem, OpReplay, StreamOptions};
use std::path::PathBuf;
use std::time::Instant;

pub struct Stream {
    pub program: Program,
    pub path: PathBuf,
}

pub struct State {
    dir: PathBuf,
    pub streams: Vec<Stream>,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Decode-buffer pool budget: well under the smallest recorded stream.
const POOL_BYTES: usize = 64 << 10;

fn options(ctx: &Ctx) -> StreamOptions {
    StreamOptions {
        pool_bytes: POOL_BYTES,
        mmap: false,
        jobs: ctx.jobs,
        verify: true,
        ..StreamOptions::default()
    }
}

pub fn setup(ctx: &Ctx, sp: &mut Spans, out: &mut Outcome) -> State {
    let dir = ctx.scratch_dir("replay");
    let programs = crate::catalog::build(ctx, sp, 1).variants.remove(0);
    let mut streams = Vec::new();
    let mut bytes = 0u64;
    for program in programs {
        let path = dir.join(format!("{}.rpt", program.name));
        let written = sp.time("trace.record", 1, || write_program_ops(&program, &path));
        out.check(written.is_ok(), || {
            format!("{}: record failed: {written:?}", program.name)
        });
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        streams.push(Stream { program, path });
    }
    out.check(bytes > POOL_BYTES as u64, || {
        "streams smaller than the pool".to_string()
    });
    State { dir, streams }
}

/// One pass over the recorded streams: each is opened and profiled, then
/// simulated, and checked against its in-memory twin outside the timed
/// calls.
pub fn measure(ctx: &Ctx, st: &State, sp: &mut Spans, out: &mut Outcome) {
    let base = DesignPoint::Base.config();
    let n = st.streams.len();
    let mut profile_s = vec![0.0; n];
    let mut simulate_s = vec![0.0; n];
    let mut open_s = vec![0.0; n];
    for (i, s) in st.streams.iter().enumerate() {
        let name = &s.program.name;
        let t = Instant::now();
        let opened = sp.time("trace.replay_open", 1, || {
            OpReplay::open_with(&s.path, options(ctx))
        });
        let replay = match opened {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("{name}: open failed: {e}"));
                continue;
            }
        };
        open_s[i] = t.elapsed().as_secs_f64();
        let ops = replay.total_ops();
        let prof = sp.time("profiler.profile_replay", ops, || profile_replay(&replay));
        profile_s[i] = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sim = sp.time("sim.simulate_replay", ops, || {
            simulate_replay(&replay, &base)
        });
        simulate_s[i] = t.elapsed().as_secs_f64();

        // The in-memory twins, untimed.
        let expected = s.program.total_ops();
        out.check(ops == expected, || {
            format!("{name}: replayed {ops} of {expected} ops")
        });
        out.check(prof.is_consistent(), || {
            format!("{name}: inconsistent replayed profile")
        });
        out.check(sim.total_ops() == expected, || {
            format!("{name}: simulated {} of {expected} ops", sim.total_ops())
        });
        out.check(prof.to_json() == profile(&s.program).to_json(), || {
            format!("{name}: replayed profile differs from the in-memory profile")
        });
        let twin = simulate(&s.program, &base);
        out.check(
            sim.total_cycles.to_bits() == twin.total_cycles.to_bits(),
            || {
                format!(
                    "{name}: replayed cycles {} vs in-memory {}",
                    sim.total_cycles, twin.total_cycles
                )
            },
        );
    }
    // Printed, not reported: the run's `profile_mops_per_s` and
    // `simulate_mops_per_s` are the catalog's.
    let ops: u64 = st.streams.iter().map(|s| s.program.total_ops()).sum();
    println!(
        "replay: {n} stream(s), pool {} KiB, mmap off, verify on, host time: open-and-profile \
         {:.3} Mops/s (median open {:.2} ms), simulate {:.3} Mops/s on base",
        POOL_BYTES >> 10,
        ops as f64 / profile_s.iter().sum::<f64>() / 1e6,
        median(&open_s) * 1e3,
        ops as f64 / simulate_s.iter().sum::<f64>() / 1e6,
    );
}

/// Per-layer probe of the traced run: the bare replay-cursor walk.
pub fn layers(ctx: &Ctx, st: &State, sp: &mut Spans, out: &mut Outcome) {
    for s in &st.streams {
        let Ok(replay) = OpReplay::open_with(&s.path, options(ctx)) else {
            out.check(false, || format!("{}: reopen failed", s.program.name));
            continue;
        };
        let ops = replay.total_ops();
        let walked = sp.time("trace.replay_walk", ops, || {
            let mut seen = 0u64;
            for t in 0..s.program.threads.len() {
                let mut cur = replay.cursor(t);
                loop {
                    match cur.peek_block() {
                        Some(BlockItem::Ops(run)) => {
                            let n = run.len();
                            seen += std::hint::black_box(run).len() as u64;
                            cur.consume_ops(n);
                        }
                        Some(BlockItem::Sync(_)) => cur.consume_sync(),
                        None => break,
                    }
                }
            }
            seen
        });
        out.check(walked == ops, || {
            format!("{}: walked {walked} of {ops} ops", s.program.name)
        });
    }
}
