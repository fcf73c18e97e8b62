//! `serve`: an in-process prediction service under a closed loop of two
//! client connections, each waiting for its reply before sending the next
//! request. Reads are mostly `/predict` cache hits plus some `/sweep`;
//! writes are trace uploads of fresh-seed programs (cold profiles that
//! evict under a cache budget smaller than the working set) and occasional
//! machine uploads.
//!
//! The mix and its sizes are assumptions, not measurements of any real
//! client: no trace of the service's traffic exists. `README.md` gives the
//! reason for each share.

use crate::calib::{self, Calibration};
use crate::report::{median, quantile, Outcome};
use crate::spans::Spans;
use crate::{Budget, Ctx};
use rppm::core::predict;
use rppm::docs::{prediction_doc, sweep_doc};
use rppm::prelude::*;
use rppm::trace::{export_program_binary, format_machine, parse_machine, program_fingerprint, Rng};
use rppm::CacheBudget;
use rppm_serve::{Client, ServeConfig, Server};
use serde_json::Value;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections (and client threads): the box's two cores.
pub const CLIENTS: usize = 2;
/// Catalog workloads kept resident and read by `/predict` and `/sweep`.
const HOT: [&str; 4] = ["hotspot", "kmeans", "lud", "blackscholes"];
/// The analog uploaded as traces, once per fresh seed.
const UPLOADED: &str = "nw";
/// Distinct upload programs; with the hot set they exceed the budget.
const UPLOADS: usize = 16;
/// Resident profiles the service may keep.
const BUDGET_ENTRIES: usize = HOT.len() + 2;
/// Machine descriptions uploaded under fresh names.
const MACHINES: usize = 4;

struct Hot {
    query: String,
    /// Offline `/predict` bodies per Table IV design point.
    predict: Vec<(String, String)>,
    sweep: String,
    /// Offline `/predict` bodies per uploaded machine.
    machine: Vec<String>,
}

struct Upload {
    bytes: Vec<u8>,
    trace: String,
    predict: String,
}

pub struct State {
    server: Option<Server>,
    addr: SocketAddr,
    hot: Vec<Hot>,
    uploads: Vec<Upload>,
    machines: Vec<(String, String)>,
    dir: PathBuf,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn body(doc: &Value) -> String {
    serde_json::to_string(doc).expect("documents serialize")
}

fn job_id(text: &str) -> Option<u64> {
    let doc: Value = serde_json::from_str(text).ok()?;
    Value::get(doc.as_object()?, "job").and_then(Value::as_u64)
}

fn field(text: &str, key: &str) -> Option<String> {
    let doc: Value = serde_json::from_str(text).ok()?;
    Value::get(doc.as_object()?, key)
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Sends one request and follows any `202` (poll the job, then ask again)
/// to the final answer, which must be a `200`. Returns the answer's body
/// and whether the first response already was it.
fn until_ok(
    client: &mut Client,
    method: &str,
    path: &str,
    payload: &[u8],
) -> Result<(String, bool), String> {
    let mut resp = if method == "POST" {
        client.post(path, payload)
    } else {
        client.get(path)
    }
    .map_err(|e| format!("{method} {path}: {e}"))?;
    for attempt in 0..8 {
        if resp.status == 200 {
            return Ok((resp.text(), attempt == 0));
        }
        if resp.status != 202 || method == "POST" {
            break;
        }
        let id = job_id(&resp.text()).ok_or_else(|| format!("{path}: 202 without a job"))?;
        await_job(client, id)?;
        resp = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    }
    Err(format!(
        "{method} {path} -> {}: {}",
        resp.status,
        resp.text()
    ))
}

fn await_job(client: &mut Client, id: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = client
            .get(&format!("/jobs/{id}"))
            .map_err(|e| format!("job {id}: {e}"))?;
        match field(&resp.text(), "state").as_deref() {
            Some("done") => return Ok(()),
            Some("failed") => return Err(format!("job {id} failed: {}", resp.text())),
            _ if Instant::now() > deadline => return Err(format!("job {id} timed out")),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

pub fn setup(ctx: &Ctx, sp: &mut Spans, out: &mut Outcome) -> State {
    let scale = ctx.size.serve_scale;
    let params = ctx.params(scale);
    let machines: Vec<MachineConfig> = (0..MACHINES)
        .map(|k| {
            let mut c = DesignPoint::ALL[k % DesignPoint::ALL.len()].config();
            c.name = format!("bench-m{k}");
            c.mshrs = 4 + 4 * k as u32;
            // Round-trip through the file format, as the service does.
            parse_machine(&format_machine(&c)).expect("generated machine parses")
        })
        .collect();

    let mut hot = Vec::new();
    for name in HOT {
        let bench = rppm::workloads::by_name(name).expect("catalog analog");
        let program = sp.time("workloads.build", 1, || bench.build(&params));
        let prof = sp.time("profiler.profile", program.total_ops(), || {
            profile(&program)
        });
        let query = format!("workload={name}&scale={scale}&seed={}", params.seed);
        let labelled: Vec<(String, Prediction)> = DesignPoint::ALL
            .iter()
            .map(|d| (d.to_string(), predict(&prof, &d.config())))
            .collect();
        hot.push(Hot {
            query,
            predict: labelled
                .iter()
                .map(|(d, p)| (d.clone(), body(&prediction_doc(p))))
                .collect(),
            sweep: body(&sweep_doc(name, &labelled)),
            machine: machines
                .iter()
                .map(|m| body(&prediction_doc(&predict(&prof, m))))
                .collect(),
        });
    }

    let bench = rppm::workloads::by_name(UPLOADED).expect("catalog analog");
    let mut seeds = Rng::new(params.seed ^ 0x7570_6c6f_6164);
    let mut uploads = Vec::new();
    for _ in 0..UPLOADS {
        let program = bench.build(&params.with_seed(seeds.next_u64()));
        let bytes = export_program_binary(&program).expect("program exports");
        let prof = profile(&program);
        uploads.push(Upload {
            trace: format!("{:016x}", program_fingerprint(&program)),
            predict: body(&prediction_doc(&predict(
                &prof,
                &DesignPoint::Base.config(),
            ))),
            bytes,
        });
    }

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CLIENTS,
        runners: CLIENTS,
        jobs: 1,
        budget: CacheBudget::entries(BUDGET_ENTRIES),
        // Never spool uploads to the system temp directory.
        spool_bytes: u64::MAX,
        ..ServeConfig::default()
    })
    .expect("bind an in-process server on localhost");
    let addr = server.local_addr();
    let st = State {
        server: Some(server),
        addr,
        hot,
        uploads,
        machines: machines
            .iter()
            .map(|m| (m.name.clone(), format_machine(m)))
            .collect(),
        dir: ctx.scratch_dir("serve"),
    };
    // Warm the hot set: the first request of each profiles it.
    let mut client = Client::new(addr);
    for h in &st.hot {
        let path = format!("/predict?{}&design=base", h.query);
        let got = until_ok(&mut client, "GET", &path, &[]).map(|(b, _)| b);
        let want = &h.predict[2].1;
        out.check(got.as_ref() == Ok(want), || format!("warm {path}: {got:?}"));
    }
    st
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Predict,
    Sweep,
    Upload,
    Machine,
}

struct Sample {
    kind: Kind,
    /// Whether the first response was already the final answer.
    first_try: bool,
    micros: f64,
}

/// Length of the segments the latency and rate figures are taken over.
const SEGMENT_S: f64 = 0.5;
/// Fewest reads a segment needs: ten beyond its 99th percentile.
const SEGMENT_MIN_SAMPLES: usize = 1000;

/// When a client ends a segment.
#[derive(Clone, Copy)]
enum Limit {
    Seconds(f64),
    /// Requests per client.
    Requests(usize),
}

/// One client's share of one segment: its samples, the segment's length on
/// its clock, and the calibration samples it took before and after (none
/// if another client calibrates).
struct Part {
    samples: Vec<Sample>,
    wall: f64,
    cal: Vec<f64>,
}

/// Both clients' shares of one segment.
#[derive(Default)]
struct Segment {
    /// Read latencies, host microseconds.
    reads: Vec<f64>,
    requests: usize,
    /// The longer of the clients' lengths, host seconds.
    wall: f64,
    cal: Vec<f64>,
}

impl Segment {
    /// Read p50 and read p99 in reference microseconds, and requests per
    /// reference second.
    fn figures(&self) -> [f64; 3] {
        let f = calib::factor(&self.cal);
        [
            quantile(&self.reads, 0.50) * f,
            quantile(&self.reads, 0.99) * f,
            self.requests as f64 / (self.wall * f),
        ]
    }
}

/// One client's connection and its place in the seeded request mix.
struct Caller<'a> {
    st: &'a State,
    id: usize,
    rng: Rng,
    client: Client,
    next_upload: usize,
    next_machine: usize,
}

impl Caller<'_> {
    /// Sends one request of the mix, timed from send to its final answer,
    /// and checks the answer against the offline documents.
    fn request(&mut self, sp: &mut Spans, out: &mut Outcome) -> Sample {
        let (st, client) = (self.st, &mut self.client);
        let h = &st.hot[self.rng.next_below(st.hot.len() as u64) as usize];
        let u = self.rng.next_f64();
        // Unverified shares (see the module documentation).
        let kind = match u {
            _ if u < 0.90 => Kind::Predict,
            _ if u < 0.97 => Kind::Sweep,
            _ if u < 0.99 => Kind::Upload,
            _ => Kind::Machine,
        };
        let span = sp.enter(match kind {
            Kind::Predict => "serve.predict",
            Kind::Sweep => "serve.sweep",
            Kind::Upload => "serve.cold",
            Kind::Machine => "serve.machine",
        });
        let t = Instant::now();
        let (result, want) = match kind {
            Kind::Predict => {
                let (design, want) = &h.predict[self.rng.next_below(5) as usize];
                let path = format!("/predict?{}&design={design}", h.query);
                (until_ok(client, "GET", &path, &[]), want.as_str())
            }
            Kind::Sweep => {
                let path = format!("/sweep?{}", h.query);
                (until_ok(client, "GET", &path, &[]), h.sweep.as_str())
            }
            Kind::Upload => {
                let up = &st.uploads[self.next_upload % st.uploads.len()];
                self.next_upload += CLIENTS;
                let result = client
                    .post("/traces", &up.bytes)
                    .map_err(|e| format!("POST /traces: {e}"))
                    .and_then(|r| job_id(&r.text()).ok_or_else(|| format!("upload: {}", r.text())))
                    .and_then(|job| await_job(client, job))
                    .and_then(|()| {
                        let path = format!("/predict?trace={}&design=base", up.trace);
                        until_ok(client, "GET", &path, &[])
                    });
                (result, up.predict.as_str())
            }
            Kind::Machine => {
                let k = self.next_machine % st.machines.len();
                self.next_machine += CLIENTS;
                let (name, text) = &st.machines[k];
                let result =
                    until_ok(client, "POST", "/machines", text.as_bytes()).and_then(|_| {
                        let path = format!("/predict?{}&machine={name}", h.query);
                        until_ok(client, "GET", &path, &[])
                    });
                (result, h.machine[k].as_str())
            }
        };
        let micros = t.elapsed().as_secs_f64() * 1e6;
        sp.exit(span, 1);
        let first_try = matches!(&result, Ok((_, true)));
        let result = result.map(|(b, _)| b);
        let id = self.id;
        out.check(result.as_deref() == Ok(want), || {
            format!("client {id}: {result:?} vs {want}")
        });
        Sample {
            kind,
            first_try,
            micros,
        }
    }
}

/// One client's closed loop over `segments` segments. Between two segments
/// both clients wait for each other, so the service is idle while a
/// calibration sample is taken.
fn client_loop(
    st: &State,
    id: usize,
    seed: u64,
    (segments, limit, barrier): (usize, Limit, &Barrier),
    sp: &mut Spans,
    out: &mut Outcome,
) -> Vec<Part> {
    let mut caller = Caller {
        st,
        id,
        rng: Rng::new(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        client: Client::new(st.addr),
        next_upload: id,
        next_machine: id,
    };
    // One client calibrates while the other waits: with the process pinned
    // to one CPU, two kernels at once would share it.
    let mut cal = (id == 0).then(Calibration::default);
    let mut sample = || cal.as_mut().map(Calibration::sample);
    let mut parts = Vec::new();
    let mut before = sample();
    for _ in 0..segments {
        barrier.wait();
        let start = Instant::now();
        let mut samples = Vec::new();
        while match limit {
            Limit::Seconds(s) => start.elapsed().as_secs_f64() < s,
            Limit::Requests(n) => samples.len() < n,
        } {
            samples.push(caller.request(sp, out));
        }
        let wall = start.elapsed().as_secs_f64();
        barrier.wait();
        let after = sample();
        parts.push(Part {
            samples,
            wall,
            cal: before.into_iter().chain(after).collect(),
        });
        before = after;
    }
    parts
}

/// Runs the closed loop: under a time budget, half-second segments until
/// the budget is spent; under a request budget, one segment of that many
/// requests. Each segment's read p50, read p99 and request rate are
/// converted to reference time with the calibration samples around it, and
/// the figures are their medians over the segments with enough reads.
pub fn measure(ctx: &Ctx, st: &State, budget: Budget, sp: &mut Spans, out: &mut Outcome) {
    let (segments, limit) = match budget {
        Budget::Seconds(s) => (
            (s / SEGMENT_S).round().max(1.0) as usize,
            Limit::Seconds(SEGMENT_S),
        ),
        Budget::Rounds(n) => (1, Limit::Requests(n.div_ceil(CLIENTS))),
    };
    let barrier = Barrier::new(CLIENTS);
    let start = Instant::now();
    let per_client: Vec<(Vec<Part>, Outcome, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let mut csp = sp.fork();
                let plan = (segments, limit, &barrier);
                s.spawn(move || {
                    let mut cout = Outcome::default();
                    let parts = client_loop(st, id, ctx.seed, plan, &mut csp, &mut cout);
                    (parts, cout, csp)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let is_read = |s: &Sample| matches!(s.kind, Kind::Predict | Kind::Sweep);
    let mut segs: Vec<Segment> = Vec::new();
    segs.resize_with(segments, Default::default);
    let mut samples = Vec::new();
    for (parts, cout, csp) in per_client {
        for (seg, part) in segs.iter_mut().zip(parts) {
            seg.reads
                .extend(part.samples.iter().filter(|s| is_read(s)).map(|s| s.micros));
            seg.requests += part.samples.len();
            seg.wall = seg.wall.max(part.wall);
            seg.cal.extend(part.cal);
            samples.extend(part.samples);
        }
        out.absorb_checks(cout);
        sp.absorb(csp);
    }
    // `serve_p50_us` and `serve_p99_us` are read latencies (`/predict` and
    // `/sweep`, under the writes of the other client); the cold path is
    // `serve.cold_ms` of the traced run.
    let full: Vec<[f64; 3]> = segs
        .iter()
        .filter(|s| s.reads.len() >= SEGMENT_MIN_SAMPLES)
        .map(Segment::figures)
        .collect();
    let [p50, p99, rps] = if full.is_empty() {
        let mut all = Segment::default();
        for s in segs {
            all.reads.extend(s.reads);
            all.requests += s.requests;
            all.wall += s.wall;
            all.cal.extend(s.cal);
        }
        all.figures()
    } else {
        std::array::from_fn(|k| median(&full.iter().map(|f| f[k]).collect::<Vec<_>>()))
    };
    out.set("serve_p50_us", p50, "us");
    out.set("serve_p99_us", p99, "us");
    out.set("serve_rps", rps, "req/s");
    let micros = |k: Kind| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.kind == k)
            .map(|s| s.micros)
            .collect()
    };
    println!(
        "serve: {} requests from {CLIENTS} closed-loop clients in {wall:.2} s ({} predict, {} sweep, \
         {} trace upload, {} machine upload); figures are reference-time medians over {} \
         segment(s) of at least {SEGMENT_MIN_SAMPLES} reads (the whole run if none); per-kind \
         figures below are host time",
        samples.len(),
        micros(Kind::Predict).len(),
        micros(Kind::Sweep).len(),
        micros(Kind::Upload).len(),
        micros(Kind::Machine).len(),
        full.len(),
    );
    for (k, name) in [
        (Kind::Predict, "predict"),
        (Kind::Sweep, "sweep"),
        (Kind::Upload, "trace upload"),
        (Kind::Machine, "machine upload"),
    ] {
        // The 99th percentile only with ten samples beyond it.
        let v = micros(k);
        if !v.is_empty() {
            let (tail, q) = if v.len() >= SEGMENT_MIN_SAMPLES {
                ("p99", 0.99)
            } else {
                ("max", 1.0)
            };
            println!(
                "serve: {name}: p50 {:.1} us, {tail} {:.1} us over {} request(s)",
                quantile(&v, 0.5),
                quantile(&v, q),
                v.len()
            );
        }
    }

    if sp.is_on() {
        let reads: Vec<&Sample> = samples
            .iter()
            .filter(|s| matches!(s.kind, Kind::Predict | Kind::Sweep))
            .collect();
        let hits: Vec<f64> = reads
            .iter()
            .filter(|s| s.kind == Kind::Predict && s.first_try)
            .map(|s| s.micros)
            .collect();
        let cold: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == Kind::Upload)
            .map(|s| s.micros)
            .collect();
        out.check(!hits.is_empty() && !cold.is_empty(), || {
            "no cache hit or no upload".into()
        });
        if !hits.is_empty() && !cold.is_empty() {
            sp.count("serve.hit_us", median(&hits));
            sp.count("serve.cold_ms", median(&cold) / 1e3);
        }
        // Reads answered from a resident profile at the first response.
        // Resident-profile peeks are not cache lookups in `/stats`, whose
        // hit counter covers only the profiling jobs.
        let first = reads.iter().filter(|s| s.first_try).count();
        sp.count(
            "serve.cache_hit_ratio",
            first as f64 / reads.len().max(1) as f64,
        );

        let mut client = Client::new(st.addr);
        let stats = client.get("/stats").map(|r| r.text()).unwrap_or_default();
        let evictions = serde_json::from_str::<Value>(&stats).ok().and_then(|v| {
            let cache = Value::get(v.as_object()?, "cache")?.as_object()?.to_vec();
            Value::get(&cache, "evictions").and_then(Value::as_u64)
        });
        out.check(evictions.is_some(), || {
            format!("unreadable /stats: {stats}")
        });
        sp.count("serve.evictions", evictions.unwrap_or(0) as f64);
    }
}

/// Per-layer probes of the traced run: HTTP head parsing and response
/// writing, and decoding an uploaded trace from disk.
pub fn layers(_ctx: &Ctx, st: &State, sp: &mut Spans, out: &mut Outcome) {
    use rppm_serve::http::{read_request_head, write_response};
    const REPS: u64 = 20_000;
    let head = format!(
        "GET /predict?{}&design=base HTTP/1.1\r\nHost: rppm\r\nContent-Length: 0\r\n\r\n",
        st.hot[0].query
    );
    let parsed = sp.time("serve.http_parse", REPS, || {
        let mut ok = 0u64;
        for _ in 0..REPS {
            let mut r = std::io::Cursor::new(black_box(head.as_bytes()));
            ok += u64::from(read_request_head(&mut r).is_ok());
        }
        ok
    });
    out.check(parsed == REPS, || {
        format!("parsed {parsed} of {REPS} request heads")
    });
    let response = st.hot[0].predict[2].1.as_bytes();
    let mut buf = Vec::with_capacity(4096);
    sp.time("serve.http_write", REPS, || {
        for _ in 0..REPS {
            buf.clear();
            write_response(&mut buf, 200, "application/json", black_box(response), true)
                .expect("writes to memory");
        }
    });

    for (i, up) in st.uploads.iter().enumerate() {
        let path = st.dir.join(format!("upload-{i}.rpt"));
        if std::fs::write(&path, &up.bytes).is_err() {
            out.check(false, || format!("cannot write {}", path.display()));
            continue;
        }
        let decoded = sp.time("trace.decode", 1, || rppm::trace::read_program_any(&path));
        let same = decoded.is_ok_and(|p| format!("{:016x}", program_fingerprint(&p)) == up.trace);
        out.check(same, || format!("upload {i} decodes to another program"));
    }
}
