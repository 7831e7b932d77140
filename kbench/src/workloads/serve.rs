//! `serve_mixed`: an in-process `tsserve` under an open-loop read load
//! with a steady trickle of writes.
//!
//! The server runs with 2 workers and a checkpoint directory, as a
//! kill-safe deployment does. Two generator threads, one connection
//! each, share those workers:
//!
//! * the reader sends `POST /v1/models/r/assign` (4 series of length
//!   128), first open loop at a fixed 250 requests/s for three quarters
//!   of the timed phase, each timed from its due time, then closed loop —
//!   the next request as soon as the last one is answered — for the last
//!   quarter;
//! * the writer sends 10 writes/s throughout: one in ten refits model `w`
//!   (60 × 128, k = 3), the others push 8 arrivals into stream `s`.
//!
//! An operation is one assign request. `p50_ms` and `tail_ms` come from
//! the open-loop phase and `throughput` is the closed-loop phase's rate of
//! successful assigns, the capacity of one connection. Set-up is binding
//! the server, fitting model `r` and creating stream `s`. Every assign
//! response must equal what `PreparedModel::assign_one` gives, in
//! process, against the model fetched from `GET /v1/models/r`.
//!
//! The traced run is the same run; afterwards it replays each open-loop
//! request's server work in process — parse, z-normalize, rFFT,
//! cross-correlation, encode — and checks the encoded body against the
//! bytes the server sent. The client's connect time is measured on every
//! request. What remains of the latency (accept, queueing, socket I/O) is
//! unattributed. Persistence is timed by replaying the writes' checkpoint
//! stores: serialize, then write through a `CheckpointStore`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kshape::sbd::{PreparedSeries, SbdPlan, SbdScratch};
use tsdata::normalize::try_z_normalize_series;
use tsexperiments::CheckpointStore;
use tsrand::{Rng, StdRng};
use tsserve::registry::{Model, PreparedModel};
use tsserve::wire::{fmt_f64, json_escape, labels_json, SeriesRequest};
use tsserve::{ServeConfig, Server, ServerHandle};

use super::{latency_metrics, layer_metrics, timed, write_trace, Ctx, Setups};
use crate::http::{Client, Response, Schedule};
use crate::inputs::{arrival, cbf, derive, rng, rows_json};
use crate::report::{peak_rss_mib, Latencies, Outcome};
use crate::trace::Tracer;

/// Assign requests per second.
const READ_RATE: f64 = 250.0;
/// Writes per second.
const WRITE_RATE: f64 = 10.0;
/// Series per assign request.
const ASSIGN_SERIES: usize = 4;
/// Series per fit of model `w`.
const FIT_SERIES: usize = 60;
/// Series in the set-up fit of model `r`: large enough that the fit, not
/// the server's accept poll, sets the set-up time.
const R_SERIES: usize = 300;
/// Iteration cap of that fit, which it nearly always reaches, so set-up
/// does about the same work whatever the seed.
const R_MAX_ITER: usize = 5;
/// Arrivals per stream push.
const PUSH_ARRIVALS: usize = 8;
/// Series length.
const M: usize = 128;
/// Distinct assign bodies the reader cycles through.
const ASSIGN_BODIES: usize = 64;
/// Least number of server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Bound on any single exchange.
const TIMEOUT: Duration = Duration::from_secs(10);
/// How long the server's accept loop sleeps when no connection waits.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// The assign endpoint of model `r`.
const ASSIGN_PATH: &str = "/v1/models/r/assign";

/// One open-loop assign request as the reader saw it.
struct Read {
    body: usize,
    latency: Duration,
    late: Duration,
    connect: Duration,
    ok: bool,
}

/// Pre-built request bodies.
struct Bodies {
    /// The series of model `r`'s fit, as JSON.
    r_series: String,
    assign: Vec<String>,
    w_fit: Vec<String>,
    push: Vec<String>,
}

impl Bodies {
    /// The body of model `r`'s fit with initialization seed `init`.
    fn r_fit(&self, init: u64) -> String {
        format!(
            "{{\"series\":{},\"k\":3,\"seed\":{},\"max_iter\":{R_MAX_ITER}}}",
            self.r_series,
            init % 1_000_000
        )
    }
}

fn bodies(seed: u64) -> Bodies {
    let fit = |stream: u64, n: usize, max_iter: usize| {
        let d = cbf(n / 3, M, derive(seed, stream));
        format!(
            "{{\"series\":{},\"k\":3,\"seed\":{},\"max_iter\":{max_iter}}}",
            rows_json(&d.series),
            derive(seed, stream + 1000) % 1_000_000
        )
    };
    let assign = (0..ASSIGN_BODIES as u64)
        .map(|b| {
            let d = cbf(2, M, derive(seed, 500 + b));
            format!("{{\"series\":{}}}", rows_json(&d.series[..ASSIGN_SERIES]))
        })
        .collect();
    let mut r = rng(seed, 600);
    let push = (0..16)
        .map(|_| {
            let rows: Vec<Vec<f64>> = (0..PUSH_ARRIVALS)
                .map(|_| {
                    let c = r.gen_range(0..4);
                    arrival(0, c, M, &mut r)
                })
                .collect();
            format!("{{\"series\":{}}}", rows_json(&rows))
        })
        .collect();
    Bodies {
        r_series: rows_json(&cbf(R_SERIES / 3, M, derive(seed, 400)).series),
        assign,
        w_fit: (0..4).map(|i| fit(410 + i, FIT_SERIES, 100)).collect(),
        push,
    }
}

/// Starts a server with its checkpoints under `dir`, fits model `r` with
/// initialization seed `init` and creates stream `s`: the workload's
/// set-up. Returns the server and the time the program's calls took.
///
/// Before each request the client idles, untimed, for a random part of
/// `ACCEPT_POLL` drawn from `phase`, so that requests meet the server's
/// accept poll at a random phase, as independent clients' would.
/// Otherwise the phase is set by how long one seed's fit takes, and the
/// median set-up of a run lands a whole poll higher on some seeds than on
/// others.
fn start(
    dir: &std::path::Path,
    b: &Bodies,
    seed: u64,
    init: u64,
    phase: &mut StdRng,
) -> Result<(ServerHandle, Duration), String> {
    let (server, mut busy) = timed(|| {
        Server::bind(ServeConfig {
            workers: 2,
            checkpoint_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        })
        .map(Server::spawn)
    });
    let server = server.map_err(|e| format!("cannot bind the server: {e}"))?;
    let mut c = Client::new(server.addr(), TIMEOUT);
    let create = format!(
        "{{\"k\":4,\"m\":{M},\"seed\":{}}}",
        derive(seed, 700) % 1_000_000
    );
    for (path, body) in [
        ("/v1/models/r/fit", b.r_fit(init)),
        ("/v1/streams/s", create),
    ] {
        std::thread::sleep(ACCEPT_POLL.mul_f64(phase.gen_range(0.0..1.0)));
        let (resp, d) = timed(|| c.request("POST", path, body.as_bytes()));
        busy += d;
        let (resp, _) = resp.map_err(|e| format!("set-up request {path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("set-up request {path}: status {}", resp.status));
        }
    }
    Ok((server, busy))
}

/// The write generator: `WRITE_RATE` writes/s until `stop`. Returns each
/// write's kind (true = fit), latency from its due time, and success.
fn writer(
    addr: std::net::SocketAddr,
    b: Arc<Bodies>,
    stop: Arc<AtomicBool>,
    start: Instant,
) -> Vec<(bool, Duration, bool)> {
    let mut c = Client::new(addr, TIMEOUT);
    let sched = Schedule::new(start, Duration::from_secs_f64(1.0 / WRITE_RATE));
    let mut out = Vec::new();
    let mut j = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let (due, _) = sched.wait(j);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let fit = j.is_multiple_of(10);
        let (path, body) = if fit {
            (
                "/v1/models/w/fit",
                &b.w_fit[(j / 10) as usize % b.w_fit.len()],
            )
        } else {
            ("/v1/streams/s/push", &b.push[j as usize % b.push.len()])
        };
        let ok = matches!(c.request("POST", path, body.as_bytes()), Ok((r, _)) if r.status == 200);
        out.push((fit, due.elapsed(), ok));
        j += 1;
    }
    out
}

/// Runs `serve_mixed`.
///
/// # Errors
///
/// When the scratch directory cannot be created or the server cannot
/// start.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let b = Arc::new(bodies(ctx.seed));

    // Each set-up fits from another initialization, so the median covers
    // the spread of fit work a seed can give. The server the run measures
    // is started afterwards from a fixed one.
    let mut setups = Setups::new();
    let mut phase = rng(ctx.seed, 800);
    let mut rep = 0u64;
    while setups.more(ctx, SETUP_REPS) {
        let dir = ctx.dir.join(format!("ck{rep}"));
        let (s, d) = start(&dir, &b, ctx.seed, derive(ctx.seed, 1401 + rep), &mut phase)?;
        s.drain_and_join().map_err(|e| format!("drain: {e}"))?;
        // Removed now rather than with the run's scratch directory, so a
        // run holds one set-up's files at a time.
        let _ = std::fs::remove_dir_all(&dir);
        setups.push(d);
        rep += 1;
    }
    let (server, _) = start(
        &ctx.dir.join("ck"),
        &b,
        ctx.seed,
        derive(ctx.seed, 1400),
        &mut phase,
    )?;
    let addr = server.addr();
    let mut reader = Client::new(addr, TIMEOUT);

    // Warm-up: a few of each request kind.
    for i in 0..20 {
        let _ = reader.request("POST", ASSIGN_PATH, b.assign[i].as_bytes());
    }
    for body in b.push.iter().take(2) {
        let _ = reader.request("POST", "/v1/streams/s/push", body.as_bytes());
    }

    // Every response must match the in-process assignment against the
    // served model, which no write changes.
    let model = fetch_model(&mut reader, "r")?;
    let prepared = PreparedModel::new(model).map_err(|e| format!("model r: {e}"))?;
    let expected: Vec<String> = b
        .assign
        .iter()
        .map(|body| expected_body(&prepared, body.as_bytes()))
        .collect();

    let (open, closed) = if ctx.smoke {
        (0.3, 0.1)
    } else {
        (ctx.seconds * 0.75, ctx.seconds * 0.25)
    };
    let begin = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let write_thread = {
        let (b, stop) = (Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || writer(addr, b, stop, begin))
    };
    let sched = Schedule::new(begin, Duration::from_secs_f64(1.0 / READ_RATE));
    let mut reads = Vec::new();
    let mut i = 0u64;
    while sched.due(i) < begin + Duration::from_secs_f64(open) {
        let (due, late) = sched.wait(i);
        let body = i as usize % ASSIGN_BODIES;
        let exchange = reader.request("POST", ASSIGN_PATH, b.assign[body].as_bytes());
        let latency = due.elapsed();
        let (ok, connect) = record_assign(&mut out, i, exchange, &expected[body]);
        reads.push(Read {
            body,
            latency,
            late,
            connect,
            ok,
        });
        i += 1;
    }
    let closed_start = Instant::now();
    let mut served = 0u64;
    while closed_start.elapsed().as_secs_f64() < closed {
        let body = i as usize % ASSIGN_BODIES;
        let exchange = reader.request("POST", ASSIGN_PATH, b.assign[body].as_bytes());
        served += u64::from(record_assign(&mut out, i, exchange, &expected[body]).0);
        i += 1;
    }
    let throughput = served as f64 / closed_start.elapsed().as_secs_f64();
    let rss = peak_rss_mib();
    stop.store(true, Ordering::SeqCst);
    let writes = write_thread
        .join()
        .map_err(|_| "write generator panicked")?;

    for &(_, _, ok) in &writes {
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    let state = server.state();
    out.check(state.gate.panics_total() == 0, || {
        "the server contained a panic".into()
    });

    if ctx.trace {
        traced_metrics(
            ctx, &mut out, &reads, &writes, &b, &expected, &prepared, &server,
        )?;
    } else {
        let mut latencies = Latencies::new();
        reads.iter().for_each(|r| latencies.push(r.latency));
        latency_metrics(&mut out, &latencies, 0.99, throughput, rss);
        setups.report(&mut out);
    }
    server.drain_and_join().map_err(|e| format!("drain: {e}"))?;
    Ok(out)
}

/// Counts one assign exchange in `out` and checks a successful response
/// against the `expected` body. Returns whether it succeeded and the time
/// spent connecting.
fn record_assign(
    out: &mut Outcome,
    n: u64,
    exchange: std::io::Result<(Response, Duration)>,
    expected: &str,
) -> (bool, Duration) {
    out.attempted += 1;
    match exchange {
        Ok((r, connect)) if r.status == 200 => {
            out.check(r.body == expected.as_bytes(), || {
                format!("assign {n}: response differs from the in-process assignment")
            });
            (true, connect)
        }
        Ok((_, connect)) => {
            out.failed += 1;
            (false, connect)
        }
        Err(_) => {
            out.failed += 1;
            (false, Duration::ZERO)
        }
    }
}

/// `GET /v1/models/{name}`, parsed.
fn fetch_model(c: &mut Client, name: &str) -> Result<Model, String> {
    let (resp, _) = c
        .request("GET", &format!("/v1/models/{name}"), b"")
        .map_err(|e| format!("GET model {name}: {e}"))?;
    let text = String::from_utf8(resp.body).map_err(|_| "model body is not UTF-8")?;
    Model::from_json(&text).ok_or_else(|| format!("GET model {name}: unparsable model"))
}

/// The body the server should send for an assign request: z-normalize
/// each series, assign it in process, encode as the handler does.
fn expected_body(model: &PreparedModel, request: &[u8]) -> String {
    let Ok(req) = SeriesRequest::parse(request) else {
        return String::new();
    };
    let mut scratch = SbdScratch::default();
    let (labels, dists): (Vec<usize>, Vec<f64>) = req
        .series
        .iter()
        .map(|s| match try_z_normalize_series(s, 0) {
            Ok(z) => model.assign_one(&z, &mut scratch),
            Err(_) => (usize::MAX, f64::NAN),
        })
        .unzip();
    encode(&model.model.name, &labels, &dists)
}

/// The assign handler's response encoding.
fn encode(name: &str, labels: &[usize], dists: &[f64]) -> String {
    let mut body = format!(
        "{{\"model\":\"{}\",\"labels\":{},\"distances\":[",
        json_escape(name),
        labels_json(labels)
    );
    for (i, d) in dists.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&fmt_f64(*d));
    }
    body.push_str("]}");
    body
}

/// Replays one assign request's server-side work, recording each layer
/// under the open request span. Returns the encoded body.
fn replay_request(
    tr: &mut Tracer,
    plan: &SbdPlan,
    cents: &[PreparedSeries],
    name: &str,
    body: &[u8],
) -> String {
    let t = Instant::now();
    let req = SeriesRequest::parse(body);
    tr.since("parse", t, 1);
    let Ok(req) = req else { return String::new() };
    let mut scratch = SbdScratch::default();
    let mut fft = Vec::new();
    let (mut labels, mut dists) = (Vec::new(), Vec::new());
    for s in &req.series {
        let t = Instant::now();
        let z = try_z_normalize_series(s, 0);
        tr.since("znorm", t, 1);
        let Ok(z) = z else { return String::new() };
        let t = Instant::now();
        let p = plan.prepare_with(&z, &mut fft);
        tr.since("rfft", t, 1);
        let t = Instant::now();
        let mut best = (0usize, f64::INFINITY);
        for (j, c) in cents.iter().enumerate() {
            let (d, _) = plan.sbd_spectra(&p, c, &mut scratch);
            if d < best.1 {
                best = (j, d);
            }
        }
        tr.since("xcorr", t, cents.len() as u64);
        labels.push(best.0);
        dists.push(best.1);
    }
    let t = Instant::now();
    let encoded = encode(name, &labels, &dists);
    tr.since("encode", t, 1);
    encoded
}

/// Per-layer metrics of the traced run. `expected[i]` is the response
/// body of `b.assign[i]`.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    reads: &[Read],
    writes: &[(bool, Duration, bool)],
    b: &Bodies,
    expected: &[String],
    prepared: &PreparedModel,
    server: &ServerHandle,
) -> Result<(), String> {
    let model = &prepared.model;
    let plan = SbdPlan::new(model.m);
    let cents: Vec<PreparedSeries> = model.centroids.iter().map(|c| plan.prepare(c)).collect();
    let mut tracer = Tracer::new();
    let mut total = Duration::ZERO;
    let mut ops = 0usize;
    for (n, r) in reads.iter().enumerate() {
        tracer.set_op(n as u64);
        let span = tracer.open("serve.request");
        let start = Instant::now();
        tracer.record("connect", start, r.connect, 1);
        let encoded = replay_request(
            &mut tracer,
            &plan,
            &cents,
            &model.name,
            b.assign[r.body].as_bytes(),
        );
        // A successful response already equals `expected`.
        out.check(!r.ok || encoded == expected[r.body], || {
            format!("assign {n}: replayed encoding differs from the response")
        });
        tracer.close_as(span, r.latency);
        total += r.latency;
        ops += 1;
    }
    layer_metrics(out, &tracer, total, ops);
    // The replay runs after the timed phase, so tracing adds nothing to it.
    out.metric("trace.overhead_ratio", 0.0, "ratio");
    let late = reads
        .iter()
        .filter(|r| r.late >= Duration::from_millis(1))
        .count();
    out.metric(
        "serve.late_ratio",
        late as f64 / reads.len().max(1) as f64,
        "ratio",
    );

    // Persistence: replay each write kind's checkpoint store into a
    // scratch store on the same filesystem.
    let store = CheckpointStore::new(ctx.dir.join("replay"));
    let state = server.state();
    let persist = |name: &str, payload: &dyn Fn() -> Option<String>| -> Result<Duration, String> {
        let reps = 5;
        let (r, d) = timed(|| {
            (0..reps).try_for_each(|_| match payload() {
                Some(p) => store.store_named(name, &p),
                None => Ok(()),
            })
        });
        r.map_err(|e| format!("persist replay: {e}"))?;
        Ok(d / reps)
    };
    let fit_persist = persist("model__w", &|| {
        state.registry.get("w").map(|m| m.model.to_json())
    })?;
    let stream_persist = persist("stream__s", &|| {
        let entry = state.streams.get("s")?;
        let entry = entry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(entry.engine.to_json())
    })?;
    let fits = writes.iter().filter(|w| w.0).count() as u32;
    let pushes = writes.len() as u32 - fits;
    // The server checkpoints a stream every 64 accepted arrivals, i.e.
    // every 64 / PUSH_ARRIVALS pushes.
    let persisted = fit_persist * fits + stream_persist * pushes * PUSH_ARRIVALS as u32 / 64;
    let write_total: Duration = writes.iter().map(|w| w.1).sum();
    out.metric(
        "layer.persist.share",
        persisted.as_secs_f64() / write_total.as_secs_f64().max(1e-9),
        "ratio",
    );
    write_trace(ctx, &tracer, out);
    Ok(())
}
