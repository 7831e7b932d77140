//! The workloads and what they share: run context, the timed loop, and
//! the per-layer share metrics.

pub mod fit;
pub mod serve;
pub mod store;
pub mod stream;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::report::{Latencies, Outcome};
use crate::trace::Tracer;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "fit_assign",
    "fit_refine",
    "store_spill",
    "stream_feed",
    "serve_mixed",
];

/// Operations a `--smoke` run performs in its timed phase.
const SMOKE_OPS: usize = 2;

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs and a fixed handful of operations (tests).
    pub smoke: bool,
    /// Scratch directory for files the program writes.
    pub dir: PathBuf,
    /// Where to write the recorded spans as JSONL, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl Ctx {
    /// Whether the timed phase that started at `start` and has done `ops`
    /// operations should run another one.
    pub fn more(&self, start: Instant, ops: usize) -> bool {
        if self.smoke {
            ops < SMOKE_OPS
        } else {
            ops == 0 || start.elapsed().as_secs_f64() < self.seconds
        }
    }

    /// `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name, or a failure that prevents measuring at
/// all (the scratch directory cannot be created, the server cannot bind).
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "fit_assign" => Ok(fit::run(&fit::ASSIGN, ctx)),
        "fit_refine" => Ok(fit::run(&fit::REFINE, ctx)),
        "store_spill" => store::run(ctx),
        "stream_feed" => Ok(stream::run(ctx)),
        "serve_mixed" => serve::run(ctx),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// How long an untraced run keeps repeating its set-up. Load on a shared
/// host comes in bursts of a second or two; over a window this long the
/// median set-up is not the cost of one burst.
const SETUP_WINDOW: Duration = Duration::from_secs(3);

/// Set-ups a traced or `--smoke` run performs; neither reports `setup_s`
/// for a bound.
const FEW_SETUPS: usize = 3;

/// The repeated set-up of one run; `setup_s` is the median of its times.
#[derive(Debug)]
pub struct Setups {
    start: Instant,
    times: Latencies,
}

impl Setups {
    /// No set-up done yet; the window starts now.
    pub fn new() -> Setups {
        Setups {
            start: Instant::now(),
            times: Latencies::new(),
        }
    }

    /// Whether to set up once more: at least `min` times and for
    /// `SETUP_WINDOW` in an untraced run, `FEW_SETUPS` times otherwise.
    pub fn more(&self, ctx: &Ctx, min: usize) -> bool {
        let done = self.times.len() as usize;
        if ctx.smoke || ctx.trace {
            done < FEW_SETUPS
        } else {
            done < min || self.start.elapsed() < SETUP_WINDOW
        }
    }

    /// Records one set-up's time.
    pub fn push(&mut self, d: Duration) {
        self.times.push(d);
    }

    /// Records `setup_s`.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", self.times.quantile_ms(0.5) / 1e3, "s");
    }
}

/// Records the end-to-end metrics of a timed phase: the median and the
/// `tail` quantile of `latencies` (one per operation), `throughput` in
/// operations per second, and the peak resident set `rss_mib` read when
/// the timed phase ended.
///
/// A workload passes `tail = 0.99` only when a run makes well over 1000
/// operations, so ten or more lie beyond it; the fit workloads make
/// fewer than 100 and report the median as their tail.
pub fn latency_metrics(
    out: &mut Outcome,
    latencies: &Latencies,
    tail: f64,
    throughput: f64,
    rss_mib: f64,
) {
    out.metric("p50_ms", latencies.quantile_ms(0.5), "ms");
    out.metric("tail_ms", latencies.quantile_ms(tail), "ms");
    out.metric("throughput", throughput, "1/s");
    out.metric("peak_rss_mib", rss_mib, "MiB");
    println!("# samples {}", latencies.len());
}

/// Checks one fit result: `n` labels below `k`, `k` finite centroids.
pub fn check_fit(
    out: &mut Outcome,
    what: &str,
    fit: &kshape::TsResult<kshape::KShapeResult>,
    n: usize,
    k: usize,
) {
    match fit {
        Ok(r) => out.check(
            r.labels.len() == n
                && r.labels.iter().all(|&l| l < k)
                && r.centroids.len() == k
                && r.centroids.iter().flatten().all(|v| v.is_finite()),
            || format!("{what}: malformed fit result"),
        ),
        Err(e) => out.check(false, || format!("{what}: fit failed: {e}")),
    }
}

/// Layers whose self time counts as attributed in `unattributed_ratio`.
const ATTRIBUTED: [&str; 12] = [
    "znorm", "rfft", "xcorr", "extract", "gram", "eigen", "read", "refresh", "fit", "connect",
    "parse", "encode",
];

/// Records each layer's share of `total` (the operations' end-to-end
/// time), `unattributed_ratio`, the rFFT and cross-correlation cost per
/// call, and the calls per operation, from the spans in `tracer`.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer, total: Duration, ops: usize) {
    let layers = tracer.self_times();
    let ns = |name: &str| layers.get(name).map_or(0, |e| e.0) as f64;
    let calls = |name: &str| layers.get(name).map_or(0, |e| e.1) as f64;
    let total_ns = total.as_nanos().max(1) as f64;
    let mut attributed = 0.0;
    for name in ATTRIBUTED {
        let share = ns(name) / total_ns;
        attributed += share;
        out.metric(&format!("layer.{name}.share"), share, "ratio");
    }
    out.metric("unattributed_ratio", 1.0 - attributed, "ratio");
    let per_op = ops.max(1) as f64;
    for name in ["rfft", "xcorr"] {
        let us = if calls(name) > 0.0 {
            ns(name) / 1e3 / calls(name)
        } else {
            0.0
        };
        out.metric(&format!("layer.{name}.us_per_call"), us, "us");
        out.metric(
            &format!("layer.{name}.calls"),
            calls(name) / per_op,
            "count",
        );
    }
    let extractions = calls("extract") + calls("eigen") + calls("refresh");
    out.metric("layer.extract.calls", extractions / per_op, "count");
    out.metric("ops", ops as f64, "count");
}

/// Writes the recorded spans when `--trace-out` asked for them.
pub fn write_trace(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    if let Some(path) = &ctx.trace_out {
        if let Err(e) = tracer.write_jsonl(path) {
            out.check(false, || format!("cannot write {}: {e}", path.display()));
        }
    }
}
