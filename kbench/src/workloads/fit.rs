//! `fit_assign` and `fit_refine`: repeated in-memory `KShape::fit_with`.
//!
//! * `fit_assign` clusters the 20-class shape mix (n = 2000, m = 128,
//!   k = 16). Clusters hold fewer members than m, so refinement takes the
//!   cheap dual-Gram path and the assignment sweep dominates.
//! * `fit_refine` clusters three waveform classes (n = 2100, m = 512,
//!   k = 3). Clusters hold more members than m, so the primal Gram and
//!   the eigen step dominate. The classes separate cleanly, so clusters
//!   stay near 700 members and every fit does about the same work.
//!
//! Both cap a fit at an iteration count that random initializations on
//! these inputs almost never converge within, so nearly every fit does
//! the same number of iterations whatever the seed.
//!
//! An operation is one fit with the library's automatic thread count, on
//! one of a small pool of seeded datasets with a seeded initialization.
//! Set-up is z-normalizing the pool. The traced run fits each dataset
//! three times — automatic threads, one thread, and the serial replay —
//! and requires all three to agree bit for bit.

use std::time::{Duration, Instant};

use kshape::spectra::resolve_threads;
use kshape::{KShape, KShapeOptions};
use tsdata::Dataset;
use tseval::{adjusted_rand_index, rand_index};

use super::{check_fit, latency_metrics, layer_metrics, timed, write_trace, Ctx, Setups};
use crate::inputs::{derive, shape_mix, waves};
use crate::replay;
use crate::report::{median, peak_rss_mib, Latencies, Outcome};
use crate::trace::Tracer;

/// Which generator a fit workload draws from.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// The 20-class shape mix.
    Mix,
    /// Three waveform classes: sine, square, sawtooth.
    Waves,
}

/// The shape of one fit workload.
#[derive(Debug, Clone, Copy)]
pub struct FitSpec {
    /// Generator family.
    pub family: Family,
    /// Series per class (full size, smoke size).
    pub per_class: (usize, usize),
    /// Series length (full size, smoke size).
    pub m: (usize, usize),
    /// Clusters (full size, smoke size).
    pub k: (usize, usize),
    /// Iteration cap.
    pub max_iter: usize,
    /// Datasets in the pool the fits cycle through.
    pub pool: usize,
}

/// `fit_assign`: 20 classes × 100 series of length 128, k = 16.
pub const ASSIGN: FitSpec = FitSpec {
    family: Family::Mix,
    per_class: (100, 4),
    m: (128, 32),
    k: (16, 4),
    max_iter: 10,
    pool: 2,
};

/// `fit_refine`: 3 classes × 700 series of length 512, k = 3.
pub const REFINE: FitSpec = FitSpec {
    family: Family::Waves,
    per_class: (700, 20),
    m: (512, 64),
    k: (3, 3),
    max_iter: 8,
    pool: 2,
};

/// Least number of times the z-normalization of the raw pool is repeated
/// to give `setup_s` as a median.
const SETUP_REPS: usize = 9;

fn options(k: usize, seed: u64, max_iter: usize) -> KShapeOptions<'static> {
    KShapeOptions::new(k)
        .with_seed(seed)
        .with_max_iter(max_iter)
}

/// Runs one fit workload.
pub fn run(spec: &FitSpec, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let per_class = ctx.size(spec.per_class.0, spec.per_class.1);
    let m = ctx.size(spec.m.0, spec.m.1);
    let k = ctx.size(spec.k.0, spec.k.1);
    let raw: Vec<Dataset> = (0..spec.pool as u64)
        .map(|p| {
            let seed = derive(ctx.seed, 10 + p);
            match spec.family {
                Family::Mix => shape_mix(per_class, m, seed),
                Family::Waves => waves(per_class, m, seed),
            }
        })
        .collect();

    let mut setups = Setups::new();
    let mut pool = raw.clone();
    while setups.more(ctx, SETUP_REPS) {
        // Copied into the same buffers every time: repeating the set-up
        // allocates nothing, so it does not move `peak_rss_mib`.
        for (p, r) in pool.iter_mut().zip(&raw) {
            for (ps, rs) in p.series.iter_mut().zip(&r.series) {
                ps.copy_from_slice(rs);
            }
        }
        let ((), d) = timed(|| pool.iter_mut().for_each(Dataset::z_normalize));
        setups.push(d);
    }
    let init_seed = |i: u64| derive(ctx.seed, 100 + i);

    // Warm-up on an offset seed: caches, allocator, thread start-up.
    let _ = KShape::fit_with(
        &pool[0].series,
        &options(k, derive(ctx.seed, 99), spec.max_iter),
    );

    let start = Instant::now();
    if ctx.trace {
        traced(spec, ctx, &pool, k, &mut out, init_seed);
    } else {
        let mut latencies = Latencies::new();
        let mut busy = Duration::ZERO;
        let mut ri = Vec::new();
        let mut i = 0;
        while ctx.more(start, i) {
            let data = &pool[i % pool.len()];
            let (fit, d) = timed(|| {
                KShape::fit_with(
                    &data.series,
                    &options(k, init_seed(i as u64), spec.max_iter),
                )
            });
            out.attempted += 1;
            check_fit(&mut out, &format!("fit {i}"), &fit, data.n_series(), k);
            match fit {
                Ok(r) => ri.push(adjusted_rand_index(&r.labels, &data.labels)),
                Err(_) => out.failed += 1,
            }
            latencies.push(d);
            busy += d;
            i += 1;
        }
        let rss = peak_rss_mib();
        let throughput = i as f64 / busy.as_secs_f64();
        latency_metrics(&mut out, &latencies, 0.5, throughput, rss);
        setups.report(&mut out);
        // Shape classes must be recovered better than chance.
        let ari = median(&ri);
        out.check(ari > 0.1, || {
            format!("median adjusted Rand index {ari} <= 0.1")
        });
    }
    out
}

/// The traced run: every fit three ways, checked against each other,
/// with the serial replay's spans giving the layer split.
fn traced(
    spec: &FitSpec,
    ctx: &Ctx,
    pool: &[Dataset],
    k: usize,
    out: &mut Outcome,
    init_seed: impl Fn(u64) -> u64,
) {
    let mut tracer = Tracer::new();
    let (mut auto_t, mut serial_t, mut replay_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut iterations, mut ri, mut ops) = (0usize, 0.0, 0usize);
    let start = Instant::now();
    while ctx.more(start, ops) {
        let i = ops as u64;
        let data = &pool[ops % pool.len()];
        let series = &data.series;
        let seed = init_seed(i);
        let (auto, da) = timed(|| KShape::fit_with(series, &options(k, seed, spec.max_iter)));
        let (serial, ds) =
            timed(|| KShape::fit_with(series, &options(k, seed, spec.max_iter).with_threads(1)));
        tracer.set_op(i);
        let (replayed, dr) =
            timed(|| replay::fit_with(series, k, seed, spec.max_iter, &mut tracer));
        out.attempted += 1;
        let n = series.len();
        check_fit(out, &format!("fit {i} (auto threads)"), &auto, n, k);
        check_fit(out, &format!("fit {i} (one thread)"), &serial, n, k);
        check_fit(out, &format!("fit {i} (replay)"), &replayed, n, k);
        if let (Ok(a), Ok(s), Ok(r)) = (&auto, &serial, &replayed) {
            out.check(replay::identical(a, s), || {
                format!("fit {i}: thread count changed the result")
            });
            out.check(replay::identical(s, r), || {
                format!("fit {i}: replay differs from the program")
            });
            iterations += s.iterations;
            ri += rand_index(&s.labels, &data.labels);
        } else {
            out.failed += 1;
        }
        auto_t += da;
        serial_t += ds;
        replay_t += dr;
        ops += 1;
    }
    layer_metrics(out, &tracer, serial_t, ops);
    out.metric(
        "trace.overhead_ratio",
        replay_t.as_secs_f64() / serial_t.as_secs_f64() - 1.0,
        "ratio",
    );
    out.metric("kshape.iterations", iterations as f64 / ops as f64, "count");
    out.metric("kshape.threads", resolve_threads(0) as f64, "count");
    out.metric(
        "kshape.threads.speedup",
        serial_t.as_secs_f64() / auto_t.as_secs_f64(),
        "ratio",
    );
    out.metric("quality.rand_index", ri / ops as f64, "ratio");
    write_trace(ctx, &tracer, out);
}
