//! `store_spill`: `kshape::fit_store` over a spilled `f32` `SeriesStore`.
//!
//! The data plane's workload: cylinder–bell–funnel rows written to
//! checksummed 1024-row segments with two segments resident. The fit has
//! no spectrum cache, so every iteration re-reads, re-checks and
//! re-transforms every row and folds it into a per-cluster Gram.
//!
//! Set-up is z-normalizing each row and writing it to the store, which
//! seals, checksums and syncs every full segment. The store is not
//! normalized in place afterwards: that rewrites every segment over its
//! old file, and freeing the old file's blocks costs 50–100 ms a segment
//! on a file system mounted with online discard, a latency that varies by
//! a quarter from run to run and would swamp the program's own set-up
//! time. The rows are generated one at a time as they are written, so
//! `peak_rss_mib` is the store's and the fit's memory, not the
//! benchmark's copy of the input. The traced run replays each fit
//! through the same row source and requires the replay to agree bit for
//! bit.

use std::time::{Duration, Instant};

use kshape::{fit_store, KShapeOptions, TsResult};
use tsdata::normalize::z_normalize_in_place;
use tsdata::store::{ElemType, SeriesStore, SpillConfig, SpillStats};
use tseval::{adjusted_rand_index, rand_index};

use super::{check_fit, latency_metrics, layer_metrics, timed, write_trace, Ctx, Setups};
use crate::inputs::{cbf_rows, derive};
use crate::replay;
use crate::report::{median, peak_rss_mib, Latencies, Outcome};
use crate::trace::Tracer;

/// Clusters.
const K: usize = 3;
/// Iteration cap of every fit.
const MAX_ITER: usize = 10;
/// Rows per sealed segment.
const ROWS_PER_SEGMENT: usize = 1024;
/// Decoded segments the store keeps resident.
const RESIDENT: usize = 2;
/// Least number of store builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// A built store, its rows' classes, and the time its set-up took.
type Built = (SeriesStore, Vec<usize>, Duration);

/// Z-normalizes CBF rows generated from `seed` and writes them into a
/// fresh spilled store under `dir`: the workload's set-up. Each row is
/// generated just before it is normalized and pushed and dropped after, so
/// the input is never held whole; only the program's calls are timed.
fn build(per_class: usize, m: usize, seed: u64, dir: &std::path::Path) -> TsResult<Built> {
    let cfg = SpillConfig::new(dir)
        .rows_per_segment(ROWS_PER_SEGMENT)
        .resident_segments(RESIDENT);
    let (store, mut busy) = timed(|| SeriesStore::spilled(m, ElemType::F32, cfg));
    let mut store = store?;
    let mut labels = Vec::with_capacity(3 * per_class);
    for (mut row, class) in cbf_rows(per_class, m, seed) {
        let (pushed, d) = timed(|| {
            z_normalize_in_place(&mut row);
            store.push_row(&row)
        });
        pushed?;
        busy += d;
        labels.push(class);
    }
    Ok((store, labels, busy))
}

fn options(seed: u64) -> KShapeOptions<'static> {
    KShapeOptions::new(K)
        .with_seed(seed)
        .with_max_iter(MAX_ITER)
}

fn stats(store: &SeriesStore) -> SpillStats {
    store.spill_stats().unwrap_or_default()
}

/// Runs `store_spill`.
///
/// # Errors
///
/// When the scratch directory or the store cannot be created.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let per_class = ctx.size(4_000, 400);
    let m = ctx.size(128, 32);
    let n = 3 * per_class;

    let mut setups = Setups::new();
    let mut built: Option<(SeriesStore, Vec<usize>)> = None;
    let mut rep = 0;
    while setups.more(ctx, SETUP_REPS) {
        // The previous store, and with it its segment files, goes first.
        drop(built.take());
        let dir = ctx.dir.join(format!("store{rep}"));
        let (store, labels, d) = build(per_class, m, derive(ctx.seed, 20), &dir)
            .map_err(|e| format!("cannot build the spilled store: {e}"))?;
        built = Some((store, labels));
        setups.push(d);
        rep += 1;
    }
    let (store, labels) = built.expect("at least one build");
    out.check(
        stats(&store).sealed_segments * ROWS_PER_SEGMENT >= n / 2,
        || "the store did not spill".to_string(),
    );
    let fit_seed = |i: u64| derive(ctx.seed, 200 + i);

    // Warm-up on an offset seed.
    let _ = fit_store(&store, &options(derive(ctx.seed, 199)));

    let start = Instant::now();
    if ctx.trace {
        let mut tracer = Tracer::new();
        let (mut prog_t, mut replay_t) = (Duration::ZERO, Duration::ZERO);
        let (mut iterations, mut ri, mut ops) = (0usize, 0.0, 0usize);
        let (mut loads, mut hits) = (0u64, 0u64);
        while ctx.more(start, ops) {
            let i = ops as u64;
            let before = stats(&store);
            let (fit, dp) = timed(|| fit_store(&store, &options(fit_seed(i))));
            let after = stats(&store);
            loads += after.loads - before.loads;
            hits += after.hits - before.hits;
            tracer.set_op(i);
            let (replayed, dr) =
                timed(|| replay::fit_store(&store, K, fit_seed(i), MAX_ITER, &mut tracer));
            out.attempted += 1;
            check_fit(&mut out, &format!("fit {i}"), &fit, n, K);
            check_fit(&mut out, &format!("fit {i} (replay)"), &replayed, n, K);
            if let (Ok(p), Ok(r)) = (&fit, &replayed) {
                out.check(replay::identical(p, r), || {
                    format!("fit {i}: replay differs from the program")
                });
                iterations += p.iterations;
                ri += rand_index(&p.labels, &labels);
            } else {
                out.failed += 1;
            }
            prog_t += dp;
            replay_t += dr;
            ops += 1;
        }
        layer_metrics(&mut out, &tracer, prog_t, ops);
        out.metric(
            "trace.overhead_ratio",
            replay_t.as_secs_f64() / prog_t.as_secs_f64() - 1.0,
            "ratio",
        );
        out.metric("kshape.iterations", iterations as f64 / ops as f64, "count");
        out.metric("kshape.threads", 1.0, "count");
        out.metric("kshape.threads.speedup", 1.0, "ratio");
        out.metric("store.segment_loads", loads as f64 / ops as f64, "count");
        out.metric(
            "store.hit_ratio",
            hits as f64 / (hits + loads).max(1) as f64,
            "ratio",
        );
        out.metric("quality.rand_index", ri / ops as f64, "ratio");
        write_trace(ctx, &tracer, &mut out);
    } else {
        let mut latencies = Latencies::new();
        let mut busy = Duration::ZERO;
        let mut ari = Vec::new();
        let mut i = 0;
        while ctx.more(start, i) {
            let (fit, d) = timed(|| fit_store(&store, &options(fit_seed(i as u64))));
            out.attempted += 1;
            check_fit(&mut out, &format!("fit {i}"), &fit, n, K);
            match fit {
                Ok(r) => ari.push(adjusted_rand_index(&r.labels, &labels)),
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
        let ari = median(&ari);
        out.check(ari > 0.1, || {
            format!("median adjusted Rand index {ari} <= 0.1")
        });
    }
    Ok(out)
}
