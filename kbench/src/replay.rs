//! Exact serial replays of the two k-Shape fit loops, built from the
//! library's public kernels and traced layer by layer.
//!
//! A replay performs the same floating-point operations in the same
//! order as the program, so its labels, centroids, iteration count and
//! inertia must equal the program's bit for bit; each workload checks
//! that. The spans it records give the per-layer split of a fit:
//!
//! * `init` — the random initial assignment,
//! * `rfft` — forward real FFTs (the spectrum cache, centroid spectra),
//! * `xcorr` — conjugate multiply, inverse FFT and peak scan per
//!   (series, centroid) pair,
//! * `extract` — in-memory shape extraction (member alignment, Gram
//!   build and eigenvector), `gram`/`eigen` its out-of-core halves,
//! * `read` — row fetch from a store (spill decode and checksum),
//! * `znorm` — z-normalization of an empty cluster's reseed.

use std::time::Instant;

use kshape::extraction::{try_shape_extraction, EigenMethod, GramAccumulator};
use kshape::init::random_assignment;
use kshape::sbd::{PreparedSeries, SbdPlan, SbdScratch};
use kshape::{KShapeResult, SpectraEngine, TsResult};
use tsdata::distort::shift_zero_pad_into;
use tsdata::normalize::z_normalize;
use tsdata::store::SeriesView;
use tsrand::StdRng;

use crate::trace::{Accum, Tracer};

/// Index of the series worst served by its centroid (ties: last), the
/// program's choice for reseeding an empty cluster.
fn worst_served(dists: &[f64]) -> usize {
    dists
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Replays `KShape::fit_with` with one thread and random initialization.
///
/// The program reuses each member's shift from the previous assignment
/// sweep when it extracts a centroid; the replay applies those shifts
/// itself and hands the aligned members to `try_shape_extraction` with an
/// all-zero reference, which skips re-alignment, so the extraction does
/// the same arithmetic as the program's.
pub fn fit_with(
    series: &[Vec<f64>],
    k: usize,
    seed: u64,
    max_iter: usize,
    tr: &mut Tracer,
) -> TsResult<KShapeResult> {
    let n = series.len();
    let fit = tr.open("kshape.fit");
    let t = Instant::now();
    let mut labels = random_assignment(n, k, &mut StdRng::seed_from_u64(seed));
    tr.since("init", t, 1);
    let t = Instant::now();
    let engine = SpectraEngine::new(series, 1)?;
    tr.since("rfft", t, n as u64);
    let m = engine.plan().series_len();
    let zeros = vec![0.0; m];
    let mut centroids = vec![vec![0.0; m]; k];
    let mut dists = vec![0.0f64; n];
    let mut shifts = vec![0isize; n];
    let mut aligned: Vec<Vec<f64>> = Vec::new();
    let mut scratch = SbdScratch::default();
    let mut xcorr = Accum::new("xcorr");
    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iter {
        iterations += 1;
        let iter = tr.open("kshape.iteration");
        for (j, centroid) in centroids.iter_mut().enumerate() {
            let idx: Vec<usize> = (0..n).filter(|&i| labels[i] == j).collect();
            if idx.is_empty() {
                let worst = worst_served(&dists);
                labels[worst] = j;
                let t = Instant::now();
                *centroid = z_normalize(&series[worst]);
                tr.since("znorm", t, 1);
                continue;
            }
            let t = Instant::now();
            let next = if centroid.iter().any(|&v| v != 0.0) {
                aligned.resize_with(idx.len().max(aligned.len()), || vec![0.0; m]);
                for (slot, &i) in aligned.iter_mut().zip(&idx) {
                    shift_zero_pad_into(&series[i], shifts[i], slot);
                }
                let members: Vec<&[f64]> = aligned[..idx.len()].iter().map(Vec::as_slice).collect();
                try_shape_extraction(&members, &zeros, EigenMethod::Full)?
            } else {
                let members: Vec<&[f64]> = idx.iter().map(|&i| series[i].as_slice()).collect();
                try_shape_extraction(&members, &zeros, EigenMethod::Full)?
            };
            tr.since("extract", t, 1);
            *centroid = next;
        }
        let t = Instant::now();
        let cents = engine.prepare_centroids(&centroids);
        tr.since("rfft", t, k as u64);
        let mut changed = 0usize;
        for i in 0..n {
            let t = Instant::now();
            let sp = engine.spectrum(i);
            let mut best = (f64::INFINITY, 0usize, 0isize);
            for (j, c) in cents.iter().enumerate() {
                let (d, s) = engine.plan().sbd_spectra(c, sp, &mut scratch);
                if d < best.0 {
                    best = (d, j, s);
                }
            }
            xcorr.add(t, Instant::now(), k as u64);
            dists[i] = best.0;
            shifts[i] = best.2;
            if labels[i] != best.1 {
                labels[i] = best.1;
                changed += 1;
            }
        }
        xcorr.flush(tr);
        tr.close(iter);
        if changed == 0 {
            converged = true;
            break;
        }
    }
    tr.close(fit);
    Ok(KShapeResult {
        labels,
        centroids,
        iterations,
        converged,
        inertia: dists.iter().map(|d| d * d).sum(),
    })
}

/// Replays `kshape::fit_store` over a univariate fixed-length view with
/// random initialization.
pub fn fit_store<V: SeriesView + ?Sized>(
    view: &V,
    k: usize,
    seed: u64,
    max_iter: usize,
    tr: &mut Tracer,
) -> TsResult<KShapeResult> {
    let n = view.n_series();
    let m = view.series_len();
    let fit = tr.open("kshape.fit");
    let t = Instant::now();
    let plan = SbdPlan::new(m);
    let mut labels = random_assignment(n, k, &mut StdRng::seed_from_u64(seed));
    tr.since("init", t, 1);
    let mut centroids = vec![vec![0.0; m]; k];
    let mut grams: Vec<GramAccumulator> = (0..k).map(|_| GramAccumulator::new(m)).collect();
    let mut dists = vec![0.0f64; n];
    let mut row_scratch = Vec::new();
    let mut fft_scratch = Vec::new();
    let mut sbd_scratch = SbdScratch::default();
    let mut prepared = [PreparedSeries::empty()];
    let mut aligned = vec![0.0f64; m];
    let (mut read, mut rfft, mut xcorr, mut gram) = (
        Accum::new("read"),
        Accum::new("rfft"),
        Accum::new("xcorr"),
        Accum::new("gram"),
    );

    for (i, &label) in labels.iter().enumerate() {
        let t0 = Instant::now();
        let row = view.try_row(i, &mut row_scratch)?;
        let t1 = Instant::now();
        grams[label].push_aligned(row);
        read.add(t0, t1, 1);
        gram.add(t1, Instant::now(), 1);
    }
    read.flush(tr);
    gram.flush(tr);

    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iter {
        iterations += 1;
        let iter = tr.open("kshape.iteration");
        for j in 0..k {
            if grams[j].count() == 0 {
                let worst = worst_served(&dists);
                labels[worst] = j;
                let t = Instant::now();
                let row = view.try_row(worst, &mut row_scratch)?;
                tr.since("read", t, 1);
                let t = Instant::now();
                centroids[j] = z_normalize(row);
                tr.since("znorm", t, 1);
            } else {
                let t = Instant::now();
                let next = grams[j].extract(EigenMethod::Full);
                tr.since("eigen", t, 1);
                if let Some(next) = next {
                    centroids[j] = next;
                }
            }
        }
        let t = Instant::now();
        let cents: Vec<PreparedSeries> = centroids
            .iter()
            .map(|c| plan.prepare_with(c, &mut fft_scratch))
            .collect();
        tr.since("rfft", t, k as u64);
        for g in &mut grams {
            g.clear();
        }
        let mut changed = 0usize;
        for i in 0..n {
            let t0 = Instant::now();
            let row = view.try_row(i, &mut row_scratch)?;
            let t1 = Instant::now();
            plan.prepare_into(row, &mut prepared[0], &mut fft_scratch);
            let t2 = Instant::now();
            let mut best = (f64::INFINITY, 0usize, 0isize);
            for (j, c) in cents.iter().enumerate() {
                let (d, s) =
                    plan.sbd_spectra_multi(std::slice::from_ref(c), &prepared, &mut sbd_scratch);
                if d < best.0 {
                    best = (d, j, s);
                }
            }
            let t3 = Instant::now();
            if labels[i] != best.1 {
                changed += 1;
                labels[i] = best.1;
            }
            dists[i] = best.0;
            shift_zero_pad_into(row, best.2, &mut aligned);
            grams[best.1].push_aligned(&aligned);
            let t4 = Instant::now();
            read.add(t0, t1, 1);
            rfft.add(t1, t2, 1);
            xcorr.add(t2, t3, k as u64);
            gram.add(t3, t4, 1);
        }
        for a in [&mut read, &mut rfft, &mut xcorr, &mut gram] {
            a.flush(tr);
        }
        tr.close(iter);
        if changed == 0 {
            converged = true;
            break;
        }
    }
    tr.close(fit);
    Ok(KShapeResult {
        labels,
        centroids,
        iterations,
        converged,
        inertia: dists.iter().map(|d| d * d).sum(),
    })
}

/// Whether two fits agree bit for bit.
pub fn identical(a: &KShapeResult, b: &KShapeResult) -> bool {
    let bits = |r: &KShapeResult| -> Vec<u64> {
        r.centroids.iter().flatten().map(|v| v.to_bits()).collect()
    };
    a.labels == b.labels
        && a.iterations == b.iterations
        && a.converged == b.converged
        && a.inertia.to_bits() == b.inertia.to_bits()
        && bits(a) == bits(b)
}
