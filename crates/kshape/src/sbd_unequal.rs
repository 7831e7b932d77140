//! SBD for sequences of different lengths.
//!
//! The paper restricts the exposition to equal lengths "for simplicity"
//! (footnote 3) but the measure itself needs no such restriction: the
//! cross-correlation sequence simply spans lags `−(|y|−1)..=(|x|−1)` and
//! the coefficient normalization is unchanged. The aligned copy of `y` is
//! placed into a buffer of `x`'s length so downstream consumers (shape
//! extraction, plotting) receive comparable arrays.
//!
//! All transform work routes through [`SbdPlan`]: a plan for the longer
//! input always has enough power-of-two padding for the full
//! `nx + ny − 1` lag range, so unequal-length queries share plans — and,
//! via [`crate::sbd::Sbd::distance`], the bounded plan cache — with the
//! equal-length hot path instead of maintaining a private
//! pad-and-transform pipeline. The same kernel scores ragged rows in the
//! out-of-core fit.

use tsfft::correlate::autocorr0;

use crate::sbd::{PreparedSeries, SbdPlan, SbdResult, SbdScratch};

/// Unequal-length SBD behind [`crate::sbd::Sbd::distance`].
///
/// Inputs are validated (non-empty, finite) and `plan` serves the longer
/// length, so its padding covers the full `nx + ny − 1` lag range.
pub(crate) fn unequal_with_plan(plan: &SbdPlan, x: &[f64], y: &[f64]) -> SbdResult {
    let (x_r0, y_r0) = (autocorr0(x), autocorr0(y));
    if (x_r0 * y_r0).sqrt() == 0.0 {
        let both_zero = x_r0 == 0.0 && y_r0 == 0.0;
        let mut aligned = y.to_vec();
        aligned.resize(x.len(), 0.0);
        return SbdResult {
            dist: if both_zero { 0.0 } else { 1.0 },
            shift: 0,
            aligned,
        };
    }
    let (nx, ny) = (x.len(), y.len());
    let (px, py) = (plan.prepare_padded(x), plan.prepare_padded(y));
    let mut scratch = SbdScratch::default();
    let mut cc = Vec::new();
    let (dist, shift) = unequal_dist_shift(plan, &px, nx, &py, ny, &mut cc, &mut scratch);
    let mut aligned = vec![0.0; nx];
    place_into_frame(y, shift, &mut aligned);
    SbdResult {
        dist,
        shift,
        aligned,
    }
}

/// Distance-and-shift core of [`unequal_with_plan`] over already-padded
/// spectra of original lengths `nx` and `ny`, with every buffer
/// caller-owned and no aligned copy built.
///
/// The out-of-core ragged sweep calls this once per `(row, centroid)`
/// pair — centroid spectra are hoisted per iteration, the row's per
/// sweep — and materializes the aligned frame only for the winning
/// centroid via [`place_into_frame`].
pub(crate) fn unequal_dist_shift(
    plan: &SbdPlan,
    px: &PreparedSeries,
    nx: usize,
    py: &PreparedSeries,
    ny: usize,
    cc: &mut Vec<f64>,
    scratch: &mut SbdScratch,
) -> (f64, isize) {
    let denom = (px.energy() * py.energy()).sqrt();
    if denom == 0.0 {
        let both_zero = px.energy() == 0.0 && py.energy() == 0.0;
        return (if both_zero { 0.0 } else { 1.0 }, 0);
    }
    plan.cross_correlate_padded(px, nx, py, ny, cc, scratch);
    let (best_idx, best) = cc
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty correlation");
    let shift = best_idx as isize - (ny as isize - 1);
    (1.0 - best / denom, shift)
}

/// Places `y` into the (possibly longer) frame `out` at offset `shift`,
/// zero-filling everything `y` does not cover — the alignment rule of
/// [`unequal_with_plan`], shared with the out-of-core ragged Gram fold.
pub(crate) fn place_into_frame(y: &[f64], shift: isize, out: &mut [f64]) {
    let n = out.len();
    out.fill(0.0);
    for (l, &v) in y.iter().enumerate() {
        let t = l as isize + shift;
        if (0..n as isize).contains(&t) {
            out[t as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sbd::{sbd, Sbd, SbdOptions, SbdResult};
    use tsdata::distort::resample;
    use tsdata::normalize::z_normalize;
    use tserror::TsError;

    fn bump(m: usize, center: f64, width: f64) -> Vec<f64> {
        (0..m)
            .map(|i| (-((i as f64 - center) / width).powi(2)).exp())
            .collect()
    }

    fn distance(x: &[f64], y: &[f64]) -> SbdResult {
        Sbd::new()
            .distance(x, y, &SbdOptions::new())
            .expect("clean data")
    }

    #[test]
    fn equal_lengths_match_plain_sbd() {
        let x = bump(32, 12.0, 3.0);
        let y = bump(32, 18.0, 3.0);
        let a = distance(&x, &y);
        let b = sbd(&x, &y);
        assert!((a.dist - b.dist).abs() < 1e-12);
        assert_eq!(a.shift, b.shift);
    }

    #[test]
    fn finds_sub_sequence() {
        // y is a clean window of x: distance near the window's share of
        // energy, shift recovering the window offset.
        let x = bump(64, 30.0, 4.0);
        let y = x[22..46].to_vec();
        let r = distance(&x, &y);
        assert_eq!(r.shift, 22);
        assert!(r.dist < 0.05, "dist {}", r.dist);
        assert_eq!(r.aligned.len(), 64);
        // The aligned copy overlays the original window.
        for (t, &v) in r.aligned.iter().enumerate() {
            if (22..46).contains(&t) {
                assert!((v - x[t]).abs() < 1e-12);
            } else {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn distance_range_and_symmetry_hold() {
        let x = bump(40, 10.0, 2.0);
        let y: Vec<f64> = (0..23).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let d = distance(&x, &y).dist;
        assert!((0.0..=2.0 + 1e-9).contains(&d));
        // Swapped arguments give the same distance (negated lags).
        let d2 = distance(&y, &x).dist;
        assert!((d - d2).abs() < 1e-9);
    }

    #[test]
    fn rescaled_recognizes_uniformly_stretched_copy() {
        // y is x at 2x the sampling rate: uniform scaling invariance.
        let x = z_normalize(&bump(48, 20.0, 4.0));
        let y = resample(&x, 96);
        let r = Sbd::new()
            .distance(&x, &y, &SbdOptions::new().with_rescale(true))
            .expect("clean data");
        assert!(r.dist < 0.01, "dist {}", r.dist);
    }

    #[test]
    fn zero_energy_edge_cases() {
        let z = vec![0.0; 8];
        let x = bump(12, 6.0, 2.0);
        assert_eq!(distance(&z, &x).dist, 1.0);
        assert_eq!(distance(&z, &[0.0; 5]).dist, 0.0);
    }

    #[test]
    fn unequal_lengths_share_the_plan_cache() {
        let x = bump(64, 30.0, 4.0);
        let y = x[22..46].to_vec();
        let cached = Sbd::new();
        let opts = SbdOptions::new();
        let a = cached.distance(&x, &y, &opts).expect("clean data");
        assert_eq!(a.shift, 22);
        // The plan is cached under the longer length — the same key the
        // equal-length hot path uses for length-64 series.
        assert!(cached.has_cached_plan_for(64));
        assert_eq!(cached.cache_stats().misses, 1);
        let b = cached.distance(&x, &y, &opts).expect("clean data");
        assert_eq!(cached.cache_stats().hits, 1);
        assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        // Equal lengths through the cached entry agree with `sbd`.
        let z = bump(64, 40.0, 5.0);
        let eq = cached.distance(&x, &z, &opts).expect("clean data");
        let plain = sbd(&x, &z);
        assert_eq!(eq.shift, plain.shift);
        assert!((eq.dist - plain.dist).abs() < 1e-15);
    }

    #[test]
    fn padded_plan_correlation_matches_naive() {
        use crate::sbd::{SbdPlan, SbdScratch};
        use tsfft::unequal::cross_correlate_unequal_naive;
        let x = bump(40, 10.0, 2.0);
        let y: Vec<f64> = (0..23).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let plan = SbdPlan::new(40);
        let (px, py) = (plan.prepare_padded(&x), plan.prepare_padded(&y));
        let mut cc = Vec::new();
        let mut scratch = SbdScratch::default();
        plan.cross_correlate_padded(&px, 40, &py, 23, &mut cc, &mut scratch);
        let naive = cross_correlate_unequal_naive(&x, &y);
        assert_eq!(cc.len(), naive.len());
        for (i, (a, b)) in cc.iter().zip(naive.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "lag {i}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_and_non_finite_inputs_are_typed_errors() {
        let d = Sbd::new();
        let plain = SbdOptions::new();
        let rescale = SbdOptions::new().with_rescale(true);
        assert!(matches!(
            d.distance(&[], &[1.0], &plain),
            Err(TsError::EmptyInput)
        ));
        assert!(matches!(
            d.distance(&[1.0], &[], &rescale),
            Err(TsError::EmptyInput)
        ));
        assert!(matches!(
            d.distance(&[1.0, f64::NAN], &[1.0], &plain),
            Err(TsError::NonFinite {
                series: 0,
                index: 1
            })
        ));
        assert!(matches!(
            d.distance(&[1.0, 2.0], &[1.0, f64::INFINITY, 3.0], &rescale),
            Err(TsError::NonFinite {
                series: 1,
                index: 1
            })
        ));
    }
}
