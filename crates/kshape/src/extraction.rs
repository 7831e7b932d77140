//! Shape extraction — the k-Shape centroid computation (Section 3.2,
//! Algorithm 2).
//!
//! The centroid is the maximizer of the squared normalized
//! cross-correlations to all cluster members (Equation 13). After aligning
//! every member toward the current centroid with SBD, the problem reduces
//! to maximizing the Rayleigh quotient
//!
//! ```text
//! μ* = argmax_μ  (μᵀ M μ) / (μᵀ μ),     M = Qᵀ S Q,
//! S = Σᵢ xᵢ xᵢᵀ,   Q = I − (1/m)·O
//! ```
//!
//! whose solution is the eigenvector of the largest eigenvalue of `M`
//! (Equation 15). The eigenvector's sign is arbitrary; following the
//! reference implementation we keep the orientation closer to the cluster
//! members, and z-normalize the result.

use tsdata::distort::shift_zero_pad_into;
use tsdata::normalize::z_normalize_in_place;
use tserror::{ensure_finite, TsError, TsResult};
use tslinalg::dominant::try_dominant_symmetric_eigen;
use tslinalg::matrix::{dot_unrolled, Matrix};
use tslinalg::power::power_iteration;

use crate::sbd::{SbdPlan, SbdScratch};

/// How the dominant eigenvector of `M` is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenMethod {
    /// Full symmetric eigendecomposition (Householder + QL), as in the
    /// paper's `Eig(M, 1)`.
    #[default]
    Full,
    /// Power iteration — an O(m²)-per-step fast path; `M` is PSD so the
    /// dominant eigenvalue is the largest. Ablation bench material.
    Power,
}

/// Computes the shape-extraction centroid of `members` against the current
/// `reference` centroid (Algorithm 2).
///
/// # Example
///
/// ```
/// use kshape::extraction::{shape_extraction, EigenMethod};
/// use kshape::sbd::sbd;
/// use tsdata::normalize::z_normalize;
///
/// // Phase-shifted copies of one bump; the centroid recovers the bump.
/// let proto: Vec<f64> = z_normalize(
///     &(0..32).map(|i| (-((i as f64 - 16.0) / 2.0).powi(2)).exp()).collect::<Vec<_>>(),
/// );
/// let early = tsdata::distort::shift_zero_pad(&proto, -3);
/// let late = tsdata::distort::shift_zero_pad(&proto, 3);
/// let members: Vec<&[f64]> = vec![&early, &proto, &late];
/// let centroid = shape_extraction(&members, &proto, EigenMethod::Full);
/// assert!(sbd(&proto, &centroid).dist < 0.05);
/// ```
///
/// * An all-zero reference (the k-Shape initial state) skips alignment, as
///   the reference MATLAB implementation does.
/// * An empty member set returns the reference unchanged.
///
/// The returned centroid is z-normalized.
///
/// # Panics
///
/// Panics if member lengths differ from the reference length or any sample
/// is non-finite (see [`try_shape_extraction`] for the fallible variant).
#[must_use]
pub fn shape_extraction(members: &[&[f64]], reference: &[f64], method: EigenMethod) -> Vec<f64> {
    try_shape_extraction(members, reference, method)
        .unwrap_or_else(|e| panic!("member lengths must match the reference: {e}"))
}

/// Fallible shape extraction: validates member lengths and finiteness up
/// front and recovers deterministically from degenerate eigenvectors.
///
/// When the extracted eigenvector is numerically degenerate — all-zero
/// (e.g. every member constant, so the centered matrix `B` vanishes) or
/// non-finite — the centroid falls back to the **SBD-medoid** of the
/// cluster: the z-normalized member minimizing the total SBD to the other
/// members, ties broken by the lowest index. On clean, non-degenerate data
/// this fallback never triggers and the result is bit-identical to the
/// panicking [`shape_extraction`].
///
/// # Errors
///
/// * [`TsError::LengthMismatch`] if a member's length differs from the
///   reference length;
/// * [`TsError::NonFinite`] if the reference or any member contains a NaN
///   or infinite sample.
pub fn try_shape_extraction(
    members: &[&[f64]],
    reference: &[f64],
    method: EigenMethod,
) -> TsResult<Vec<f64>> {
    let m = reference.len();
    if members.is_empty() || m == 0 {
        return Ok(reference.to_vec());
    }
    ensure_finite(reference, 0)?;
    for (i, s) in members.iter().enumerate() {
        if s.len() != m {
            return Err(TsError::LengthMismatch {
                expected: m,
                found: s.len(),
                series: i,
            });
        }
        ensure_finite(s, i)?;
    }

    let ref_is_zero = reference.iter().all(|&v| v == 0.0);
    let plan = SbdPlan::new(m);
    // Alignment shifts of every member toward the reference, via the cached
    // reference spectrum — one forward rFFT per member plus one batched
    // kernel, instead of a full pairwise SBD. An all-zero reference (the
    // k-Shape initial state) skips alignment entirely.
    let shifts: Option<Vec<isize>> = (!ref_is_zero).then(|| {
        let mut fft_scratch = Vec::new();
        let mut scratch = SbdScratch::default();
        let p = plan.prepare_with(reference, &mut fft_scratch);
        members
            .iter()
            .map(|member| {
                let pm = plan.prepare_with(member, &mut fft_scratch);
                plan.sbd_spectra(&p, &pm, &mut scratch).1
            })
            .collect()
    });
    Ok(extract_aligned(members, shifts.as_deref(), method, &plan))
}

/// Shape extraction over pre-computed alignment shifts — the hot-path core
/// shared with the k-Shape refinement step, which reuses the shifts already
/// found by the previous batched assignment sweep instead of re-running SBD
/// per member.
///
/// `shifts[r]` aligns `members[r]` toward the reference the shifts were
/// computed against; `None` skips alignment (the all-zero-reference case).
/// Inputs must be validated (equal lengths, finite, non-empty, `m > 0`).
pub(crate) fn extract_aligned(
    members: &[&[f64]],
    shifts: Option<&[isize]>,
    method: EigenMethod,
    plan: &SbdPlan,
) -> Vec<f64> {
    let n = members.len();
    let m = members[0].len();
    // One aligned scratch row is reused across members — no per-member
    // allocation.
    let mut aligned = vec![0.0; m];
    let align = |r: usize, out: &mut [f64]| match shifts {
        Some(sh) => shift_zero_pad_into(members[r], sh[r], out),
        None => out.copy_from_slice(members[r]),
    };

    // M = Qᵀ S Q = Bᵀ B for the aligned, row-centered member matrix
    // B = X'·Q (Q = I − (1/m)·O removes each row's mean). A cluster with
    // at least m members folds its rows into the m×m Gram one at a time.
    // A smaller cluster — the common case — gets the same eigenvector far
    // more cheaply from the n×n dual Gram BBᵀ: if u is its dominant
    // eigenvector, then Bᵀu (normalized) is M's. Identical result,
    // O(n²m + n³) instead of O(nm² + m³).
    let centroid = if n < m {
        let mut b = Matrix::zeros(n, m);
        let mut aligned_sum = vec![0.0; m];
        for r in 0..n {
            align(r, &mut aligned);
            center(&aligned, 1.0, &mut aligned_sum, b.row_mut(r));
        }
        let mut dual = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..=r {
                let d = dot_unrolled(b.row(r), b.row(c));
                dual[(r, c)] = d;
                dual[(c, r)] = d;
            }
        }
        let u = dominant_eigenvector(&dual, method);
        // v = Bᵀ u.
        let mut v = vec![0.0; m];
        for (r, &ur) in u.iter().enumerate() {
            if ur != 0.0 {
                for (o, x) in v.iter_mut().zip(b.row(r).iter()) {
                    *o += ur * x;
                }
            }
        }
        oriented_centroid(v, &aligned_sum)
    } else {
        let mut gram = GramAccumulator::new(m);
        for r in 0..n {
            align(r, &mut aligned);
            gram.push_aligned(&aligned);
        }
        gram.extract(method)
    };

    // Degenerate-eigenvector recovery: if the extracted shape collapsed to
    // a non-finite or all-zero vector (zero centered matrix, repeated
    // eigenvalues with cancelling components, …), fall back to the
    // SBD-medoid of the cluster. Deterministic, and unreachable on clean
    // non-degenerate data.
    centroid.unwrap_or_else(|| sbd_medoid(members, plan))
}

/// Adds `sign · aligned` to the running `aligned_sum` and writes the row
/// minus its mean (`Q` applied) to `centered`.
fn center(aligned: &[f64], sign: f64, aligned_sum: &mut [f64], centered: &mut [f64]) {
    for (acc, v) in aligned_sum.iter_mut().zip(aligned.iter()) {
        *acc += sign * v;
    }
    let mean = aligned.iter().sum::<f64>() / aligned.len() as f64;
    for (o, v) in centered.iter_mut().zip(aligned.iter()) {
        *o = v - mean;
    }
}

/// The dominant eigenvector of a symmetric PSD matrix. A solver failure
/// yields a NaN vector, which [`oriented_centroid`] rejects.
fn dominant_eigenvector(mat: &Matrix, method: EigenMethod) -> Vec<f64> {
    match method {
        // Lanczos for the single dominant pair (the paper's Eig(M, 1)).
        EigenMethod::Full => try_dominant_symmetric_eigen(mat)
            .map_or_else(|_| vec![f64::NAN; mat.rows()], |e| e.vector),
        EigenMethod::Power => power_iteration(mat, 200, 1e-12).vector,
    }
}

/// Resolves the eigenvector's sign ambiguity toward the aligned members
/// and z-normalizes it; `None` when the result is degenerate (non-finite
/// or all-zero).
fn oriented_centroid(mut centroid: Vec<f64>, aligned_sum: &[f64]) -> Option<Vec<f64>> {
    let dot: f64 = centroid
        .iter()
        .zip(aligned_sum.iter())
        .map(|(a, b)| a * b)
        .sum();
    if dot < 0.0 {
        for v in &mut centroid {
            *v = -*v;
        }
    }
    z_normalize_in_place(&mut centroid);
    if centroid.iter().any(|v| !v.is_finite()) || centroid.iter().all(|&v| v == 0.0) {
        return None;
    }
    Some(centroid)
}

/// Shape-extraction state for one cluster: the primal matrix
/// `M = Σᵣ (alignedᵣ − mean·1)(alignedᵣ − mean·1)ᵀ` accumulated one
/// member at a time, plus the aligned sum used for sign orientation.
///
/// This is the one place `M` is folded and its centroid extracted. Each
/// aligned member row rank-one-updates the m×m Gram directly and is then
/// forgotten, so memory is O(m²) per cluster regardless of member count.
/// [`extract_aligned`] uses it for clusters of at least `m` members, the
/// out-of-core fit keeps one per cluster and channel, and the stream
/// keeps one per cluster and channel under its decay policy.
///
/// Unlike [`try_shape_extraction`], the degenerate-eigenvector case
/// cannot fall back to the SBD-medoid (that requires revisiting every
/// member — a full extra pass); [`GramAccumulator::extract`] returns
/// `None` instead and the caller picks its own fallback (the
/// out-of-core fit keeps the previous centroid). Reachable only on
/// degenerate clusters (e.g. all members constant).
#[derive(Debug, Clone)]
pub struct GramAccumulator {
    mat: Matrix,
    aligned_sum: Vec<f64>,
    count: usize,
    centered: Vec<f64>,
}

impl GramAccumulator {
    /// Empty accumulator for series of length `m`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        GramAccumulator::from_parts(Matrix::zeros(m, m), vec![0.0; m])
    }

    /// An accumulator holding a restored Gram and aligned sum (a stream
    /// checkpoint); its member count starts at zero.
    pub(crate) fn from_parts(mat: Matrix, aligned_sum: Vec<f64>) -> Self {
        let m = aligned_sum.len();
        GramAccumulator {
            mat,
            aligned_sum,
            count: 0,
            centered: vec![0.0; m],
        }
    }

    /// The accumulated `M`.
    pub(crate) fn gram(&self) -> &Matrix {
        &self.mat
    }

    /// The sum of the uncentered aligned rows.
    pub(crate) fn aligned_sum(&self) -> &[f64] {
        &self.aligned_sum
    }

    /// Resets to the empty state without releasing buffers.
    pub fn clear(&mut self) {
        self.mat.fill(0.0);
        self.aligned_sum.fill(0.0);
        self.count = 0;
    }

    /// Members folded in so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Folds one member row, already aligned toward the cluster's
    /// reference centroid (or raw when the reference is all-zero —
    /// the same skip-alignment rule as [`try_shape_extraction`]).
    ///
    /// # Panics
    ///
    /// Panics if `aligned.len()` differs from the accumulator's `m`.
    pub fn push_aligned(&mut self, aligned: &[f64]) {
        assert_eq!(
            aligned.len(),
            self.aligned_sum.len(),
            "member length must match accumulator"
        );
        self.apply(aligned, 1.0);
        self.count += 1;
    }

    /// Adds (`sign = 1.0`) or subtracts (`sign = -1.0`) one aligned row
    /// without counting it — the stream's decayed statistics keep their
    /// own fractional weight.
    pub(crate) fn apply(&mut self, aligned: &[f64], sign: f64) {
        center(aligned, sign, &mut self.aligned_sum, &mut self.centered);
        self.mat.rank_one_update(&self.centered, sign);
    }

    /// Scales `M` and the aligned sum by `lambda` (exponential decay).
    pub(crate) fn scale(&mut self, lambda: f64) {
        for r in 0..self.aligned_sum.len() {
            for v in self.mat.row_mut(r) {
                *v *= lambda;
            }
        }
        for v in &mut self.aligned_sum {
            *v *= lambda;
        }
    }

    /// Extracts the centroid from the accumulated Gram: the dominant
    /// eigenvector of `M`, sign-oriented toward the aligned sum,
    /// z-normalized. Returns `None` for an empty accumulator or a
    /// degenerate (non-finite / all-zero) eigenvector; the caller chooses
    /// the fallback.
    #[must_use]
    pub fn extract(&self, method: EigenMethod) -> Option<Vec<f64>> {
        if self.count == 0 {
            return None;
        }
        self.centroid(method)
    }

    /// [`Self::extract`] without the member-count check, for statistics
    /// whose weight the caller tracks.
    pub(crate) fn centroid(&self, method: EigenMethod) -> Option<Vec<f64>> {
        oriented_centroid(dominant_eigenvector(&self.mat, method), &self.aligned_sum)
    }
}

/// The z-normalized member minimizing total SBD to the other members
/// (ties: lowest index). Used as the deterministic fallback centroid when
/// eigen-based shape extraction degenerates.
fn sbd_medoid(members: &[&[f64]], plan: &SbdPlan) -> Vec<f64> {
    let mut best_idx = 0usize;
    let mut best_total = f64::INFINITY;
    for (i, mi) in members.iter().enumerate() {
        let prepared = plan.prepare(mi);
        let total: f64 = members
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, mj)| plan.sbd_prepared(&prepared, mj).dist)
            .sum();
        if total.total_cmp(&best_total) == std::cmp::Ordering::Less {
            best_total = total;
            best_idx = i;
        }
    }
    let mut c = members[best_idx].to_vec();
    z_normalize_in_place(&mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::{shape_extraction, EigenMethod};
    use crate::sbd::sbd;
    use tsdata::distort::shift_zero_pad;
    use tsdata::normalize::z_normalize;

    fn bump(m: usize, center: f64, width: f64) -> Vec<f64> {
        (0..m)
            .map(|i| (-((i as f64 - center) / width).powi(2)).exp())
            .collect()
    }

    #[test]
    fn empty_members_return_reference() {
        let reference = vec![1.0, 2.0, 3.0];
        let c = shape_extraction(&[], &reference, EigenMethod::Full);
        assert_eq!(c, reference);
    }

    #[test]
    fn centroid_of_identical_members_matches_their_shape() {
        let proto = z_normalize(&bump(48, 20.0, 4.0));
        let members: Vec<&[f64]> = vec![&proto, &proto, &proto];
        let c = shape_extraction(&members, &proto, EigenMethod::Full);
        let d = sbd(&proto, &c).dist;
        assert!(d < 1e-6, "SBD to prototype {d}");
    }

    #[test]
    fn centroid_is_z_normalized() {
        let a = bump(32, 10.0, 3.0);
        let b = bump(32, 12.0, 3.0);
        let c = shape_extraction(&[&a, &b], &vec![0.0; 32], EigenMethod::Full);
        let mean: f64 = c.iter().sum::<f64>() / 32.0;
        let var: f64 = c.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 32.0;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_shape_from_shifted_members() {
        // Members are the same bump at different phases; after alignment to
        // a reasonable reference, the centroid must match the bump shape up
        // to shift much better than the arithmetic mean does.
        let m = 64;
        let proto = z_normalize(&bump(m, 30.0, 3.0));
        let shifts = [-6isize, -3, 0, 3, 6];
        let members: Vec<Vec<f64>> = shifts.iter().map(|&s| shift_zero_pad(&proto, s)).collect();
        let refs: Vec<&[f64]> = members.iter().map(Vec::as_slice).collect();
        let centroid = shape_extraction(&refs, &proto, EigenMethod::Full);
        let d_centroid = sbd(&proto, &centroid).dist;
        // Arithmetic mean smears the bump.
        let mut mean = vec![0.0; m];
        for s in &members {
            for (a, v) in mean.iter_mut().zip(s.iter()) {
                *a += v / members.len() as f64;
            }
        }
        let d_mean = sbd(&proto, &z_normalize(&mean)).dist;
        assert!(
            d_centroid < d_mean,
            "shape extraction {d_centroid} vs arithmetic mean {d_mean}"
        );
        assert!(d_centroid < 0.05, "{d_centroid}");
    }

    #[test]
    fn power_and_full_methods_agree() {
        let a = z_normalize(&bump(40, 14.0, 3.0));
        let b = z_normalize(&bump(40, 18.0, 3.0));
        let c = z_normalize(&bump(40, 16.0, 4.0));
        let members: Vec<&[f64]> = vec![&a, &b, &c];
        let reference = z_normalize(&bump(40, 16.0, 3.0));
        let full = shape_extraction(&members, &reference, EigenMethod::Full);
        let fast = shape_extraction(&members, &reference, EigenMethod::Power);
        let d = sbd(&full, &fast).dist;
        assert!(d < 1e-6, "methods disagree: SBD {d}");
    }

    #[test]
    fn zero_reference_skips_alignment_but_still_extracts() {
        let a = z_normalize(&bump(32, 12.0, 3.0));
        let members: Vec<&[f64]> = vec![&a, &a];
        let c = shape_extraction(&members, &vec![0.0; 32], EigenMethod::Full);
        assert!(sbd(&a, &c).dist < 1e-6);
    }

    #[test]
    fn sign_orientation_points_toward_members() {
        let a = z_normalize(&bump(32, 16.0, 3.0));
        let members: Vec<&[f64]> = vec![&a];
        let c = shape_extraction(&members, &a, EigenMethod::Full);
        let dot: f64 = a.iter().zip(c.iter()).map(|(x, y)| x * y).sum();
        assert!(dot > 0.0, "centroid flipped: dot {dot}");
    }

    #[test]
    #[should_panic(expected = "match the reference")]
    fn rejects_mismatched_lengths() {
        let a = vec![1.0, 2.0];
        let members: Vec<&[f64]> = vec![&a];
        let _ = shape_extraction(&members, &[1.0, 2.0, 3.0], EigenMethod::Full);
    }

    #[test]
    fn try_rejects_mismatched_lengths_and_nan() {
        use super::try_shape_extraction;
        use tserror::TsError;
        let a = vec![1.0, 2.0];
        let members: Vec<&[f64]> = vec![&a];
        assert!(matches!(
            try_shape_extraction(&members, &[1.0, 2.0, 3.0], EigenMethod::Full),
            Err(TsError::LengthMismatch {
                expected: 3,
                found: 2,
                series: 0
            })
        ));
        let bad = vec![1.0, f64::NAN];
        let members: Vec<&[f64]> = vec![&bad];
        assert!(matches!(
            try_shape_extraction(&members, &[1.0, 2.0], EigenMethod::Full),
            Err(TsError::NonFinite {
                series: 0,
                index: 1
            })
        ));
    }

    #[test]
    fn degenerate_members_fall_back_to_finite_medoid() {
        // All-constant members: after centering, B = 0 and the eigenvector
        // is degenerate; the SBD-medoid fallback must keep the result
        // finite rather than emitting NaN.
        let a = vec![3.0; 16];
        let members: Vec<&[f64]> = vec![&a, &a, &a];
        let c = shape_extraction(&members, &[0.0; 16], EigenMethod::Full);
        assert_eq!(c.len(), 16);
        assert!(c.iter().all(|v| v.is_finite()), "{c:?}");
    }

    #[test]
    fn medoid_fallback_is_deterministic() {
        // Distinct constant levels all center to zero rows, so extraction
        // degenerates for every eigen method; the medoid fallback must be
        // finite and identical across repeated calls and methods.
        let a = vec![1.0; 24];
        let b = vec![2.0; 24];
        let c = vec![5.0; 24];
        let members: Vec<&[f64]> = vec![&a, &b, &c];
        let c1 = shape_extraction(&members, &[0.0; 24], EigenMethod::Full);
        let c2 = shape_extraction(&members, &[0.0; 24], EigenMethod::Power);
        assert_eq!(c1, c2);
        assert!(c1.iter().all(|v| v.is_finite()));
    }
}
