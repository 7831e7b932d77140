//! Fault-injection chaos suite: every fallible (`try_*`) entry point in
//! the workspace is fed deterministically corrupted inputs and must
//! either return `Ok` with fully finite outputs or a typed
//! [`tserror::TsError`] — **never** panic, and **never** leak NaN into
//! labels, centroids, memberships, or distances.
//!
//! Faults come from `tsdata::corrupt` ([`FaultKind`]): NaN runs, missing
//! values, flatlines, amplitude spikes, and truncation. Invalidating
//! faults (non-finite values, ragged lengths) must surface as typed
//! errors; degrading-but-valid faults (flatline, spike) must still
//! produce finite results.
//!
//! Driven by `tscheck`: rerun a failing case with
//! `TSCHECK_SEED=0x... cargo test --test chaos`. CI pins three seeds so
//! the corruption space is explored beyond the default stream.

use tscheck::Gen;
use tsdata::corrupt::{corrupt_collection, FaultKind};
use tsdata::dataset::Dataset;
use tsdata::normalize::{try_z_normalize, z_normalize};
use tserror::{TsError, TsResult};
use tsrand::StdRng;

/// A clean, clusterable dataset: `n` z-normalized sines with random
/// phase/frequency per series.
fn clean_series(g: &mut Gen, n: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            let freq = g.f64_in(0.15..0.9);
            let phase = g.f64_in(0.0..std::f64::consts::TAU);
            let amp = g.f64_in(0.5..2.0);
            z_normalize(
                &(0..m)
                    .map(|t| amp * (t as f64 * freq + phase).sin())
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// Corrupts a series set in place with faults drawn from `kinds`,
/// returning `(any_non_finite, any_ragged)` so properties can decide what
/// outcome the fallible APIs owe them.
fn inject(g: &mut Gen, series: &mut [Vec<f64>], kinds: &[FaultKind]) -> (bool, bool) {
    let mut rng = StdRng::seed_from_u64(g.u64_in(0..u64::MAX));
    let p = g.f64_in(0.1..0.9);
    corrupt_collection(series, kinds, p, &mut rng);
    let non_finite = series.iter().any(|s| s.iter().any(|v| !v.is_finite()));
    let m0 = series.first().map_or(0, Vec::len);
    let ragged = series.iter().any(|s| s.len() != m0);
    (non_finite, ragged)
}

/// The chaos contract for a clustering result: on `Ok`, labels index a
/// real cluster and centroids are entirely finite; on `Err`, the error is
/// typed (trivially true) and a `NotConverged` still carries one valid
/// label per series. Corrupt (non-finite / ragged) input must never
/// produce `Ok`.
fn assert_clustering_contract(
    outcome: &TsResult<(Vec<usize>, Vec<Vec<f64>>)>,
    n: usize,
    k: usize,
    corrupt: bool,
) {
    match outcome {
        Ok((labels, centroids)) => {
            assert!(!corrupt, "corrupt input must not cluster successfully");
            assert_eq!(labels.len(), n);
            assert!(labels.iter().all(|&l| l < k), "label out of range");
            for c in centroids {
                assert!(c.iter().all(|v| v.is_finite()), "NaN leaked into centroid");
            }
        }
        Err(TsError::NotConverged { labels, .. }) => {
            assert!(!corrupt, "corrupt input must fail validation, not converge");
            assert_eq!(labels.len(), n);
            assert!(labels.iter().all(|&l| l < k));
        }
        Err(_) => {} // typed error: acceptable for any input
    }
}

tscheck::props! {
    #[cases(24)]
    fn kshape_fit_survives_chaos(g) {
        let n = g.usize_in(5..12);
        let m = g.usize_in(8..24);
        let mut series = clean_series(g, n, m);
        let (nf, ragged) = inject(g, &mut series, &FaultKind::ALL);
        let k = g.usize_in(1..5);
        let config = kshape::KShapeConfig { k, max_iter: 15, seed: g.u64_in(0..1 << 32), ..Default::default() };
        let outcome = kshape::KShape::fit_with(&series, &kshape::KShapeOptions::from(config))
            .map(|r| (r.labels, r.centroids));
        assert_clustering_contract(&outcome, n, k, nf || ragged);
    }

    #[cases(24)]
    fn out_of_core_fit_and_assign_survive_chaos(g) {
        // A slice view hands its rows over unchecked: the out-of-core
        // loop itself must turn a bad row into a typed error.
        let n = g.usize_in(5..12);
        let m = g.usize_in(8..24);
        let mut series = clean_series(g, n, m);
        let (nf, ragged) = inject(g, &mut series, &FaultKind::ALL);
        let corrupt = nf || ragged;
        let k = g.usize_in(1..4);
        let opts = kshape::KShapeOptions::new(k).with_seed(g.u64_in(0..1 << 32)).with_max_iter(10);
        let fit = kshape::fit_store(&series[..], &opts);
        if let Ok(fit) = &fit {
            assert!(fit.inertia.is_finite(), "non-finite inertia from a clean view");
        }
        assert_clustering_contract(&fit.map(|r| (r.labels, r.centroids)), n, k, corrupt);
        let centroids = clean_series(g, k, series[0].len().max(1));
        let mut labels = vec![0usize; n];
        let mut dists = vec![0.0f64; n];
        if kshape::assign_store(&series[..], &centroids, &mut labels, &mut dists).is_ok() {
            assert!(!corrupt, "corrupt view assigned successfully");
            assert!(dists.iter().all(|d| d.is_finite()));
            assert!(labels.iter().all(|&l| l < k));
        }
    }

    #[cases(12)]
    fn kshape_restarts_and_sweep_survive_chaos(g) {
        let n = g.usize_in(6..10);
        let m = g.usize_in(8..16);
        let mut series = clean_series(g, n, m);
        let (nf, ragged) = inject(g, &mut series, &FaultKind::ALL);
        let corrupt = nf || ragged;
        let config = kshape::KShapeConfig { k: 2, max_iter: 10, ..Default::default() };
        let best = kshape::multi::try_fit_best(&config, &series, 2)
            .map(|r| (r.labels, r.centroids));
        assert_clustering_contract(&best, n, 2, corrupt);
        if let Ok(cands) = kshape::validity::try_sweep_k(&series, 2..=3, 1, 7) {
            assert!(!corrupt);
            for c in &cands {
                assert!(c.silhouette.is_finite(), "NaN silhouette for k={}", c.k);
                assert!(c.inertia.is_finite());
            }
        }
    }

    #[cases(32)]
    fn sbd_kernels_survive_chaos(g) {
        let m = g.usize_in(4..32);
        let mut series = clean_series(g, 2, m);
        let _ = inject(g, &mut series, &FaultKind::ALL);
        let (x, y) = (series[0].clone(), series[1].clone());
        let s = kshape::Sbd::new();
        let outcomes = [
            kshape::sbd::try_sbd(&x, &y),
            s.distance(&x, &y, &kshape::SbdOptions::new()),
            s.distance(&x, &y, &kshape::SbdOptions::new().with_rescale(true)),
        ];
        for res in outcomes.into_iter().flatten() {
            assert!(res.dist.is_finite(), "SBD emitted non-finite distance");
            assert!(res.dist >= -1e-9);
            assert!(res.aligned.iter().all(|v| v.is_finite()));
        }
        if x.iter().any(|v| !v.is_finite()) {
            assert!(kshape::sbd::try_sbd(&x, &y).is_err());
            assert!(s.distance(&x, &y, &kshape::SbdOptions::new()).is_err());
        }
    }

    #[cases(24)]
    fn kmeans_and_fuzzy_survive_chaos(g) {
        let n = g.usize_in(5..12);
        let m = g.usize_in(6..20);
        let mut series = clean_series(g, n, m);
        let (nf, ragged) = inject(g, &mut series, &FaultKind::ALL);
        let corrupt = nf || ragged;
        let k = g.usize_in(1..4);
        let seed = g.u64_in(0..1 << 32);

        let km = tscluster::kmeans::kmeans_with(
            &series,
            &tsdist::EuclideanDistance,
            &tscluster::kmeans::KMeansOptions::from(
                tscluster::KMeansConfig { k, max_iter: 15, seed },
            ),
        )
        .map(|r| (r.labels, r.centroids));
        assert_clustering_contract(&km, n, k, corrupt);

        let fz = tscluster::fuzzy::fuzzy_cmeans_with(
            &series,
            &tsdist::EuclideanDistance,
            &tscluster::fuzzy::FuzzyOptions::from(
                tscluster::fuzzy::FuzzyConfig { k, fuzziness: 2.0, max_iter: 15, tol: 1e-6, seed },
            ),
        );
        if let Ok(r) = fz {
            assert!(!corrupt);
            assert!(r.labels.iter().all(|&l| l < k));
            for row in &r.memberships {
                assert!(row.iter().all(|v| v.is_finite()), "NaN membership");
            }
            for c in &r.centroids {
                assert!(c.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[cases(12)]
    fn ksc_and_kdba_survive_chaos(g) {
        let n = g.usize_in(5..9);
        let m = g.usize_in(6..14);
        let mut series = clean_series(g, n, m);
        let (nf, ragged) = inject(g, &mut series, &FaultKind::ALL);
        let corrupt = nf || ragged;
        let k = g.usize_in(1..4);
        let seed = g.u64_in(0..1 << 32);

        let ksc = tscluster::ksc::ksc_with(
            &series,
            &tscluster::ksc::KscOptions::from(
                tscluster::ksc::KscConfig { k, max_iter: 8, seed },
            ),
        )
        .map(|r| (r.labels, r.centroids));
        assert_clustering_contract(&ksc, n, k, corrupt);

        let kdba = tscluster::dba::kdba_with(
            &series,
            &tscluster::dba::KDbaOptions::from(tscluster::dba::KDbaConfig {
                k,
                max_iter: 5,
                seed,
                refinements_per_iter: 1,
                window: Some(3),
            }),
        )
        .map(|r| (r.labels, r.centroids));
        assert_clustering_contract(&kdba, n, k, corrupt);
    }

    #[cases(16)]
    fn matrix_baselines_survive_chaos(g) {
        // PAM / hierarchical / spectral run on a dissimilarity matrix; a
        // corrupted series poisons the matrix with NaN, which the
        // fallible entry points must reject (validate_finite), not
        // propagate.
        let n = g.usize_in(4..10);
        let m = g.usize_in(6..16);
        let mut series = clean_series(g, n, m);
        // Keep lengths equal so the distance matrix itself is computable.
        let kinds = [FaultKind::NanRun, FaultKind::MissingGap, FaultKind::Flatline, FaultKind::Spike];
        let (nf, _) = inject(g, &mut series, &kinds);
        let matrix = tscluster::matrix::DissimilarityMatrix::compute(
            &series,
            &tsdist::EuclideanDistance,
        );
        let k = g.usize_in(1..4);

        if let Ok(r) = tscluster::pam::pam_with(
            &matrix,
            &tscluster::pam::PamOptions::new(k).with_max_iter(10),
        ) {
            assert!(!nf, "NaN matrix must not PAM-cluster");
            assert!(r.labels.iter().all(|&l| l < k));
            assert_eq!(r.medoids.len(), k);
        }

        if let Ok(labels) = tscluster::hierarchical::hierarchical_cluster_with(
            &matrix,
            &tscluster::hierarchical::HierarchicalOptions::new(k)
                .with_linkage(tscluster::Linkage::Average),
        ) {
            assert!(!nf);
            assert!(labels.iter().all(|&l| l < k));
        }

        let sp = tscluster::spectral::spectral_cluster_with(
            &matrix,
            &tscluster::spectral::SpectralOptions::from(tscluster::spectral::SpectralConfig {
                k,
                max_iter: 10,
                seed: g.u64_in(0..1 << 32),
                sigma: None,
            }),
        );
        if let Ok(r) = sp {
            assert!(!nf);
            assert!(r.labels.iter().all(|&l| l < k));
        }
    }

    #[cases(32)]
    fn distance_kernels_survive_chaos(g) {
        let m = g.usize_in(2..32);
        let mut series = clean_series(g, 2, m);
        let (nf, ragged) = inject(g, &mut series, &FaultKind::ALL);
        let (x, y) = (series[0].clone(), series[1].clone());
        let w = g.usize_in(0..6);

        let d = tsdist::dtw::try_dtw_distance(&x, &y, Some(w));
        let p = tsdist::dtw::try_dtw_path(&x, &y, Some(w));
        if let (Ok(dv), Ok((pv, path))) = (&d, &p) {
            assert!(!nf && !ragged);
            assert!(dv.is_finite() && pv.is_finite());
            assert!(!path.is_empty());
        }
        if nf || ragged {
            assert!(d.is_err(), "corrupt pair must not yield a DTW distance");
        }

        match tsdist::lb_keogh::Envelope::try_new(&y, w) {
            Ok(env) => {
                let lb = tsdist::lb_keogh::try_lb_keogh(&x, &env);
                match lb {
                    Ok(v) => assert!(v.is_finite() && v >= 0.0),
                    Err(_) => assert!(nf || ragged),
                }
            }
            Err(_) => assert!(nf, "envelope rejected a finite candidate"),
        }

        if let Ok((v, _)) = tscluster::ksc::KscDistance::try_dist_shift(&x, &y) {
            assert!(!nf && !ragged);
            assert!(v.is_finite() && v >= -1e-9);
        }
    }

    #[cases(16)]
    fn one_nn_pipeline_survives_chaos(g) {
        let n_train = g.usize_in(3..8);
        let n_test = g.usize_in(2..5);
        let m = g.usize_in(6..20);
        let mut all = clean_series(g, n_train + n_test, m);
        let (nf, ragged) = inject(g, &mut all, &FaultKind::ALL);
        let corrupt = nf || ragged;
        let test_series = all.split_off(n_train);
        // Bypass Dataset::new's panicking invariants via direct struct
        // construction — the chaos suite must reach the try_* validators.
        let train = Dataset {
            name: "chaos-train".into(),
            labels: (0..all.len()).map(|i| i % 2).collect(),
            series: all,
        };
        let test = Dataset {
            name: "chaos-test".into(),
            labels: (0..test_series.len()).map(|i| i % 2).collect(),
            series: test_series,
        };
        match tsdist::nn::try_one_nn_accuracy(&tsdist::EuclideanDistance, &train, &test) {
            Ok(acc) => {
                assert!(!corrupt);
                assert!((0.0..=1.0).contains(&acc));
            }
            Err(_) => assert!(corrupt, "clean split must classify"),
        }
        match tsdist::nn::try_one_nn_accuracy_lb(Some(2), &train, &test) {
            Ok((acc, pruned)) => {
                assert!(!corrupt);
                assert!((0.0..=1.0).contains(&acc) && (0.0..=1.0).contains(&pruned));
            }
            Err(_) => assert!(corrupt),
        }
        // classify_one only validates the training set and its one query,
        // so judge it on exactly that scope (other test series may be
        // corrupt without affecting it).
        let m_train = train.series[0].len();
        let train_bad = train
            .series
            .iter()
            .any(|s| s.len() != m_train || s.iter().any(|v| !v.is_finite()));
        let q = &test.series[0];
        let q_bad = q.len() != m_train || q.iter().any(|v| !v.is_finite());
        match tsdist::nn::try_classify_one(&tsdist::EuclideanDistance, &train, q) {
            Ok(Some(l)) => {
                assert!(!(train_bad || q_bad));
                assert!(l < 2);
            }
            Ok(None) => {}
            Err(_) => assert!(train_bad || q_bad),
        }
    }

    #[cases(32)]
    fn normalization_survives_chaos(g) {
        let n = g.usize_in(2..8);
        let m = g.usize_in(2..24);
        let mut series = clean_series(g, n, m);
        let (nf, _) = inject(g, &mut series, &FaultKind::ALL);
        for s in &series {
            match try_z_normalize(s) {
                Ok(z) => assert!(z.iter().all(|v| v.is_finite()), "NaN after z-norm"),
                Err(TsError::NonFinite { .. }) => {
                    assert!(s.iter().any(|v| !v.is_finite()));
                }
                Err(TsError::ConstantSeries { .. }) => {
                    assert!(s.iter().all(|v| v.is_finite()));
                }
                Err(TsError::EmptyInput) => assert!(s.is_empty()),
                Err(e) => panic!("unexpected error from try_z_normalize: {e}"),
            }
        }
        // Dataset-level accounting: equal-length corrupted set.
        let m0 = series[0].len();
        let equal: Vec<Vec<f64>> = series.iter().filter(|s| s.len() == m0).cloned().collect();
        let n_eq = equal.len();
        let mut d = Dataset {
            name: "chaos-norm".into(),
            labels: vec![0; n_eq],
            series: equal,
        };
        match d.try_z_normalize() {
            Ok(report) => {
                assert!(report.normalized + report.constant == n_eq);
                for s in &d.series {
                    assert!(s.iter().all(|v| v.is_finite()));
                }
            }
            Err(TsError::NonFinite { series: idx, .. }) => {
                assert!(nf);
                assert!(idx < n_eq);
            }
            Err(e) => panic!("unexpected dataset normalization error: {e}"),
        }
    }
}

/// Twelve clean rows of length 32 for the bad-row test below.
fn twelve_rows() -> Vec<Vec<f64>> {
    (0..12)
        .map(|i| {
            z_normalize(
                &(0..32)
                    .map(|t| {
                        (t as f64 * 0.3 + i as f64).sin()
                            + if i % 2 == 0 { 0.0 } else { 0.02 * t as f64 }
                    })
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

#[test]
fn out_of_core_entry_points_reject_bad_view_rows() {
    let opts = kshape::KShapeOptions::new(2).with_seed(3);
    let centroids = twelve_rows()[..2].to_vec();
    let assign = |rows: &[Vec<f64>]| {
        let (mut labels, mut dists) = (vec![0usize; rows.len()], vec![0.0f64; rows.len()]);
        kshape::assign_store(rows, &centroids, &mut labels, &mut dists)
    };

    let mut nan = twelve_rows();
    nan[3][5] = f64::NAN;
    assert!(matches!(
        kshape::fit_store(&nan[..], &opts),
        Err(TsError::NonFinite {
            series: 3,
            index: 5
        })
    ));
    assert!(matches!(
        assign(&nan),
        Err(TsError::NonFinite {
            series: 3,
            index: 5
        })
    ));
    // The in-memory fit reports the same row.
    assert!(matches!(
        kshape::KShape::fit_with(&nan, &opts),
        Err(TsError::NonFinite {
            series: 3,
            index: 5
        })
    ));

    let mut inf = twelve_rows();
    inf[3][5] = f64::INFINITY;
    assert!(matches!(
        kshape::fit_store(&inf[..], &opts),
        Err(TsError::NonFinite {
            series: 3,
            index: 5
        })
    ));

    let mut short = twelve_rows();
    short[3].truncate(20);
    assert!(matches!(
        kshape::fit_store(&short[..], &opts),
        Err(TsError::LengthMismatch {
            expected: 32,
            found: 20,
            series: 3
        })
    ));
    assert!(matches!(
        assign(&short),
        Err(TsError::LengthMismatch {
            expected: 32,
            found: 20,
            series: 3
        })
    ));
}

// ---------------------------------------------------------------------------
// Execution-control chaos: random budgets and cancellation against every
// `*_with_control` entry point. The contract: any outcome is either
// in-range labels or a typed error whose partial labels are themselves
// in range — never a panic, never an out-of-range label.
// ---------------------------------------------------------------------------

use std::time::Duration;
use tsrun::{retry_with_reseed, Budget, CancelToken, RunControl};

/// Draws the raw ingredients of a hostile execution control: an optional
/// budget mixing a microsecond deadline, a tiny iteration cap, and a
/// small cost quota, plus a (possibly already fired) cancel token.
fn random_parts(g: &mut Gen) -> (Option<Budget>, Option<CancelToken>) {
    let mut budget = Budget::unlimited();
    if g.f64_in(0.0..1.0) < 0.4 {
        budget = budget.with_deadline(Duration::from_micros(g.u64_in(0..800)));
    }
    if g.f64_in(0.0..1.0) < 0.4 {
        budget = budget.with_iteration_cap(g.usize_in(0..6));
    }
    if g.f64_in(0.0..1.0) < 0.4 {
        budget = budget.with_cost_cap(g.u64_in(0..20_000));
    }
    let cancel = if g.f64_in(0.0..1.0) < 0.3 {
        let token = CancelToken::new();
        if g.f64_in(0.0..1.0) < 0.5 {
            token.cancel();
        }
        Some(token)
    } else {
        None
    };
    let budget = if budget.is_unlimited() {
        None
    } else {
        Some(budget)
    };
    (budget, cancel)
}

/// Arms the random parts as a `RunControl` with stride 1 so the deadline
/// clock is consulted on every poll — maximally hostile.
fn random_control(g: &mut Gen) -> RunControl {
    let (budget, cancel) = random_parts(g);
    RunControl::from_parts(budget, cancel).with_clock_stride(1)
}

/// The stop contract shared by every budgeted clusterer.
fn assert_stop_contract(outcome: TsResult<Vec<usize>>, n: usize, k: usize, what: &str) {
    match outcome {
        Ok(labels) => {
            assert_eq!(labels.len(), n, "{what}: wrong label count");
            assert!(labels.iter().all(|&l| l < k), "{what}: label out of range");
        }
        Err(TsError::Stopped { labels, .. }) => {
            assert!(
                labels.is_empty() || labels.len() == n,
                "{what}: partial labeling must be empty or complete"
            );
            assert!(
                labels.iter().all(|&l| l < k),
                "{what}: partial label out of range"
            );
        }
        Err(TsError::NotConverged { labels, .. }) => {
            assert_eq!(labels.len(), n, "{what}: NotConverged label count");
            assert!(
                labels.iter().all(|&l| l < k),
                "{what}: NotConverged label range"
            );
        }
        Err(_) => {} // any other typed error is acceptable
    }
}

tscheck::props! {
    #[cases(16)]
    fn budgets_and_cancellation_never_panic(g) {
        let n = g.usize_in(6..12);
        let m = g.usize_in(8..20);
        let series = clean_series(g, n, m);
        let k = g.usize_in(2..4);
        let seed = g.u64_in(0..1 << 32);

        let (budget, cancel) = random_parts(g);
        assert_stop_contract(
            kshape::KShape::fit_with(&series, &kshape::KShapeOptions {
                config: kshape::KShapeConfig {
                    k, max_iter: 10, seed, ..Default::default()
                },
                budget, cancel, recorder: None,
            })
            .map(|r| r.labels),
            n, k, "k-Shape",
        );
        let (budget, cancel) = random_parts(g);
        assert_stop_contract(
            tscluster::kmeans::kmeans_with(
                &series,
                &tsdist::EuclideanDistance,
                &tscluster::kmeans::KMeansOptions {
                    config: tscluster::KMeansConfig { k, max_iter: 10, seed },
                    budget, cancel, recorder: None,
                },
            )
            .map(|r| r.labels),
            n, k, "k-AVG",
        );
        let (budget, cancel) = random_parts(g);
        assert_stop_contract(
            tscluster::dba::kdba_with(
                &series,
                &tscluster::dba::KDbaOptions {
                    config: tscluster::dba::KDbaConfig {
                        k, max_iter: 5, seed, refinements_per_iter: 1, window: Some(m / 4),
                    },
                    budget, cancel, recorder: None,
                },
            )
            .map(|r| r.labels),
            n, k, "k-DBA",
        );
        let (budget, cancel) = random_parts(g);
        assert_stop_contract(
            tscluster::ksc::ksc_with(
                &series,
                &tscluster::ksc::KscOptions {
                    config: tscluster::ksc::KscConfig { k, max_iter: 5, seed },
                    budget, cancel, recorder: None,
                },
            )
            .map(|r| r.labels),
            n, k, "KSC",
        );
        let (budget, cancel) = random_parts(g);
        assert_stop_contract(
            tscluster::fuzzy::fuzzy_cmeans_with(
                &series,
                &tsdist::EuclideanDistance,
                &tscluster::fuzzy::FuzzyOptions {
                    config: tscluster::fuzzy::FuzzyConfig {
                        k, fuzziness: 2.0, max_iter: 10, tol: 1e-4, seed,
                    },
                    budget, cancel, recorder: None,
                },
            )
            .map(|r| r.labels),
            n, k, "fuzzy c-means",
        );
    }

    #[cases(12)]
    fn budgeted_matrix_methods_never_panic(g) {
        let n = g.usize_in(6..12);
        let m = g.usize_in(8..16);
        let series = clean_series(g, n, m);
        let k = g.usize_in(2..4);
        let seed = g.u64_in(0..1 << 32);

        // The matrix build itself is budgeted…
        let build = tscluster::matrix::DissimilarityMatrix::try_compute_with_control(
            &series,
            &tsdist::EuclideanDistance,
            &random_control(g),
        );
        match build {
            Ok(matrix) => {
                // …and so is everything consuming it.
                let (budget, cancel) = random_parts(g);
                assert_stop_contract(
                    tscluster::pam::pam_with(
                        &matrix,
                        &tscluster::pam::PamOptions {
                            config: tscluster::pam::PamConfig { k, max_iter: 10 },
                            budget, cancel, recorder: None,
                        },
                    )
                    .map(|r| r.labels),
                    n, k, "PAM",
                );
                let (budget, cancel) = random_parts(g);
                assert_stop_contract(
                    tscluster::spectral::spectral_cluster_with(
                        &matrix,
                        &tscluster::spectral::SpectralOptions {
                            config: tscluster::spectral::SpectralConfig {
                                k, max_iter: 10, seed, sigma: None,
                            },
                            budget, cancel, recorder: None,
                        },
                    )
                    .map(|r| r.labels),
                    n, k, "spectral",
                );
                let (budget, cancel) = random_parts(g);
                assert_stop_contract(
                    tscluster::hierarchical::hierarchical_cluster_with(
                        &matrix,
                        &tscluster::hierarchical::HierarchicalOptions {
                            config: tscluster::hierarchical::HierarchicalConfig {
                                k,
                                linkage: tscluster::Linkage::Average,
                            },
                            budget, cancel, recorder: None,
                        },
                    ),
                    n, k, "hierarchical",
                );
            }
            Err(TsError::Stopped { labels, .. }) => {
                assert!(labels.is_empty(), "a matrix build has no labeling");
            }
            Err(e) => panic!("unexpected matrix error on clean input: {e}"),
        }
    }

    #[cases(12)]
    fn ladder_survives_chaos_and_budgets(g) {
        let n = g.usize_in(6..12);
        let m = g.usize_in(8..16);
        let mut series = clean_series(g, n, m);
        let (nf, ragged) = inject(g, &mut series, &FaultKind::ALL);
        let k = 2;
        let config = tscluster::LadderConfig {
            k,
            max_iter: 10,
            seed: g.u64_in(0..1 << 32),
            max_attempts_per_rung: 2,
            descend_on_stop: g.f64_in(0.0..1.0) < 0.5,
            ..Default::default()
        };
        let (budget, cancel) = random_parts(g);
        let opts = tscluster::LadderOptions {
            config,
            budget,
            cancel,
            recorder: None,
        };
        match tscluster::cluster_with_ladder(&series, &opts) {
            Ok(outcome) => {
                assert!(!(nf || ragged), "corrupt input must not cluster");
                assert_eq!(outcome.labels.len(), n);
                assert!(outcome.labels.iter().all(|&l| l < k));
            }
            Err(TsError::Stopped { labels, .. }) => {
                assert!(labels.is_empty() || labels.len() == n);
                assert!(labels.iter().all(|&l| l < k));
            }
            Err(_) => {} // typed error: acceptable for any input
        }
    }

    #[cases(16)]
    fn retry_with_reseed_is_deterministic(g) {
        let base_seed = g.u64_in(0..u64::MAX);
        let max_attempts = g.u64_in(1..5) as u32;
        // Fail the first `fail_below` attempts with a retryable error,
        // then succeed returning the seed that was actually used.
        let fail_below = g.usize_in(0..6);
        let run_once = || {
            let mut calls = 0usize;
            let report = retry_with_reseed(base_seed, max_attempts, tsrun::default_retryable, |seed| {
                calls += 1;
                if calls <= fail_below {
                    Err(TsError::NumericalFailure {
                        context: format!("synthetic failure #{calls}"),
                    })
                } else {
                    Ok(seed)
                }
            });
            (report.outcome, report.attempts, report.seed_used, report.failures.len())
        };
        let (o1, a1, s1, f1) = run_once();
        let (o2, a2, s2, f2) = run_once();
        assert_eq!(a1, a2, "attempt count must be deterministic");
        assert_eq!(s1, s2, "seed schedule must be deterministic");
        assert_eq!(f1, f2, "failure log must be deterministic");
        match (o1, o2) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x, y, "derived seed must be deterministic");
                assert_eq!(f1, fail_below, "every failed attempt must be recorded");
                assert!(fail_below < max_attempts as usize);
            }
            (Err(_), Err(_)) => {
                assert!(
                    fail_below >= max_attempts as usize,
                    "must only exhaust when all attempts fail"
                );
                assert_eq!(a1, max_attempts);
                assert_eq!(f1, max_attempts as usize, "every failed attempt must be recorded");
            }
            _ => panic!("outcomes diverged between identical runs"),
        }
        // Attempt 0 always uses the base seed verbatim.
        if fail_below == 0 {
            assert_eq!(s1, base_seed);
        }
    }

    #[cases(16)]
    fn truncated_checkpoints_are_quarantined_never_trusted(g) {
        use tsexperiments::checkpoint::{CheckpointCell, CheckpointStore, LoadOutcome};
        let cell = CheckpointCell {
            method: "k-Shape".into(),
            dataset: format!("chaos_{}", g.u64_in(0..1 << 20)),
            config_tag: "seed=0;size_factor=0.1;runs=1;max_iter=5".into(),
            rand_index: g.f64_in(0.0..1.0),
        };
        let dir = std::env::temp_dir().join(format!(
            "tsexp_chaos_{}_{}",
            std::process::id(),
            g.case_seed(),
        ));
        let store = CheckpointStore::new(&dir);
        store.store(&cell).expect("store");
        // Byte-truncate the on-disk checkpoint the way a kill -9 would.
        let path = {
            let mut it = std::fs::read_dir(&dir).expect("dir");
            it.next().expect("one file").expect("entry").path()
        };
        let mut bytes = std::fs::read(&path).expect("read");
        let mut rng = StdRng::seed_from_u64(g.u64_in(0..u64::MAX));
        let removed = tsdata::corrupt::truncate_checkpoint(&mut bytes, &mut rng);
        assert!(removed > 0);
        std::fs::write(&path, &bytes).expect("write truncated");
        // Every prefix must be classified corrupt and quarantined.
        let (loaded, outcome) = store.load(&cell.method, &cell.dataset, &cell.config_tag);
        assert!(loaded.is_none(), "truncated checkpoint must never load");
        assert_eq!(outcome, LoadOutcome::Quarantined);
        // The quarantined evidence survives; the original name is free.
        assert!(!path.exists());
        let corrupt: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
            .collect();
        assert_eq!(corrupt.len(), 1, "quarantine file missing");
        // A fresh store of the same cell resumes cleanly.
        store.store(&cell).expect("re-store");
        let (reloaded, outcome) = store.load(&cell.method, &cell.dataset, &cell.config_tag);
        assert_eq!(outcome, LoadOutcome::Hit);
        assert_eq!(reloaded.expect("hit").rand_index.to_bits(), cell.rand_index.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
