//! Output pins for k-Shape's shared kernels.
//!
//! Each case runs one entry point on fixed data and hashes what it
//! returns — labels, centroid bits, inertia bits, or a stream
//! checkpoint's bytes — with the FNV-1a fold of `tests/determinism.rs`.
//! The cases cover every path through the nearest-centroid sweep, the
//! Gram fold and the shape extraction:
//!
//! * the in-memory fit on a set whose clusters all hold at least `m`
//!   members (primal `m×m` Gram) and on one whose clusters hold fewer
//!   (dual `n×n` Gram), at one and two threads;
//! * the out-of-core fit over a resident `f64` store, a spilled `f32`
//!   store, a 3-channel view, and ragged resident and spilled stores;
//! * the standalone out-of-core assignment sweep on flat and ragged rows;
//! * the stream's checkpoint under each decay policy and with two
//!   channels, after feeds that bootstrap, refresh and (once) reseed.
//!
//! A change to these kernels that claims to be exact must leave every
//! hash unchanged.

use kshape::{
    assign_store, fit_store, Decay, DriftConfig, KShape, KShapeOptions, KShapeResult, StreamConfig,
    StreamKShape,
};
use tsdata::generators::{cbf, GenParams};
use tsdata::normalize::z_normalize;
use tsdata::store::{ChannelView, ElemType, RaggedStore, SeriesStore, SpillConfig};
use tsrand::{Rng, StdRng};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn hash_bytes(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn hash_f64s(acc: u64, xs: &[f64]) -> u64 {
    xs.iter()
        .fold(acc, |h, x| hash_bytes(h, &x.to_bits().to_le_bytes()))
}

fn hash_labels(acc: u64, labels: &[usize]) -> u64 {
    labels
        .iter()
        .fold(acc, |h, &l| hash_bytes(h, &(l as u64).to_le_bytes()))
}

fn hash_fit(fit: &KShapeResult) -> u64 {
    let mut h = hash_labels(FNV_OFFSET, &fit.labels);
    for c in &fit.centroids {
        h = hash_f64s(h, c);
    }
    h = hash_f64s(h, &[fit.inertia]);
    hash_bytes(h, &(fit.iterations as u64).to_le_bytes())
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: output hash {got:#018x} moved");
}

/// z-normalized CBF rows, class-major.
fn cbf_rows(n_per_class: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let params = GenParams {
        n_per_class,
        len: m,
        ..GenParams::default()
    };
    let data = cbf::generate(&params, &mut StdRng::seed_from_u64(seed));
    data.series.iter().map(|s| z_normalize(s)).collect()
}

/// CBF rows cut to native lengths `m − 12 ..= m` and re-normalized.
fn ragged_rows(n_per_class: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    cbf_rows(n_per_class, m, seed)
        .iter()
        .enumerate()
        .map(|(i, row)| z_normalize(&row[..m - (i * 5) % 13]))
        .collect()
}

/// Resident and spilled ragged stores hold the same rows, so both fits
/// share one pin.
const RAGGED_FIT: u64 = 0x6EE9_C8D4_1EDB_BB13;

fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kernels_{tag}_{}", std::process::id()))
}

fn cluster_sizes(labels: &[usize], k: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    sizes
}

#[test]
fn in_memory_fit_primal_path_is_pinned() {
    // 120 rows of length 24 in 3 clusters: every cluster holds at least
    // m members, so shape extraction builds the m×m Gram.
    let rows = cbf_rows(40, 24, 11);
    for threads in [1, 2] {
        let opts = KShapeOptions::new(3).with_seed(5).with_threads(threads);
        let fit = KShape::fit_with(&rows, &opts).expect("clean input");
        assert!(cluster_sizes(&fit.labels, 3).iter().all(|&s| s >= 24));
        check(
            &format!("fit_with primal, threads={threads}"),
            hash_fit(&fit),
            0xB3F8_6815_2BF6_55B6,
        );
    }
}

#[test]
fn in_memory_fit_dual_path_is_pinned() {
    // 30 rows of length 64: every cluster is smaller than m, so shape
    // extraction decomposes the n×n dual Gram.
    let rows = cbf_rows(10, 64, 12);
    for threads in [1, 2] {
        let opts = KShapeOptions::new(3).with_seed(9).with_threads(threads);
        let fit = KShape::fit_with(&rows, &opts).expect("clean input");
        check(
            &format!("fit_with dual, threads={threads}"),
            hash_fit(&fit),
            0xD7F8_2116_8C0D_59DC,
        );
    }
}

#[test]
fn out_of_core_fit_over_flat_stores_is_pinned() {
    let rows = cbf_rows(20, 32, 13);
    let opts = KShapeOptions::new(3).with_seed(4);

    let resident = SeriesStore::from_rows(&rows, ElemType::F64).expect("store");
    let fit = fit_store(&resident, &opts).expect("resident fit");
    check(
        "fit_store resident f64",
        hash_fit(&fit),
        0x5116_EF3A_E3FE_7A00,
    );

    let dir = spill_dir("flat_f32");
    let mut spilled = SeriesStore::spilled(
        32,
        ElemType::F32,
        SpillConfig::new(&dir)
            .rows_per_segment(16)
            .resident_segments(1),
    )
    .expect("spill tier");
    for row in &rows {
        spilled.push_row(row).expect("push");
    }
    let fit = fit_store(&spilled, &opts).expect("spilled fit");
    assert!(spilled.spill_stats().expect("stats").sealed_segments > 0);
    check(
        "fit_store spilled f32",
        hash_fit(&fit),
        0x2F75_D872_0784_FD79,
    );
}

#[test]
fn out_of_core_fit_over_three_channels_is_pinned() {
    // Three channels per row: the class shape from three independent
    // CBF draws (class-major, so rows line up by class).
    let parts: Vec<Vec<Vec<f64>>> = (0..3).map(|s| cbf_rows(15, 24, 20 + s)).collect();
    let rows: Vec<Vec<f64>> = (0..45)
        .map(|i| parts.iter().flat_map(|p| p[i].iter().copied()).collect())
        .collect();
    let view = ChannelView::new(&rows[..], 3).expect("view");
    let fit = fit_store(&view, &KShapeOptions::new(3).with_seed(6)).expect("fit");
    check("fit_store 3-channel", hash_fit(&fit), 0x0096_130E_4549_89C0);
}

#[test]
fn out_of_core_fit_over_ragged_stores_is_pinned() {
    let rows = ragged_rows(15, 40, 14);
    let opts = KShapeOptions::new(3).with_seed(8);

    let resident = RaggedStore::from_rows(&rows).expect("store");
    let a = fit_store(&resident, &opts).expect("resident fit");
    check("fit_store ragged resident", hash_fit(&a), RAGGED_FIT);

    let dir = spill_dir("ragged");
    let mut spilled = RaggedStore::spilled(
        ElemType::F64,
        SpillConfig::new(&dir)
            .rows_per_segment(8)
            .resident_segments(1),
    )
    .expect("spill tier");
    for row in &rows {
        spilled.push_row(row).expect("push");
    }
    let b = fit_store(&spilled, &opts).expect("spilled fit");
    assert!(spilled.spill_stats().expect("stats").sealed_segments > 0);
    check("fit_store ragged spilled", hash_fit(&b), RAGGED_FIT);
}

#[test]
fn out_of_core_assignment_is_pinned() {
    let hash_sweep = |labels: &[usize], dists: &[f64], changed: usize| {
        let h = hash_f64s(hash_labels(FNV_OFFSET, labels), dists);
        hash_bytes(h, &(changed as u64).to_le_bytes())
    };

    let rows = cbf_rows(12, 32, 15);
    let centroids = vec![rows[0].clone(), rows[13].clone(), rows[30].clone()];
    let mut labels = vec![0usize; rows.len()];
    let mut dists = vec![0.0f64; rows.len()];
    let changed = assign_store(&rows[..], &centroids, &mut labels, &mut dists).expect("assign");
    check(
        "assign_store flat",
        hash_sweep(&labels, &dists, changed),
        0xF698_5315_BA7A_21F5,
    );

    let rows = ragged_rows(12, 40, 16);
    let store = RaggedStore::from_rows(&rows).expect("store");
    let frame = |r: &Vec<f64>| {
        let mut c = r.clone();
        c.resize(40, 0.0);
        z_normalize(&c)
    };
    let centroids = vec![frame(&rows[1]), frame(&rows[14]), frame(&rows[27])];
    let mut labels = vec![0usize; rows.len()];
    let mut dists = vec![0.0f64; rows.len()];
    let changed = assign_store(&store, &centroids, &mut labels, &mut dists).expect("assign");
    check(
        "assign_store ragged",
        hash_sweep(&labels, &dists, changed),
        0x08EF_0ED5_C481_2A9A,
    );
}

fn sine(m: usize, phase: f64, noise: f64, rng: &mut StdRng) -> Vec<f64> {
    (0..m)
        .map(|t| {
            let x = t as f64 / m as f64 * std::f64::consts::TAU;
            (x * 2.0 + phase).sin() + noise * rng.gen_range(-1.0..1.0)
        })
        .collect()
}

fn square(m: usize, noise: f64, rng: &mut StdRng) -> Vec<f64> {
    (0..m)
        .map(|t| {
            let v = if (t / (m / 4)).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            v + noise * rng.gen_range(-1.0..1.0)
        })
        .collect()
}

/// Feeds 200 arrivals of two shape classes, then 200 of two shifted
/// sines (a regime change), with one NaN arrival in every 25. Each
/// arrival spans `channels` copies of its class shape.
fn feed(engine: &mut StreamKShape, channels: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..400 {
        let mut x = Vec::new();
        for _ in 0..channels {
            x.extend(match (i < 200, i % 2) {
                (true, 0) => sine(32, 0.0, 0.05, &mut rng),
                (true, _) => square(32, 0.05, &mut rng),
                (false, 0) => sine(32, std::f64::consts::FRAC_PI_2 * 1.3, 0.05, &mut rng),
                (false, _) => sine(32, std::f64::consts::PI * 1.2, 0.05, &mut rng),
            });
        }
        if i % 25 == 24 {
            x[3] = f64::NAN;
        }
        engine.push(&x);
    }
}

fn stream_config(decay: Decay, channels: usize) -> StreamConfig {
    let mut config = StreamConfig::new(2, 32)
        .with_channels(channels)
        .with_warmup(16)
        .with_window_capacity(128)
        .with_refresh_every(8)
        .with_seed(23)
        .with_decay(decay);
    config.drift = DriftConfig {
        short_window: 16,
        long_window: 64,
        threshold: 1.8,
        cooldown: 200,
    };
    config
}

#[test]
fn stream_checkpoints_are_pinned() {
    let cases = [
        ("append_only", Decay::AppendOnly, 1, 0xED11_B747_8D67_00EE),
        (
            "exponential",
            Decay::Exponential { lambda: 0.9 },
            1,
            0x5723_E35D_7DA9_609B,
        ),
        (
            "windowed",
            Decay::Windowed { window: 6 },
            1,
            0xEDC7_F2A0_5190_3A0C,
        ),
        (
            "two_channels",
            Decay::Windowed { window: 6 },
            2,
            0x10DF_D1E6_C63E_E5BB,
        ),
    ];
    let mut reseeded = false;
    for (name, decay, channels, want) in cases {
        let mut engine = StreamKShape::new(stream_config(decay, channels)).expect("config");
        feed(&mut engine, channels, 41);
        let stats = engine.stats();
        assert!(stats.bootstrapped, "{name}: never bootstrapped");
        assert!(stats.refreshes > 0, "{name}: never refreshed");
        assert!(stats.quarantined > 0, "{name}: no quarantined arrival");
        reseeded |= stats.reseeds > 0;
        check(
            &format!("stream {name}"),
            hash_bytes(FNV_OFFSET, engine.to_json().as_bytes()),
            want,
        );
    }
    assert!(reseeded, "no feed reseeded");
}
