//! Seeded inputs. Every workload builds its data here from `--seed`, so
//! the same seed gives the same inputs, and hands the program only data.

use tsdata::generators::{cbf, seasonal, sines, trends, two_patterns, GenParams};
use tsdata::Dataset;
use tsrand::{SplitMix64, StdRng};

/// A seed for the sub-stream `stream` of base seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A generator for the sub-stream `stream` of `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive(seed, stream))
}

fn params(n_per_class: usize, m: usize) -> GenParams {
    GenParams {
        n_per_class,
        len: m,
        ..GenParams::default()
    }
}

/// The 20-class shape mix: 4 waveform, 4 seasonal, 5 trend, 4
/// two-patterns and 3 cylinder–bell–funnel classes, `n_per_class` each.
pub fn shape_mix(n_per_class: usize, m: usize, seed: u64) -> Dataset {
    let p = params(n_per_class, m);
    let mut r = rng(seed, 1);
    let families = [
        sines::generate(4, 3.0, &p, &mut r),
        seasonal::generate(4, 2.0, &p, &mut r),
        trends::generate(5, &p, &mut r),
        two_patterns::generate(&p, &mut r),
        cbf::generate(&p, &mut r),
    ];
    let mut series = Vec::new();
    let mut labels = Vec::new();
    let mut offset = 0;
    for d in families {
        labels.extend(d.labels.iter().map(|l| l + offset));
        offset += d.n_classes();
        series.extend(d.series);
    }
    Dataset::new("shape_mix", series, labels)
}

/// Cylinder–bell–funnel, `n_per_class` per class.
pub fn cbf(n_per_class: usize, m: usize, seed: u64) -> Dataset {
    cbf::generate(&params(n_per_class, m), &mut rng(seed, 2))
}

/// The rows of [`cbf`] one at a time, each with its class, for a caller
/// that must not hold the whole dataset in memory.
pub fn cbf_rows(
    n_per_class: usize,
    m: usize,
    seed: u64,
) -> impl Iterator<Item = (Vec<f64>, usize)> {
    let mut r = rng(seed, 2);
    (0..3 * n_per_class).map(move |i| {
        let class = i / n_per_class;
        (cbf::generate_one(class, m, &mut r), class)
    })
}

/// Three waveform classes (sine, square, sawtooth) with random phase,
/// `n_per_class` each.
pub fn waves(n_per_class: usize, m: usize, seed: u64) -> Dataset {
    sines::generate(3, 3.0, &params(n_per_class, m), &mut rng(seed, 3))
}

/// One arrival of regime `regime`, class `class` (mod 4): a sine,
/// square, sawtooth or narrow-pulse train whose period count changes
/// with the regime, at a random phase, with amplitude jitter and noise.
/// The four shapes stay far apart under SBD, so a fit on a few dozen
/// arrivals separates them.
pub fn arrival(regime: usize, class: usize, m: usize, r: &mut StdRng) -> Vec<f64> {
    let cycles = if regime.is_multiple_of(2) { 2.0 } else { 5.0 };
    let proto: Vec<f64> = match class % 4 {
        3 => (0..m)
            .map(|i| {
                let p = (cycles * i as f64 / m as f64).fract();
                (-((p - 0.5) / 0.06).powi(2)).exp()
            })
            .collect(),
        c => sines::prototype(c, m, cycles),
    };
    let p = GenParams {
        n_per_class: 1,
        len: m,
        noise: 0.1,
        max_shift_frac: 0.5,
        amp_jitter: 1.5,
    };
    p.distort(&proto, r)
}

/// Serializes rows as a JSON array of arrays (shortest round-trip floats).
pub fn rows_json(rows: &[Vec<f64>]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{v:?}"));
        }
        out.push(']');
    }
    out.push(']');
    out
}
