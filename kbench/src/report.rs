//! Metric collection, order statistics, and the result line.
//!
//! Every run prints one `workload metric value unit` line per metric and
//! then, as the last line of standard output, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("layer.znorm.share", "ratio"),
    ("layer.rfft.share", "ratio"),
    ("layer.xcorr.share", "ratio"),
    ("layer.extract.share", "ratio"),
    ("layer.gram.share", "ratio"),
    ("layer.eigen.share", "ratio"),
    ("layer.read.share", "ratio"),
    ("layer.refresh.share", "ratio"),
    ("layer.fit.share", "ratio"),
    ("layer.connect.share", "ratio"),
    ("layer.parse.share", "ratio"),
    ("layer.encode.share", "ratio"),
    ("layer.persist.share", "ratio"),
    ("unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("layer.rfft.us_per_call", "us"),
    ("layer.xcorr.us_per_call", "us"),
    ("layer.rfft.calls", "count"),
    ("layer.xcorr.calls", "count"),
    ("layer.extract.calls", "count"),
    ("kshape.iterations", "count"),
    ("kshape.threads", "count"),
    ("kshape.threads.speedup", "ratio"),
    ("store.segment_loads", "count"),
    ("store.hit_ratio", "ratio"),
    ("stream.refresh_ratio", "ratio"),
    ("stream.p99_refresh_share", "ratio"),
    ("stream.reseeds", "count"),
    ("serve.late_ratio", "ratio"),
    ("quality.rand_index", "ratio"),
    ("ops", "count"),
];

/// One run's results: operation counts, correctness failures, metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (error result, shed, timeout).
    pub failed: u64,
    /// Descriptions of every correctness check that failed.
    pub violations: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed correctness check unless `ok` holds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metric recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Keeps exactly the metrics named in `spec`, in its order, reading 0
    /// for a name the workload did not record.
    pub fn restrict_to(&mut self, spec: &[(&str, &'static str)]) {
        self.metrics = spec
            .iter()
            .map(|&(name, unit)| (name.to_string(), self.get(name).unwrap_or(0.0), unit))
            .collect();
    }

    /// Prints the human-readable lines, then the JSON result line last.
    pub fn print(&self, workload: &str) {
        for (name, value, unit) in &self.metrics {
            println!("{workload} {name} {value} {unit}");
        }
        for v in &self.violations {
            println!("# check failed: {v}");
        }
        println!("{}", self.json());
    }

    /// The JSON result object (one line).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // A non-finite value cannot be written as JSON; it is a bug in
            // the measurement, reported through `correct` instead.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }

    /// Flags every non-finite metric as a failed check.
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, v, _)| format!("metric {n} is {v}"))
            .collect();
        self.violations.extend(bad);
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted copy).
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quartiles `(q1, median, q3)` with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the spread check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Lower edge of the first latency bucket, in nanoseconds.
const BUCKET_MIN_NS: f64 = 10.0;
/// Ratio of a latency bucket's upper edge to its lower edge.
const BUCKET_GROWTH: f64 = 1.001;
/// Latency buckets: 10 ns up to about 1000 s.
const BUCKETS: usize = 25_400;

/// Operation latencies in a fixed histogram of logarithmic buckets, each
/// 0.1% wide. Its size does not depend on how many operations a run
/// makes, so a faster program does not move the peak resident set the
/// run reports.
#[derive(Debug)]
pub struct Latencies {
    counts: Vec<u64>,
    n: u64,
}

impl Latencies {
    /// An empty histogram.
    pub fn new() -> Latencies {
        Latencies {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    /// Records one latency.
    pub fn push(&mut self, d: std::time::Duration) {
        let ratio = d.as_nanos() as f64 / BUCKET_MIN_NS;
        let b = if ratio > 1.0 {
            (ratio.ln() / BUCKET_GROWTH.ln()) as usize
        } else {
            0
        };
        self.counts[b.min(BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// Number of latencies recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q` quantile in milliseconds, interpolated geometrically inside
    /// its bucket; 0 when nothing was recorded.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0.0;
        for (b, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let c = c as f64;
            if below + c >= target {
                let frac = ((target - below) / c).clamp(0.0, 1.0);
                return BUCKET_MIN_NS * BUCKET_GROWTH.powf(b as f64 + frac) / 1e6;
            }
            below += c;
        }
        unreachable!("the bucket counts sum to n")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    tsexperiments::scale::peak_rss_kb() as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Latencies::new();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        for us in 1..=1000 {
            h.push(std::time::Duration::from_micros(us));
        }
        assert_eq!(h.len(), 1000);
        for (q, want) in [(0.5, 0.5), (0.99, 0.99), (1.0, 1.0)] {
            let got = h.quantile_ms(q);
            assert!((got / want - 1.0).abs() < 2e-3, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn json_line_lists_metrics_in_order() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("b", 2.5, "ms");
        o.metric("a", 1.0, "s");
        o.restrict_to(&[("a", "s"), ("b", "ms"), ("c", "count")]);
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"a\":{\"value\":1,\"unit\":\"s\"},\"b\":{\"value\":2.5,\"unit\":\"ms\"},\
             \"c\":{\"value\":0,\"unit\":\"count\"}}}"
        );
    }
}
