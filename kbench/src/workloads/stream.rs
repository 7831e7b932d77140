//! `stream_feed`: `StreamKShape::push` over a drifting, dirty feed.
//!
//! k = 4 waveform classes of length 128 arrive one at a time with a
//! centroid refresh every 32 accepted arrivals. The feed is cut into
//! blocks of 50 000 arrivals; each block is one regime, and the period
//! count of every waveform changes from one regime to the next, so each
//! block after the first must trigger exactly one drift reseed. 5% of
//! arrivals carry an invalidating fault (NaN run, missing-value gap or
//! truncation), each of which must come back quarantined. An operation
//! is one push; set-up is bootstrapping a fresh engine.
//!
//! The traced run feeds the same arrivals to two engines. The untraced
//! one gives the reference timings and outcomes; before each push to the
//! traced one the benchmark replays the assignment path through the
//! public kernels (z-normalize, rFFT, cross-correlation against the
//! current centroids, and the Gram fold into a scratch accumulator) and
//! requires the replayed label, distance and shift to equal the push's.
//! What a push costs beyond its replayed assignment path is attributed
//! to `refresh` on a refreshing push, to `fit` on a reseeding push, and
//! left unattributed otherwise.

use std::time::{Duration, Instant};

use kshape::extraction::GramAccumulator;
use kshape::sbd::{PreparedSeries, SbdPlan, SbdScratch};
use kshape::{DriftConfig, PushOutcome, StreamConfig, StreamKShape};
use tsdata::corrupt::{corrupt_stream_series, FaultKind, StreamFault};
use tsdata::distort::shift_zero_pad_into;
use tsdata::normalize::try_z_normalize_series;
use tsrand::{Rng, StdRng};

use super::{latency_metrics, layer_metrics, timed, write_trace, Ctx, Setups};
use crate::inputs::{arrival, derive, rng};
use crate::report::{peak_rss_mib, quantile, Latencies, Outcome};
use crate::trace::{Accum, Tracer};

/// Clusters.
const K: usize = 4;
/// Series length.
const M: usize = 128;
/// Probability that an arrival carries an invalidating fault.
const FAULT_P: f64 = 0.05;
/// The invalidating faults drawn from.
const FAULTS: [StreamFault; 3] = [
    StreamFault::Series(FaultKind::NanRun),
    StreamFault::Series(FaultKind::MissingGap),
    StreamFault::Series(FaultKind::Truncate),
];
/// Least number of engine bootstraps per run; `setup_s` is their median.
const SETUP_REPS: usize = 201;

/// The seeded arrival feed: regime, class, and fault per arrival.
struct Feed {
    r: StdRng,
    regime: usize,
}

impl Feed {
    fn new(seed: u64, stream: u64) -> Feed {
        Feed {
            r: rng(seed, stream),
            regime: 0,
        }
    }

    /// The next arrival and whether it carries an invalidating fault.
    fn next(&mut self) -> (Vec<f64>, bool) {
        let c = self.r.gen_range(0..K);
        let mut x = arrival(self.regime, c, M, &mut self.r);
        let faulty = self.r.gen_bool(FAULT_P);
        if faulty {
            let f = FAULTS[self.r.gen_range(0..FAULTS.len())];
            corrupt_stream_series(&mut x, f, &mut self.r);
        }
        (x, faulty)
    }
}

fn config(seed: u64) -> StreamConfig {
    StreamConfig::new(K, M)
        .with_seed(derive(seed, 30))
        .with_refresh_every(32)
        .with_drift(DriftConfig {
            short_window: 128,
            long_window: 1024,
            threshold: 4.0,
            cooldown: 1024,
        })
}

/// A fresh engine fed clean regime-0 arrivals until it bootstraps.
fn bootstrap(seed: u64, feed: &mut Feed) -> StreamKShape {
    let mut engine = StreamKShape::new(config(seed)).expect("valid stream config");
    while !engine.stats().bootstrapped {
        let (x, faulty) = feed.next();
        if !faulty {
            engine.push(&x);
        }
    }
    engine
}

/// Checks one outcome against the arrival's fault flag.
fn check_outcome(out: &mut Outcome, i: u64, faulty: bool, o: &PushOutcome) {
    let quarantined = matches!(o, PushOutcome::Quarantined(_));
    out.check(quarantined == faulty, || {
        format!("arrival {i}: faulty={faulty} but outcome {o:?}")
    });
    if let PushOutcome::Assigned(a) = o {
        out.check(a.dist.is_finite() && a.label < K, || {
            format!("arrival {i}: malformed assignment {a:?}")
        });
    }
}

/// Checks the block's reseed count and the engine's centroids.
fn check_block(out: &mut Outcome, block: usize, reseeds: usize, engine: &StreamKShape) {
    let expected = usize::from(block > 0);
    out.check(reseeds == expected, || {
        format!("block {block}: {reseeds} reseeds, expected {expected}")
    });
    out.check(
        engine.centroids().iter().flatten().all(|v| v.is_finite()),
        || format!("block {block}: non-finite centroid"),
    );
}

/// Runs `stream_feed`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let block_len = ctx.size(50_000, 800) as u64;

    // Each set-up bootstraps on other arrivals with another engine seed.
    let mut setups = Setups::new();
    let mut rep = 0;
    while setups.more(ctx, SETUP_REPS) {
        let mut feed = Feed::new(ctx.seed, 1000 + rep);
        // Arrivals are drawn ahead so only the pushes are timed.
        let arrivals: Vec<(Vec<f64>, bool)> = (0..256).map(|_| feed.next()).collect();
        let mut e =
            StreamKShape::new(config(derive(ctx.seed, 1000 + rep))).expect("valid stream config");
        let ((), d) = timed(|| {
            for (x, _) in arrivals.iter().filter(|(_, faulty)| !faulty) {
                if e.stats().bootstrapped {
                    break;
                }
                e.push(x);
            }
        });
        out.check(e.stats().bootstrapped, || {
            "bootstrap did not finish".to_string()
        });
        setups.push(d);
        rep += 1;
    }

    // Warm-up on an offset seed.
    let mut warm_feed = Feed::new(ctx.seed ^ 0x5A5A, 41);
    let mut warm = bootstrap(ctx.seed ^ 0x5A5A, &mut warm_feed);
    for _ in 0..ctx.size(5_000, 100) {
        warm.push(&warm_feed.next().0);
    }

    if ctx.trace {
        traced(ctx, block_len, &mut out);
        return out;
    }
    let mut feed = Feed::new(ctx.seed, 50);
    let mut engine = bootstrap(ctx.seed, &mut feed);
    let mut latencies = Latencies::new();
    let mut busy = Duration::ZERO;
    let start = Instant::now();
    let mut block = 0usize;
    while ctx.more(start, block) {
        feed.regime = block;
        let mut reseeds = 0;
        for _ in 0..block_len {
            let i = out.attempted;
            let (x, faulty) = feed.next();
            let (o, d) = timed(|| engine.push(&x));
            latencies.push(d);
            busy += d;
            check_outcome(&mut out, i, faulty, &o);
            out.attempted += 1;
            if let PushOutcome::Assigned(a) = &o {
                reseeds += usize::from(a.reseeded);
            }
        }
        check_block(&mut out, block, reseeds, &engine);
        block += 1;
    }
    let rss = peak_rss_mib();
    let throughput = latencies.len() as f64 / busy.as_secs_f64();
    latency_metrics(&mut out, &latencies, 0.99, throughput, rss);
    setups.report(&mut out);
    out
}

/// The assignment path replayed through the public kernels.
struct AssignReplay {
    plan: SbdPlan,
    cents: Vec<PreparedSeries>,
    grams: Vec<GramAccumulator>,
    fft: Vec<tsfft::Complex>,
    scratch: SbdScratch,
    aligned: Vec<f64>,
}

impl AssignReplay {
    fn new() -> AssignReplay {
        AssignReplay {
            plan: SbdPlan::new(M),
            cents: Vec::new(),
            grams: (0..K).map(|_| GramAccumulator::new(M)).collect(),
            fft: Vec::new(),
            scratch: SbdScratch::default(),
            aligned: vec![0.0; M],
        }
    }

    /// Re-reads the engine's centroids (after a refresh or reseed).
    fn sync(&mut self, engine: &StreamKShape) {
        let plan = &self.plan;
        let fft = &mut self.fft;
        self.cents = engine
            .centroids()
            .iter()
            .map(|c| plan.prepare_with(c, fft))
            .collect();
    }
}

/// Layer intervals of one replayed arrival.
#[derive(Default)]
struct Replayed {
    znorm: Duration,
    rfft: Duration,
    xcorr: Duration,
    gram: Duration,
    /// `(label, distance, shift)` when the arrival is admissible.
    assignment: Option<(usize, f64, isize)>,
}

fn replay(r: &mut AssignReplay, x: &[f64]) -> Replayed {
    let mut out = Replayed::default();
    if x.len() != M {
        return out;
    }
    let t0 = Instant::now();
    let z = try_z_normalize_series(x, 0);
    out.znorm = t0.elapsed();
    let Ok(z) = z else { return out };
    let t1 = Instant::now();
    let p = r.plan.prepare_with(&z, &mut r.fft);
    let t2 = Instant::now();
    let mut best = (0usize, f64::INFINITY, 0isize);
    for (j, c) in r.cents.iter().enumerate() {
        let (d, s) = r.plan.sbd_spectra(c, &p, &mut r.scratch);
        if d < best.1 {
            best = (j, d, s);
        }
    }
    let t3 = Instant::now();
    shift_zero_pad_into(&z, best.2, &mut r.aligned);
    r.grams[best.0].push_aligned(&r.aligned);
    let t4 = Instant::now();
    out.rfft = t2 - t1;
    out.xcorr = t3 - t2;
    out.gram = t4 - t3;
    out.assignment = Some(best);
    out
}

/// The traced run (see the module docs).
fn traced(ctx: &Ctx, block_len: u64, out: &mut Outcome) {
    let mut feed_u = Feed::new(ctx.seed, 60);
    let mut feed_t = Feed::new(ctx.seed, 60);
    let mut plain = bootstrap(ctx.seed, &mut feed_u);
    let mut engine = bootstrap(ctx.seed, &mut feed_t);
    let mut r = AssignReplay::new();
    r.sync(&engine);
    let mut tracer = Tracer::new();
    let mut untraced_t = Duration::ZERO;
    let mut traced_t = Duration::ZERO;
    let mut push_t = Duration::ZERO;
    let mut plain_lat = Vec::new();
    let mut refreshed_flags = Vec::new();
    let (mut reseeds_total, mut refreshes) = (0usize, 0usize);
    let start = Instant::now();
    let mut block = 0usize;
    while ctx.more(start, block) {
        feed_u.regime = block;
        feed_t.regime = block;
        tracer.set_op(block as u64);
        let span = tracer.open("stream.block");
        let mut acc = [
            Accum::new("znorm"),
            Accum::new("rfft"),
            Accum::new("xcorr"),
            Accum::new("gram"),
            Accum::new("refresh"),
            Accum::new("fit"),
        ];
        let mut block_push = Duration::ZERO;
        let mut reseeds = 0;
        for _ in 0..block_len {
            let i = out.attempted;
            let (x, faulty) = feed_u.next();
            let (xt, _) = feed_t.next();
            let (o_plain, d_plain) = timed(|| plain.push(&x));
            untraced_t += d_plain;
            plain_lat.push(d_plain);

            let t0 = Instant::now();
            let rep = replay(&mut r, &xt);
            let t1 = Instant::now();
            let o = engine.push(&xt);
            let t2 = Instant::now();
            let d_push = t2 - t1;
            traced_t += t2 - t0;
            block_push += d_push;
            out.attempted += 1;
            check_outcome(out, i, faulty, &o);
            out.check(o == o_plain, || {
                format!("arrival {i}: traced outcome differs")
            });
            let replayed = rep.znorm + rep.rfft + rep.xcorr + rep.gram;
            acc[0].add(t0, t0 + rep.znorm, 1);
            let mut refreshed = false;
            if let (Some((label, dist, shift)), PushOutcome::Assigned(a)) = (rep.assignment, &o) {
                out.check(
                    label == a.label && dist.to_bits() == a.dist.to_bits() && shift == a.shift,
                    || format!("arrival {i}: replayed assignment differs from push"),
                );
                acc[1].add(t0, t0 + rep.rfft, 1);
                acc[2].add(t0, t0 + rep.xcorr, K as u64);
                acc[3].add(t0, t0 + rep.gram, 1);
                let excess = d_push.saturating_sub(replayed);
                if a.reseeded {
                    acc[5].add(t1, t1 + excess, 1);
                    reseeds += 1;
                } else if a.refreshed {
                    acc[4].add(t1, t1 + excess, 1);
                }
                if a.refreshed || a.reseeded {
                    r.sync(&engine);
                }
                refreshed = a.refreshed;
                refreshes += usize::from(a.refreshed);
            }
            refreshed_flags.push(refreshed);
        }
        for a in &mut acc {
            a.flush(&mut tracer);
        }
        tracer.close_as(span, block_push);
        push_t += block_push;
        check_block(out, block, reseeds, &engine);
        reseeds_total += reseeds;
        block += 1;
    }
    let ops = out.attempted as usize;
    layer_metrics(out, &tracer, push_t, ops);
    out.metric(
        "trace.overhead_ratio",
        traced_t.as_secs_f64() / untraced_t.as_secs_f64() - 1.0,
        "ratio",
    );
    // Which pushes make the tail: the share of pushes above the untraced
    // p99 that ran a centroid refresh.
    let us: Vec<f64> = plain_lat.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let p99 = quantile(&us, 0.99);
    let tail: Vec<bool> = us
        .iter()
        .zip(&refreshed_flags)
        .filter(|(v, _)| **v > p99)
        .map(|(_, &f)| f)
        .collect();
    let share = tail.iter().filter(|&&f| f).count() as f64 / tail.len().max(1) as f64;
    out.metric("stream.p99_refresh_share", share, "ratio");
    out.metric(
        "stream.refresh_ratio",
        refreshes as f64 / ops.max(1) as f64,
        "ratio",
    );
    out.metric("stream.reseeds", reseeds_total as f64, "count");
    write_trace(ctx, &tracer, out);
}
