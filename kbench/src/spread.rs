//! `kbench spread`: how much each end-to-end metric moves from run to run.
//!
//! Runs every chosen workload `--runs` times as child processes, untraced
//! and for `BENCHMARK.json`'s `run_seconds`, alternating the workload
//! order between rounds. With `--seed S` every round reruns seed S, which
//! measures run-to-run noise alone; with `--first-seed S` round r uses
//! seed S + r, which adds input-to-input variation, as the acceptance
//! check over ten seeds does. For each metric it prints the median, the
//! quartiles (the "exclusive" method of Python's `statistics.quantiles`)
//! and the spread `(Q3 − Q1) / median`, and compares the spread with the
//! metric's bound in `BENCHMARK.json`. It exits non-zero when a run fails
//! or a spread exceeds its bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use tsobs::{parse_json, JsonValue};

use crate::report::quartiles;

/// Which seed each round runs.
#[derive(Debug, Clone, Copy)]
pub enum Seeds {
    /// Every round reruns this seed.
    Fixed(u64),
    /// Round r runs this seed plus r.
    From(u64),
}

impl Seeds {
    fn of_round(self, round: usize) -> u64 {
        match self {
            Seeds::Fixed(s) => s,
            Seeds::From(s) => s + round as u64,
        }
    }
}

/// What `kbench spread` was asked to do.
#[derive(Debug)]
pub struct Options {
    /// Runs per workload.
    pub runs: usize,
    /// Seed of each round.
    pub seeds: Seeds,
    /// Workloads to run.
    pub workloads: Vec<String>,
}

/// What `spread` reads from `BENCHMARK.json`.
struct Spec {
    run_seconds: u64,
    bounds: BTreeMap<String, f64>,
}

fn spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_uint)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let Some(JsonValue::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let bounds = metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_num()?,
            ))
        })
        .collect();
    Ok(Spec {
        run_seconds,
        bounds,
    })
}

/// Runs one child and returns its metrics, or why it failed.
fn run_once(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Result<Vec<(String, f64)>, String> {
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = parse_json(last).map_err(|e| format!("no result line ({e})"))?;
    if !output.status.success() || !matches!(doc.get("correct"), Some(JsonValue::Bool(true))) {
        let checks: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("# check"))
            .collect();
        return Err(format!("exit {}: {}", output.status, checks.join("; ")));
    }
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
        .collect())
}

/// Runs the spread measurement; see the module docs.
///
/// # Errors
///
/// When `BENCHMARK.json` cannot be read.
pub fn run(exe: &Path, opts: &Options) -> Result<ExitCode, String> {
    let spec = spec()?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failures = 0;
    for round in 0..opts.runs {
        let seed = opts.seeds.of_round(round);
        let mut order: Vec<&String> = opts.workloads.iter().collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let t = Instant::now();
            match run_once(exe, w, seed, spec.run_seconds) {
                Ok(metrics) => {
                    eprintln!("{w} seed {seed}: ok in {:.1} s", t.elapsed().as_secs_f64());
                    for (name, v) in metrics {
                        values.entry((w.clone(), name)).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{w} seed {seed}: FAILED: {e}");
                    failures += 1;
                }
            }
        }
    }
    println!("workload metric median q1 q3 spread bound");
    let mut over = 0;
    for ((w, name), v) in &values {
        let (q1, med, q3) = quartiles(v);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let bound = spec.bounds.get(name).copied();
        let verdict = match bound {
            Some(b) if spread > b => {
                over += 1;
                " OVER"
            }
            _ => "",
        };
        let bound = bound.map_or("-".to_string(), |b| b.to_string());
        println!("{w} {name} {med} {q1} {q3} {spread:.4} {bound}{verdict}");
    }
    Ok(if failures == 0 && over == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} failed runs, {over} spreads over their bound");
        ExitCode::FAILURE
    })
}
