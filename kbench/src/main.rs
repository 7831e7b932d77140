//! `kbench` — the end-to-end benchmark of the k-Shape workspace.
//!
//! ```text
//! kbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!        [--smoke] [--trace-out <file.jsonl>]
//! kbench spread --runs <n> [--seed <n> | --first-seed <n>] [workload ...]
//! ```
//!
//! A run measures one workload for `--seconds` and prints one
//! `workload metric value unit` line per metric, then one JSON result
//! line. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced replay and prints the per-layer metrics. A failed correctness
//! check makes the result `"correct":false` and the exit code 1. See
//! `README.md` for the workloads and metrics.

mod http;
mod inputs;
mod replay;
mod report;
mod spread;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Ctx;

const USAGE: &str = "usage: kbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] \
[--smoke] [--trace-out <file>]\n       kbench spread --runs <n> [--seed <n> | --first-seed <n>] \
[workload ...]";

/// Parsed `--flag value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), Some(v.clone())));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: not a number: {v:?}"))
            })
            .transpose()
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = if raw.first().map(String::as_str) == Some("spread") {
        spread_main(&raw[1..])
    } else {
        run_main(&raw)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Where runs keep the files the program writes, under the working
/// directory.
const SCRATCH: &str = ".kbench_tmp";

/// Removes a run's scratch directory, and the shared parent once it is
/// empty, however the run ends (a panic unwinds through this too).
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

fn run_main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["smoke"])?;
    let workload = args.value("workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("seed")?.ok_or("--seed is required")?;
    let seconds: u64 = args.number("seconds")?.unwrap_or(15);
    let trace = match args.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let cleanup =
        Cleanup(PathBuf::from(SCRATCH).join(format!("{workload}-{}", std::process::id())));
    let ctx = Ctx {
        seed,
        seconds: seconds as f64,
        trace,
        smoke: args.has("smoke"),
        dir: cleanup.0.clone(),
        trace_out: args.value("trace-out").map(PathBuf::from),
    };
    let outcome = workloads::run(workload, &ctx);
    drop(cleanup);
    let mut outcome = outcome?;
    if trace {
        outcome.restrict_to(&report::PER_LAYER);
    } else {
        outcome.restrict_to(&report::END_TO_END);
    }
    outcome.check_finite();
    let attempted = outcome.attempted;
    outcome.check(attempted > 0, || "no operation was attempted".to_string());
    outcome.print(workload);
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn spread_main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    let seeds = match (args.number("seed")?, args.number("first-seed")?) {
        (Some(_), Some(_)) => return Err("give --seed or --first-seed, not both".into()),
        (Some(s), None) => spread::Seeds::Fixed(s),
        (None, first) => spread::Seeds::From(first.unwrap_or(1)),
    };
    let opts = spread::Options {
        runs: args.number("runs")?.ok_or("--runs is required")?,
        seeds,
        workloads: if args.positional.is_empty() {
            workloads::NAMES.iter().map(|s| (*s).to_string()).collect()
        } else {
            args.positional.clone()
        },
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    spread::run(&exe, &opts)
}
