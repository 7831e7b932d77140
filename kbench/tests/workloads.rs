//! Every workload, at smoke size, on seeds 1 to 3, untraced and traced:
//! the run must pass its own correctness checks (which include the
//! replays matching the program bit for bit and the traced outputs
//! equalling the untraced ones) and print every metric `BENCHMARK.json`
//! declares exactly once, with its declared unit.

use std::path::PathBuf;
use std::process::Command;

use tsobs::{parse_json, JsonValue};

/// `BENCHMARK.json`: workload names, end-to-end and per-layer metrics.
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn spec() -> Spec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<&JsonValue> {
        match doc.get(key) {
            Some(JsonValue::Arr(v)) => v.iter().collect(),
            _ => panic!("BENCHMARK.json: {key} is not a list"),
        }
    };
    let field = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).expect(k).to_string();
    let metrics = |key: &str| {
        list(key)
            .into_iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    };
    Spec {
        workloads: list("workloads")
            .into_iter()
            .map(|w| field(w, "name"))
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// Runs one smoke invocation from the repository root, with `extra`
/// arguments, and returns its standard output after checking the exit
/// status.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let seed = seed.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_kbench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", &seed, "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .expect("run kbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, stdout: &str, declared: &[(String, String)]) {
    let last = stdout.lines().last().expect("a result line");
    let doc = parse_json(last).expect("the last line is JSON");
    assert!(
        matches!(doc.get("correct"), Some(JsonValue::Bool(true))),
        "{last}"
    );
    assert_eq!(
        doc.get("failed").and_then(JsonValue::as_uint),
        Some(0),
        "{last}"
    );
    assert!(
        doc.get("attempted")
            .and_then(JsonValue::as_uint)
            .unwrap_or(0)
            >= 1
    );
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        printed, declared,
        "{workload}: metrics differ from BENCHMARK.json"
    );
    for (name, unit) in declared {
        let prefix = format!("{workload} {name} ");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(
            lines.len(),
            1,
            "{workload}: {name} printed {} times",
            lines.len()
        );
        assert!(lines[0].ends_with(&format!(" {unit}")), "{}", lines[0]);
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, m)| m.get("value")?.as_num());
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} has no finite value"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric_once_on_three_seeds() {
    let spec = spec();
    assert_eq!(spec.workloads.len(), 5);
    std::thread::scope(|s| {
        for w in &spec.workloads {
            let spec = &spec;
            s.spawn(move || {
                for seed in 1..=3 {
                    check(w, &run(w, seed, false, &[]), &spec.end_to_end);
                    check(w, &run(w, seed, true, &[]), &spec.per_layer);
                }
            });
        }
    });
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let spec = spec();
    for w in &spec.workloads {
        let stdout = run(w, 1, false, &[]);
        let doc = parse_json(stdout.lines().last().unwrap()).unwrap();
        for (name, _) in &spec.end_to_end {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_num);
            assert!(v.is_some_and(|v| v > 0.0), "{w}: {name} = {v:?}");
        }
    }
}

#[test]
fn trace_out_writes_one_span_per_line() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fit_assign.spans.jsonl");
    let _ = std::fs::remove_file(&path);
    run(
        "fit_assign",
        1,
        true,
        &["--trace-out", path.to_str().unwrap()],
    );
    let text = std::fs::read_to_string(&path).expect("spans written");
    let mut names = Vec::new();
    for (id, line) in text.lines().enumerate() {
        let span = parse_json(line).expect("each line is one JSON object");
        assert_eq!(span.get("id").and_then(JsonValue::as_uint), Some(id as u64));
        if let Some(parent) = span.get("parent").and_then(JsonValue::as_uint) {
            assert!(parent < id as u64, "a parent precedes its children: {line}");
        }
        for key in ["op", "start_ns", "dur_ns", "calls"] {
            assert!(
                span.get(key).and_then(JsonValue::as_uint).is_some(),
                "{key}: {line}"
            );
        }
        names.push(
            span.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string(),
        );
    }
    for layer in ["kshape.fit", "rfft", "xcorr", "extract"] {
        assert!(names.iter().any(|n| n == layer), "no {layer} span");
    }
}

#[test]
fn a_missing_seed_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_kbench"))
        .args(["--workload", "fit_assign"])
        .output()
        .expect("run kbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
