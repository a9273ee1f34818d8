//! Self-test on tiny inputs: every metric `BENCHMARK.json` names is
//! printed exactly once with its unit, and a corrupted output is counted
//! in `failed_frac` rather than passing silently.

use std::path::{Path, PathBuf};

use perfbench::{run, Options, Outcome, END_TO_END, PER_LAYER, REPORTED, WORKLOADS};
use serde_json::Value;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// Tiny inputs; each test uses its own seed so concurrent tests never
/// share an input or output file.
fn tiny(workload: &str, seed: u64, trace: bool, corrupt_iteration: Option<usize>) -> Options {
    Options {
        workload: workload.to_owned(),
        seed,
        seconds: 0.01,
        trace,
        root: root(),
        tiny: true,
        corrupt_iteration,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

fn benchmark_json() -> Value {
    let text =
        std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json at the root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("name and unit are strings").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_the_benchmark_prints() {
    let b = benchmark_json();
    assert_eq!(names_and_units(&b["end_to_end"]), owned(END_TO_END));
    assert_eq!(names_and_units(&b["per_layer"]), owned(PER_LAYER));
    let workloads: Vec<&str> = b["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Each metric of `expected` has exactly one report line, carrying its
/// unit, and the result line carries exactly `line` with their units.
fn assert_printed_once(
    outcome: &Outcome,
    trace: bool,
    expected: &[(&str, &str)],
    line: &[(&str, &str)],
) {
    for (name, unit) in expected {
        let lines: Vec<&String> = outcome
            .report
            .iter()
            .filter(|l| l.starts_with(&format!("metric {name} = ")))
            .collect();
        assert_eq!(lines.len(), 1, "{name}: {lines:?}");
        let tokens: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(tokens.get(4), Some(unit), "{name}: {}", lines[0]);
    }
    let result: Value =
        serde_json::from_str(&outcome.result_line(trace)).expect("result line is JSON");
    let keys: Vec<&str> = match &result {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("result line is not an object: {other:?}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics: Vec<(String, String)> = match &result["metrics"] {
        Value::Object(entries) => entries
            .iter()
            .map(|(k, v)| {
                assert!(v["value"].as_f64().is_some(), "{k} has a numeric value");
                (k.clone(), v["unit"].as_str().expect("unit").to_owned())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    };
    assert_eq!(metrics, owned(line));
}

#[test]
fn every_metric_is_printed_once_with_its_unit() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let seed = 100 + i as u64;
        let e2e = run(&tiny(workload, seed, false, None)).expect("end-to-end run");
        assert!(
            e2e.correct && e2e.failed == 0,
            "{workload}: {:#?}",
            e2e.report
        );
        let mut expected = END_TO_END.to_vec();
        expected.extend_from_slice(REPORTED);
        assert_printed_once(&e2e, false, &expected, END_TO_END);

        let traced = run(&tiny(workload, seed, true, None)).expect("traced run");
        assert!(
            traced.correct && traced.failed == 0,
            "{workload}: {:#?}",
            traced.report
        );
        let mut expected = PER_LAYER.to_vec();
        expected.push(("failed_frac", "ratio"));
        assert_printed_once(&traced, true, &expected, PER_LAYER);
    }
}

#[test]
fn a_corrupted_output_is_counted_in_failed_frac() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let outcome = run(&tiny(workload, 200 + i as u64, false, Some(1))).expect("run");
        assert!(!outcome.correct, "{workload}");
        assert_eq!(outcome.failed, 1, "{workload}");
        let frac = outcome
            .metrics
            .iter()
            .find(|m| m.name == "failed_frac")
            .and_then(|m| m.value.clone().ok())
            .expect("failed_frac is measured");
        assert_eq!(frac, 1.0 / outcome.attempted as f64, "{workload}");
    }
}
