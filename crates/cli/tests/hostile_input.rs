//! Hostile input through the real `accelctl` binary: a scenario file
//! nested far beyond the parser's depth limit, a scenario whose values
//! make no sense, or a sample or point count outside its command's
//! stated bound, must end in a structured error and exit status 1, never
//! in a panic, an abort, an unbounded allocation or simulated nonsense.

use std::fs;
use std::process::Command;

use accelerometer::units::cycles_per_byte;
use accelerometer::GranularityCdf;
use accelerometer_sim::{DeviceKind, FaultScenario};

#[test]
fn deeply_nested_scenario_is_a_structured_error() {
    let path = std::env::temp_dir().join(format!("accel-nested-{}.json", std::process::id()));
    fs::write(&path, "[".repeat(100_000)).expect("write nested scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_accelctl"))
        .arg("faults")
        .arg(&path)
        .output()
        .expect("accelctl starts");
    fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
    assert!(out.stdout.is_empty());
}

fn characterize_web_with_samples(samples: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_accelctl"))
        .args(["characterize", "web", "--samples", samples])
        .output()
        .expect("accelctl starts")
}

#[test]
fn out_of_range_sample_counts_are_structured_errors() {
    // Overflowing (`1e18`), too large to hold in memory (`1e8`, tens of
    // GB of traces), fractional, out of range, or not a number at all.
    for samples in ["1e18", "1e8", "2.7", "0", "-1", "1000001", "5e3", "lots", ""] {
        let out = characterize_web_with_samples(samples);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--samples {samples:?}: {stderr}");
        assert!(
            stderr.contains("--samples expects a whole number from 1 to 1000000"),
            "--samples {samples:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--samples {samples:?}");
    }
}

#[test]
fn the_smallest_sample_count_runs() {
    let out = characterize_web_with_samples("1");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("samples: 1 "), "{stdout}");
}

#[test]
fn out_of_range_sweep_points_are_structured_errors() {
    let config = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/table6.json");
    // `1e18` once reached `log_space` as an 8 EB allocation and aborted.
    for points in ["1e18", "18446744073709551616", "10001", "1", "2.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_accelctl"))
            .args(["sweep", config, "--axis", "peak-speedup"])
            .args(["--from", "2", "--to", "32", "--points", points])
            .output()
            .expect("accelctl starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--points {points}: {stderr}");
        assert!(
            stderr.contains("--points expects a whole number from 2 to 10000"),
            "--points {points}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--points {points}");
    }
}

/// A granularity CDF straight from JSON knots, unchecked.
fn cdf(points: &str) -> GranularityCdf {
    serde_json::from_str(&format!(r#"{{"points": {points}}}"#)).expect("CDF JSON parses")
}

#[test]
fn nonsense_fault_scenarios_are_rejected_before_simulating() {
    let shipped = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/faults-heavy-fallback.json"
    );
    let text = fs::read_to_string(shipped).expect("shipped scenario");
    type Mutation = fn(&mut FaultScenario);
    let cases: [(&str, Mutation); 5] = [
        ("servers", |s| {
            if let Some(offload) = s.base.offload.as_mut() {
                offload.device = DeviceKind::Shared { servers: 0 };
            }
        }),
        ("granularity", |s| s.base.workload.granularity = cdf("[]")),
        ("granularity", |s| {
            s.base.workload.granularity = cdf("[[1024.0, 0.4], [256.0, 1.0]]");
        }),
        ("cycles_per_byte", |s| {
            s.base.workload.cycles_per_byte = cycles_per_byte(-2.0);
        }),
        ("non_kernel_cycles", |s| {
            s.base.workload.non_kernel_cycles = -4_000.0;
        }),
    ];
    for (i, (field, mutate)) in cases.into_iter().enumerate() {
        let mut scenario: FaultScenario = serde_json::from_str(&text).expect("parses");
        mutate(&mut scenario);
        let path = std::env::temp_dir().join(format!("accel-bad-{}-{i}.json", std::process::id()));
        let json = serde_json::to_string(&scenario).expect("scenario serializes");
        fs::write(&path, json).expect("write scenario");
        let out = Command::new(env!("CARGO_BIN_EXE_accelctl"))
            .arg("faults")
            .arg(&path)
            .output()
            .expect("accelctl starts");
        fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{field}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid simulation config: {field} = ")),
            "{field}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{field}");
    }
}
