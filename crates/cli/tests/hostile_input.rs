//! Hostile input through the real `accelctl` binary: a scenario file
//! nested far beyond the parser's depth limit, or a sample count outside
//! `characterize`'s stated bound, must end in a structured error and exit
//! status 1, never in a panic, an abort or an unbounded allocation.

use std::fs;
use std::process::Command;

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
