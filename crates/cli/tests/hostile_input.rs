//! Hostile JSON input through the real `accelctl` binary: a scenario file
//! nested far beyond the parser's depth limit must end in a structured
//! error and exit status 1, never in a stack-overflow abort.

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
