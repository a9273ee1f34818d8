//! The three workloads. Each one generates its inputs from the
//! benchmark seed, drives the user-facing `accelctl` commands, checks
//! their output, and, in a traced run, re-issues the public calls those
//! commands hide.

mod fault_long;
mod profile_kernels;
mod table6;

use crate::{Options, Workload, WORKLOADS};

pub(crate) fn build(opts: &Options) -> Result<Box<dyn Workload>, String> {
    match opts.workload.as_str() {
        "fault-long" => Ok(Box::new(fault_long::FaultLong::new(opts)?)),
        "table6" => Ok(Box::new(table6::Table6::new(opts))),
        "profile-kernels" => Ok(Box::new(profile_kernels::ProfileKernels::new(opts)?)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The number after `key` among `line`'s whitespace-separated tokens,
/// with a trailing `%` removed.
pub(crate) fn field(line: &str, key: &str) -> Result<f64, String> {
    let mut tokens = line.split_whitespace();
    tokens
        .by_ref()
        .find(|t| *t == key)
        .ok_or_else(|| format!("no '{key}' in line '{line}'"))?;
    let token = tokens
        .next()
        .ok_or_else(|| format!("nothing after '{key}' in line '{line}'"))?;
    token
        .trim_end_matches('%')
        .parse()
        .map_err(|_| format!("'{token}' after '{key}' is not a number"))
}

/// Compares a traced call's output with the reference slice it must
/// repeat.
pub(crate) fn same(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what} output differs from the reference iteration"
        ))
    }
}

/// Whether a utilization stays within capacity (false for NaN).
pub(crate) fn within_capacity(utilization: f64) -> bool {
    utilization <= 1.0 + 1e-9
}
