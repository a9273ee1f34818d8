//! A/B testing: the paper's production measurement methodology (§4),
//! reproduced in simulation.
//!
//! "A/B testing is the process of comparing two identical systems that
//! differ only in a single variable" — here, two simulator configurations
//! identical except for whether the kernel is offloaded. The measured
//! throughput ratio is the experiment's "real speedup".

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::engine::{OffloadConfig, SimConfig, Simulator};
use crate::metrics::SimMetrics;
use crate::trace::FrozenTrace;

/// The outcome of an A/B comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbResult {
    /// Metrics of the unaccelerated control run.
    pub baseline: SimMetrics,
    /// Metrics of the accelerated treatment run.
    pub treatment: SimMetrics,
}

impl AbResult {
    /// Measured throughput speedup (treatment / baseline).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.treatment.speedup_over(&self.baseline)
    }

    /// Measured throughput gain in percent.
    #[must_use]
    pub fn speedup_percent(&self) -> f64 {
        (self.speedup() - 1.0) * 100.0
    }

    /// Measured mean-latency reduction (baseline / treatment).
    #[must_use]
    pub fn latency_reduction(&self) -> f64 {
        self.treatment.latency_reduction_over(&self.baseline)
    }

    /// Measured p99-latency ratio (baseline / treatment) — the SLO view.
    #[must_use]
    pub fn p99_latency_reduction(&self) -> f64 {
        self.baseline.latency.p99 / self.treatment.latency.p99
    }
}

/// Runs the A/B experiment: `control` unaccelerated versus `control`
/// plus `offload`. The two runs share every other parameter including
/// the seed, and execute on separate OS threads.
///
/// # Panics
///
/// Panics if `control` already carries an offload configuration — the
/// control arm must be the unaccelerated system.
#[must_use]
pub fn run_ab(control: &SimConfig, offload: OffloadConfig) -> AbResult {
    assert!(
        control.offload.is_none(),
        "the control arm must be unaccelerated"
    );
    let mut treatment_cfg = control.clone();
    treatment_cfg.offload = Some(offload);
    // Both arms share the seed and workload by construction, so one
    // frozen trace (sized for the faster treatment arm) serves both —
    // the experiment's stochastic input is sampled once, not twice.
    let trace = Some(Arc::new(FrozenTrace::for_config(&treatment_cfg)));
    let (baseline, treatment) = std::thread::scope(|scope| {
        let base_trace = trace.clone();
        let base = scope.spawn(move || {
            Simulator::try_new_with_trace(control.clone(), base_trace)
                .unwrap_or_else(|err| panic!("{err}"))
                .run()
        });
        let treat = scope.spawn(move || {
            Simulator::try_new_with_trace(treatment_cfg, trace)
                .unwrap_or_else(|err| panic!("{err}"))
                .run()
        });
        (
            base.join().expect("baseline run does not panic"),
            treat.join().expect("treatment run does not panic"),
        )
    });
    AbResult {
        baseline,
        treatment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::GranularityCdf;

    fn control() -> SimConfig {
        SimConfig {
            cores: 2,
            threads: 2,
            context_switch_cycles: 0.0,
            horizon: 2e7,
            seed: 5,
            workload: WorkloadSpec {
                non_kernel_cycles: 4_000.0,
                kernels_per_request: 1,
                granularity: GranularityCdf::from_points(vec![(512.0, 1.0)]).unwrap(),
                cycles_per_byte: cycles_per_byte(4.0),
            },
            offload: None,
            fault: Default::default(),
            recovery: Default::default(),
        }
    }

    #[test]
    fn ab_measures_positive_speedup_for_cheap_acceleration() {
        let result = run_ab(&control(), OffloadConfig::on_chip_sync(8.0));
        assert!(result.speedup() > 1.1, "speedup {}", result.speedup());
        assert!(result.speedup_percent() > 10.0);
        assert!(result.latency_reduction() > 1.0);
        assert!(result.p99_latency_reduction() > 1.0);
    }

    #[test]
    fn ab_detects_harmful_acceleration() {
        // An offload whose overheads exceed the saved cycles slows the
        // service down; the A/B harness must report a speedup below 1.
        let mut offload = OffloadConfig::on_chip_sync(1.1);
        offload.setup_cycles = 5_000.0;
        let result = run_ab(&control(), offload);
        assert!(result.speedup() < 1.0, "speedup {}", result.speedup());
    }

    #[test]
    #[should_panic(expected = "control arm must be unaccelerated")]
    fn rejects_accelerated_control() {
        let mut cfg = control();
        cfg.offload = Some(OffloadConfig::on_chip_sync(2.0));
        let _ = run_ab(&cfg, OffloadConfig::on_chip_sync(2.0));
    }
}
