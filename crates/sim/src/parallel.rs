//! Deterministic parallel execution of independent simulations.
//!
//! Re-exports the workspace-wide [`ExecPool`] primitive and adds the
//! simulation-specific pieces: batch runners for [`SimConfig`] sets and
//! a seed-derivation function for replica studies.
//!
//! # Determinism
//!
//! Every simulation is fully determined by its [`SimConfig`] (which
//! carries its own RNG seed), so fanning a batch over worker threads
//! cannot change any run's result — only the wall-clock time. Batch
//! outputs always preserve input order, making `--jobs 1` and
//! `--jobs N` byte-identical.

pub use accelerometer::exec::{available_jobs, ExecPool};

use crate::engine::SimConfig;
use crate::metrics::SimMetrics;
use crate::shard::run_point;
use crate::trace::TraceStore;

/// Derives a statistically independent child seed from a root seed and
/// a job index (splitmix64 over `root ^ index·φ`), so replica studies
/// get decorrelated streams while remaining reproducible from the root.
#[must_use]
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut z = root ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs every configuration on the pool, returning metrics in input
/// order. Each worker keeps one engine alive across the jobs it pulls
/// (reset, not rebuilt, per configuration), and the whole batch routes
/// through the sharded runner instead when `--shards` is set (see
/// [`crate::shard::set_default_shards`]).
#[must_use]
pub fn run_batch(pool: &ExecPool, configs: &[SimConfig]) -> Vec<SimMetrics> {
    // Batch configs usually carry distinct seeds (replicas), where a
    // draw-once-use-once frozen trace is pure overhead — so the store
    // serves only (seed, workload) pairs that appear more than once,
    // prewarmed here; unique configs draw live.
    let store = TraceStore::prewarmed_only();
    for (i, cfg) in configs.iter().enumerate() {
        let duplicated = configs[..i]
            .iter()
            .any(|c| c.seed == cfg.seed && c.workload == cfg.workload);
        if duplicated {
            store.prewarm(cfg);
        }
    }
    let traces = (store.cached() > 0).then_some(store);
    pool.map_init(
        configs,
        || None,
        |slot, _, cfg| run_point(slot, cfg, traces.as_ref()),
    )
}

/// Runs `replicas` copies of `base` whose seeds are derived from
/// `base.seed` via [`derive_seed`], for confidence intervals over the
/// simulator's stochastic outputs.
#[must_use]
pub fn run_replicas(pool: &ExecPool, base: &SimConfig, replicas: usize) -> Vec<SimMetrics> {
    let configs: Vec<SimConfig> = (0..replicas)
        .map(|i| {
            let mut cfg = base.clone();
            cfg.seed = derive_seed(base.seed, i as u64);
            cfg
        })
        .collect();
    run_batch(pool, &configs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::workload::WorkloadSpec;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::GranularityCdf;

    fn base() -> SimConfig {
        SimConfig {
            cores: 2,
            threads: 2,
            context_switch_cycles: 0.0,
            horizon: 5e6,
            seed: 11,
            workload: WorkloadSpec {
                non_kernel_cycles: 4_000.0,
                kernels_per_request: 1,
                granularity: GranularityCdf::from_points(vec![(512.0, 1.0)]).unwrap(),
                cycles_per_byte: cycles_per_byte(2.0),
            },
            offload: None,
            fault: Default::default(),
            recovery: Default::default(),
        }
    }

    #[test]
    fn batch_results_are_independent_of_pool_width() {
        let configs: Vec<SimConfig> = (0..6)
            .map(|i| {
                let mut cfg = base();
                cfg.seed = 100 + i;
                cfg
            })
            .collect();
        let sequential = run_batch(&ExecPool::new(1), &configs);
        let parallel = run_batch(&ExecPool::new(8), &configs);
        assert_eq!(sequential, parallel);
        // And each run equals a direct invocation.
        for (cfg, m) in configs.iter().zip(&sequential) {
            assert_eq!(Simulator::new(cfg.clone()).run(), *m);
        }
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        let seeds: Vec<u64> = (0..16).map(|i| derive_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collisions in {seeds:?}");
    }

    #[test]
    fn replicas_differ_but_are_reproducible() {
        let pool = ExecPool::new(4);
        let a = run_replicas(&pool, &base(), 4);
        let b = run_replicas(&pool, &base(), 4);
        assert_eq!(a, b);
        // Distinct seeds → distinct completion counts with high
        // probability at this horizon.
        assert!(
            a.iter()
                .any(|m| m.completed_requests != a[0].completed_requests)
                || a.len() == 1
        );
    }
}
