//! Aggregation: the downstream half of the §2.2 pipeline.
//!
//! Tags each trace's leaf, buckets each trace's root into a
//! functionality, sums cycles per category, and computes per-category
//! IPC as the ratio of aggregated instructions to aggregated cycles —
//! exactly the paper's described method ("to determine a category's IPC,
//! we determine the ratio of aggregated instruction and cycle counts for
//! functions in that category").

use std::fmt::Write as _;

use accelerometer_fleet::{Breakdown, FunctionalityCategory, LeafCategory, MemoryOp};

use crate::registry::FunctionRegistry;
use crate::trace::CallTrace;

/// The aggregated characterization of a trace sample: the profiler's
/// reconstruction of Figs. 1, 2, and 9 for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Reconstructed leaf-category breakdown (Fig. 2).
    pub leaf: Breakdown<LeafCategory>,
    /// Reconstructed functionality breakdown (Fig. 9).
    pub functionality: Breakdown<FunctionalityCategory>,
    /// Per-leaf-category IPC (aggregated instructions / cycles).
    pub leaf_ipc: Vec<(LeafCategory, f64)>,
    /// Per-functionality IPC.
    pub functionality_ipc: Vec<(FunctionalityCategory, f64)>,
    /// Reconstructed Fig. 3 sub-breakdown: each memory operation's share
    /// of *memory* cycles (empty when no memory leaves were sampled).
    pub memory_ops: Vec<(MemoryOp, f64)>,
    /// Total cycles across the sample.
    pub total_cycles: f64,
    /// Number of traces aggregated.
    pub samples: usize,
}

impl ProfileReport {
    /// The Fig. 1 split: percent of cycles in core application logic.
    #[must_use]
    pub fn core_percent(&self) -> f64 {
        self.functionality.percent_where(FunctionalityCategory::is_core)
    }

    /// The Fig. 1 split: percent of cycles in orchestration work.
    #[must_use]
    pub fn orchestration_percent(&self) -> f64 {
        100.0 - self.core_percent()
    }

    /// A memory operation's share of memory cycles (percent).
    #[must_use]
    pub fn memory_op_percent(&self, op: MemoryOp) -> f64 {
        self.memory_ops
            .iter()
            .find(|(o, _)| *o == op)
            .map_or(0.0, |(_, pct)| *pct)
    }

    /// IPC for one leaf category, if any cycles landed there.
    #[must_use]
    pub fn ipc_of(&self, category: LeafCategory) -> Option<f64> {
        self.leaf_ipc
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, ipc)| *ipc)
    }

    /// Renders the report as fixed-width text tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "samples: {}  total cycles: {:.0}", self.samples, self.total_cycles);
        let _ = writeln!(out, "-- functionality breakdown (Fig. 9) --");
        for (cat, pct) in self.functionality.iter() {
            let _ = writeln!(out, "{:<28} {:>5.1}%", cat.to_string(), pct);
        }
        let _ = writeln!(out, "-- leaf breakdown (Fig. 2) --");
        for (cat, pct) in self.leaf.iter() {
            let _ = writeln!(out, "{:<28} {:>5.1}%", cat.to_string(), pct);
        }
        let _ = writeln!(
            out,
            "core {:.1}% vs orchestration {:.1}% (Fig. 1)",
            self.core_percent(),
            self.orchestration_percent()
        );
        out
    }
}

/// Per-category `(cycles, instructions)` sums, indexed by the category's
/// position in its `ALL` list; `None` for a category no trace landed in.
type Sums<const N: usize> = [Option<(f64, f64)>; N];

fn accumulate(slot: &mut Option<(f64, f64)>, trace: &CallTrace) {
    let (cycles, instructions) = slot.get_or_insert((0.0, 0.0));
    *cycles += trace.cycles;
    *instructions += trace.instructions;
}

/// The present categories of `sums`, in `all` order, mapped by `f`.
fn emit<C: Copy, T, const N: usize>(
    all: &[C],
    sums: &Sums<N>,
    f: impl Fn(f64, f64) -> T,
) -> Vec<(C, T)> {
    all.iter()
        .zip(sums)
        .filter_map(|(&c, s)| s.map(|(cy, ins)| (c, f(cy, ins))))
        .collect()
}

/// Aggregates a trace sample into a [`ProfileReport`].
///
/// Every per-category sum is accumulated in trace order, and the memory
/// total in [`MemoryOp::ALL`] order, so the report is reproducible to the
/// last bit.
///
/// # Panics
///
/// Panics if `traces` is empty — there is nothing to characterize.
#[must_use]
pub fn analyze(traces: &[CallTrace], registry: &FunctionRegistry) -> ProfileReport {
    assert!(!traces.is_empty(), "cannot analyze an empty trace sample");
    // The category enums are fieldless and declared in `ALL` order, so a
    // category's discriminant is its index (pinned by a unit test).
    let mut leaf_sums: Sums<{ LeafCategory::ALL.len() }> = [None; LeafCategory::ALL.len()];
    let mut func_sums: Sums<{ FunctionalityCategory::ALL.len() }> =
        [None; FunctionalityCategory::ALL.len()];
    let mut memory_sums: Sums<{ MemoryOp::ALL.len() }> = [None; MemoryOp::ALL.len()];
    let mut total_cycles = 0.0;

    for trace in traces {
        accumulate(&mut leaf_sums[registry.tag_leaf(trace.leaf()) as usize], trace);
        accumulate(&mut func_sums[registry.bucket_root(trace.root()) as usize], trace);
        if let Some(op) = registry.tag_memory_op(trace.leaf()) {
            accumulate(&mut memory_sums[op as usize], trace);
        }
        total_cycles += trace.cycles;
    }

    let share = |cy: f64, _| 100.0 * cy / total_cycles;
    let ipc = |cy: f64, ins: f64| ins / cy;
    let memory_total: f64 = memory_sums.iter().flatten().map(|(cy, _)| cy).sum();
    let memory_ops = if memory_total > 0.0 {
        emit(MemoryOp::ALL, &memory_sums, |cy, _| 100.0 * cy / memory_total)
    } else {
        Vec::new()
    };

    ProfileReport {
        leaf: Breakdown::complete(emit(LeafCategory::ALL, &leaf_sums, share))
            .expect("cycle shares sum to 100"),
        functionality: Breakdown::complete(emit(FunctionalityCategory::ALL, &func_sums, share))
            .expect("cycle shares sum to 100"),
        leaf_ipc: emit(LeafCategory::ALL, &leaf_sums, ipc),
        functionality_ipc: emit(FunctionalityCategory::ALL, &func_sums, ipc),
        memory_ops,
        total_cycles,
        samples: traces.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> FunctionRegistry {
        FunctionRegistry::with_defaults()
    }

    fn trace(root: &str, leaf: &str, cycles: f64, ipc: f64) -> CallTrace {
        CallTrace::new(
            vec![root.to_owned(), "mid".to_owned(), leaf.to_owned()],
            cycles,
            cycles * ipc,
        )
    }

    #[test]
    fn aggregates_cycles_by_category() {
        let traces = vec![
            trace("svc::io::send", "memcpy", 600.0, 0.9),
            trace("svc::app::serve", "std::sort", 300.0, 1.6),
            trace("svc::app::serve", "memcpy", 100.0, 0.9),
        ];
        let report = analyze(&traces, &registry());
        assert_eq!(report.samples, 3);
        assert_eq!(report.total_cycles, 1000.0);
        assert_eq!(report.leaf.percent(LeafCategory::Memory), 70.0);
        assert_eq!(report.leaf.percent(LeafCategory::CLibraries), 30.0);
        assert_eq!(
            report.functionality.percent(FunctionalityCategory::SecureInsecureIo),
            60.0
        );
        assert_eq!(
            report.functionality.percent(FunctionalityCategory::ApplicationLogic),
            40.0
        );
    }

    #[test]
    fn ipc_is_aggregate_ratio_not_mean_of_ratios() {
        // Two memory traces with different IPCs: the category IPC must be
        // Σinstr/Σcycles, weighted by cycles.
        let traces = vec![
            trace("svc::app::x", "memcpy", 900.0, 1.0),
            trace("svc::app::x", "memset", 100.0, 0.0),
        ];
        let report = analyze(&traces, &registry());
        let ipc = report.ipc_of(LeafCategory::Memory).unwrap();
        assert!((ipc - 0.9).abs() < 1e-12);
        assert!(report.ipc_of(LeafCategory::Ssl).is_none());
    }

    #[test]
    fn memory_op_sub_breakdown() {
        let traces = vec![
            trace("svc::app::x", "memcpy", 540.0, 1.0),
            trace("svc::app::x", "free", 180.0, 1.0),
            trace("svc::app::x", "malloc", 210.0, 1.0),
            trace("svc::app::x", "memset", 70.0, 1.0),
            trace("svc::io::y", "tcp_sendmsg", 1_000.0, 0.4),
        ];
        let report = analyze(&traces, &registry());
        // Shares are of *memory* cycles (1,000 total), not total cycles.
        assert!((report.memory_op_percent(MemoryOp::Copy) - 54.0).abs() < 1e-9);
        assert!((report.memory_op_percent(MemoryOp::Free) - 18.0).abs() < 1e-9);
        assert!((report.memory_op_percent(MemoryOp::Allocation) - 21.0).abs() < 1e-9);
        assert!((report.memory_op_percent(MemoryOp::Set) - 7.0).abs() < 1e-9);
        assert_eq!(report.memory_op_percent(MemoryOp::Move), 0.0);
        // No memory samples → empty sub-breakdown.
        let io_only = analyze(&[trace("svc::io::y", "tcp_sendmsg", 10.0, 0.4)], &registry());
        assert!(io_only.memory_ops.is_empty());
    }

    #[test]
    fn memory_op_shares_are_summed_in_all_order() {
        // Per-op cycles whose f64 total depends on the summation order.
        let cycles = [
            ("memcpy", 651.6),
            ("free", 788.7),
            ("malloc", 93.9),
            ("memmove", 28.3),
            ("memset", 835.8),
            ("memcmp", 432.8),
        ];
        let traces: Vec<CallTrace> = cycles
            .iter()
            .map(|&(leaf, cy)| trace("svc::app::x", leaf, cy, 1.0))
            .collect();
        let report = analyze(&traces, &registry());

        let per_op: Vec<(MemoryOp, f64)> = MemoryOp::ALL
            .iter()
            .map(|&op| {
                let cy = cycles
                    .iter()
                    .find(|(leaf, _)| registry().tag_memory_op(leaf) == Some(op))
                    .unwrap()
                    .1;
                (op, cy)
            })
            .collect();
        let mut total = 0.0;
        for (_, cy) in &per_op {
            total += cy;
        }
        let reversed: f64 = per_op.iter().rev().map(|(_, cy)| cy).sum();
        assert_ne!(total.to_bits(), reversed.to_bits(), "order must matter here");
        assert_eq!(report.memory_ops.len(), MemoryOp::ALL.len());
        for ((op, pct), (want_op, cy)) in report.memory_ops.iter().zip(&per_op) {
            assert_eq!(op, want_op);
            assert_eq!(pct.to_bits(), (100.0 * cy / total).to_bits(), "{op:?}");
        }
    }

    #[test]
    fn category_discriminants_index_their_all_lists() {
        for (i, &c) in LeafCategory::ALL.iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        for (i, &c) in FunctionalityCategory::ALL.iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        for (i, &c) in MemoryOp::ALL.iter().enumerate() {
            assert_eq!(c as usize, i);
        }
    }

    #[test]
    fn core_vs_orchestration_split() {
        let traces = vec![
            trace("svc::app::serve", "std::sort", 18.0, 1.0),
            trace("svc::log::update", "memcpy", 23.0, 1.0),
            trace("svc::io::send", "tcp_sendmsg", 59.0, 1.0),
        ];
        let report = analyze(&traces, &registry());
        assert!((report.core_percent() - 18.0).abs() < 1e-9);
        assert!((report.orchestration_percent() - 82.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_symbols_become_miscellaneous() {
        let traces = vec![trace("main", "mystery_fn", 100.0, 1.0)];
        let report = analyze(&traces, &registry());
        assert_eq!(report.leaf.percent(LeafCategory::Miscellaneous), 100.0);
        assert_eq!(
            report.functionality.percent(FunctionalityCategory::Miscellaneous),
            100.0
        );
    }

    #[test]
    fn render_is_human_readable() {
        let traces = vec![trace("svc::app::serve", "memcpy", 100.0, 1.0)];
        let text = analyze(&traces, &registry()).render();
        assert!(text.contains("functionality breakdown"));
        assert!(text.contains("Memory"));
        assert!(text.contains("core"));
    }

    #[test]
    #[should_panic(expected = "empty trace sample")]
    fn empty_sample_panics() {
        let _ = analyze(&[], &registry());
    }
}
