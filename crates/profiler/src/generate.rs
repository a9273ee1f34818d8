//! Synthetic trace generation: stands in for sampling a production
//! microservice under live traffic.
//!
//! Each generated sample picks a functionality (Fig. 9 marginal) and a
//! leaf category (Fig. 2 marginal) from the service's profile, draws an
//! exponential cycle weight, and derives instructions from the per-leaf
//! IPC model — so the aggregation pipeline downstream must reconstruct
//! the profile's marginals and IPCs as the sample count grows.

use accelerometer_fleet::{
    CpuGeneration, FunctionalityCategory, LeafCategory, MemoryOp, ServiceId, ServiceProfile,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::registry::FunctionRegistry;
use crate::trace::CallTrace;

/// Default per-leaf-category IPC used for services whose IPC the paper
/// does not report (Fig. 8 covers only Cache1). Values mirror the
/// paper's qualitative claims: kernel lowest, C libraries highest, all
/// below half the 4.0 peak.
#[must_use]
pub fn default_leaf_ipc(category: LeafCategory) -> f64 {
    match category {
        LeafCategory::Memory => 0.9,
        LeafCategory::Kernel => 0.4,
        LeafCategory::Hashing => 1.3,
        LeafCategory::Synchronization => 0.6,
        LeafCategory::Zstd => 1.3,
        LeafCategory::Math => 1.8,
        LeafCategory::Ssl => 1.2,
        LeafCategory::CLibraries => 1.6,
        LeafCategory::Miscellaneous => 1.0,
    }
}

/// IPC for a service's leaf category on a CPU generation: the service's
/// registry spec where it carries data (built-in Fig. 8 covers only
/// Cache1), everything else the default table.
#[must_use]
pub fn leaf_ipc(service: ServiceId, category: LeafCategory, generation: CpuGeneration) -> f64 {
    if let Some(scaling) = accelerometer_fleet::registry::leaf_ipc_scaling(service, category) {
        return scaling.for_generation(generation);
    }
    default_leaf_ipc(category)
}

/// The three intermediate frames a sample may carry, outermost first; a
/// sample of depth `d` uses the first `d`.
const LAYER_FRAMES: [&str; 3] = [
    "rpc::layer_0::dispatch",
    "rpc::layer_1::dispatch",
    "rpc::layer_2::dispatch",
];

/// A breakdown resolved for sampling: its entries in breakdown order,
/// each carrying what a sample needs once it is drawn, and the total
/// weight precomputed by the same left-to-right sum a draw would make.
#[derive(Debug)]
struct Weighted<T> {
    entries: Vec<(T, f64)>,
    total: f64,
}

impl<T> Weighted<T> {
    fn new<C>(breakdown: impl Iterator<Item = (C, f64)>, mut resolve: impl FnMut(C) -> T) -> Self {
        let entries: Vec<(T, f64)> = breakdown.map(|(c, w)| (resolve(c), w)).collect();
        let total = entries.iter().map(|(_, w)| w).sum();
        Self { entries, total }
    }

    /// Draws an entry with probability proportional to its weight.
    ///
    /// The walk subtracts each weight from the drawn point in turn. A
    /// prefix-sum table with a binary search would compare the point
    /// against rounded partial sums instead, which moves points that land
    /// within an ulp of a bucket boundary into the neighbouring bucket; the
    /// tables are at most a dozen entries long, so the walk costs little
    /// and keeps every trace bit-identical.
    fn pick(&self, rng: &mut StdRng) -> &T {
        let mut point = rng.gen_range(0.0..self.total);
        for (item, w) in &self.entries {
            if point < *w {
                return item;
            }
            point -= w;
        }
        &self.entries.last().expect("non-empty breakdown").0
    }
}

/// A leaf category resolved for sampling.
#[derive(Debug)]
struct Leaf {
    category: LeafCategory,
    /// Representative symbols, sorted; empty for Memory, whose symbol
    /// comes from the service's memory-op mix instead.
    symbols: Vec<&'static str>,
    /// The category's IPC on the generator's CPU generation.
    ipc: f64,
}

/// The synthetic sampler.
///
/// Everything a sample needs is resolved once, when the generator is
/// built: the functionality, leaf and memory-op weight tables, the sorted
/// symbol list of every leaf category and memory operation, the root frame
/// of every functionality, and the per-leaf IPC, which is read from the
/// service registry active at that moment (and re-read by
/// [`on_generation`](Self::on_generation)). Installing a different
/// registry afterwards does not affect an existing generator. A sample
/// then only draws from the RNG and indexes those tables.
#[derive(Debug)]
pub struct TraceGenerator {
    service: ServiceId,
    registry: FunctionRegistry,
    roots: Weighted<String>,
    leaves: Weighted<Leaf>,
    memory_ops: Weighted<Vec<&'static str>>,
    mean_cycles: f64,
    rng: StdRng,
}

impl TraceGenerator {
    /// Creates a deterministic generator for a service on GenC hardware.
    #[must_use]
    pub fn new(profile: ServiceProfile, seed: u64) -> Self {
        let registry = FunctionRegistry::with_defaults();
        let generation = CpuGeneration::GenC;
        let roots = Weighted::new(profile.functionality.iter(), |f: FunctionalityCategory| {
            format!("{}handle_request", registry.root_prefix(f))
        });
        let leaves = Weighted::new(profile.leaves.iter(), |category| Leaf {
            category,
            symbols: if category == LeafCategory::Memory {
                Vec::new()
            } else {
                registry.leaf_symbols(category)
            },
            ipc: leaf_ipc(profile.id, category, generation),
        });
        let memory_ops = Weighted::new(profile.memory_ops.iter(), |op: MemoryOp| {
            registry.memory_symbols(op)
        });
        Self {
            service: profile.id,
            registry,
            roots,
            leaves,
            memory_ops,
            mean_cycles: 1_000.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the CPU generation (for the IPC-scaling studies),
    /// re-reading the per-leaf IPC from the active registry.
    #[must_use]
    pub fn on_generation(mut self, generation: CpuGeneration) -> Self {
        for (leaf, _) in &mut self.leaves.entries {
            leaf.ipc = leaf_ipc(self.service, leaf.category, generation);
        }
        self
    }

    /// The registry the generator names functions from.
    #[must_use]
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Generates one sampled call trace.
    ///
    /// The RNG is consumed in a fixed order: functionality, leaf
    /// category, memory operation (Memory leaves only), symbol, depth,
    /// cycle weight.
    pub fn sample(&mut self) -> CallTrace {
        let rng = &mut self.rng;
        let root = self.roots.pick(rng);
        let leaf = self.leaves.pick(rng);
        // Memory leaves honor the service's Fig. 3 operation mix so the
        // analyzer can reconstruct the memory-op sub-breakdown; other
        // categories pick a representative symbol uniformly.
        let symbols = if leaf.category == LeafCategory::Memory {
            self.memory_ops.pick(rng)
        } else {
            &leaf.symbols
        };
        let symbol = symbols[rng.gen_range(0..symbols.len())];

        // A few plausible intermediate frames.
        let depth: usize = rng.gen_range(1..=3);
        let mut frames = Vec::with_capacity(depth + 2);
        frames.push(root.clone());
        frames.extend(LAYER_FRAMES[..depth].iter().map(|&f| f.to_owned()));
        frames.push(symbol.to_owned());

        // Exponential cycle weight; IPC model supplies instructions.
        let u: f64 = rng.gen_range(0.0..1.0);
        let cycles = -((1.0 - u).ln()) * self.mean_cycles;
        CallTrace::new(frames, cycles, cycles * leaf.ipc)
    }

    /// Generates a batch of samples.
    pub fn generate(&mut self, samples: usize) -> Vec<CallTrace> {
        (0..samples).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer_fleet::profile;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = TraceGenerator::new(profile(ServiceId::Web), 42);
        let mut b = TraceGenerator::new(profile(ServiceId::Web), 42);
        assert_eq!(a.generate(50), b.generate(50));
        let mut c = TraceGenerator::new(profile(ServiceId::Web), 43);
        assert_ne!(a.generate(50), c.generate(50));
    }

    #[test]
    fn traces_are_well_formed() {
        let mut generator = TraceGenerator::new(profile(ServiceId::Cache1), 7);
        for t in generator.generate(200) {
            assert!(t.depth() >= 3, "root + intermediate + leaf");
            assert!(t.root().starts_with("svc::"));
            assert!(t.cycles > 0.0);
            assert!(t.instructions > 0.0);
            assert!(t.ipc() < 4.0, "IPC above theoretical peak");
        }
    }

    #[test]
    fn cache1_uses_fig8_ipc() {
        assert_eq!(
            leaf_ipc(ServiceId::Cache1, LeafCategory::Kernel, CpuGeneration::GenC),
            0.38
        );
        assert_eq!(
            leaf_ipc(ServiceId::Cache1, LeafCategory::Kernel, CpuGeneration::GenA),
            0.35
        );
        // Categories Fig. 8 doesn't cover use the default table.
        assert_eq!(
            leaf_ipc(ServiceId::Cache1, LeafCategory::Math, CpuGeneration::GenC),
            default_leaf_ipc(LeafCategory::Math)
        );
        // Other services always use the default table.
        assert_eq!(
            leaf_ipc(ServiceId::Web, LeafCategory::Kernel, CpuGeneration::GenC),
            0.4
        );
    }

    #[test]
    fn default_ipc_respects_paper_ordering() {
        // Kernel is the lowest; C libraries among the highest; all below
        // half the 4.0 peak.
        for &cat in LeafCategory::ALL {
            let ipc = default_leaf_ipc(cat);
            assert!(ipc >= default_leaf_ipc(LeafCategory::Kernel));
            assert!(ipc < 2.0);
        }
    }

    #[test]
    fn generation_override() {
        let mut generator =
            TraceGenerator::new(profile(ServiceId::Cache1), 3).on_generation(CpuGeneration::GenA);
        let traces = generator.generate(100);
        assert_eq!(traces.len(), 100);
    }
}
