//! Frozen traces: request draws hoisted out of the event loop.
//!
//! The engine consumes its workload RNG stream only through request
//! draws, and the i-th request drawn is always the i-th block of that
//! stream regardless of cores, threads, offload design, or fault plan
//! (fault RNG is a separate derived stream). Draws can therefore be made
//! once, ahead of the run, and shared by every run of a sweep that has
//! the same seed and workload, without changing a single output byte.
//!
//! A [`FrozenTrace`] (per seed × workload, behind `Arc`) stores *raw
//! draws*, not work items: per request, the fixed stride of
//! `kernels_per_request + 1` `f64`s that [`RequestSampler::draw_raw`]
//! writes (the host chunk, then one byte count per kernel), plus the RNG
//! state *after* the prefix. The engine expands request `i` with
//! [`RequestSampler::expand`] straight into the thread's item buffer
//! when it begins the request. A raw request costs `8·(k + 1)` bytes
//! against `24·(2k + 1)` for its expanded `WorkItem`s plus an offset per
//! request, so a one-kernel trace shrinks from 80 to 16 bytes per
//! request.
//!
//! Sweep runners draw a trace once and install it at every grid point
//! that shares the seed and workload (only offload / policy / fault
//! parameters differ), turning O(points × draws) sampling into O(draws)
//! per sweep. A run without a trace, or one that outlives the prefix,
//! draws each request live with the same `draw_raw` + `expand` pair —
//! from the continuation RNG state in the second case, so it is
//! bit-identical to never having had the trace and the prefix length is
//! a pure performance knob.
//!
//! [`RequestSampler::draw_raw`]: crate::workload::RequestSampler::draw_raw
//! [`RequestSampler::expand`]: crate::workload::RequestSampler::expand

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::SimConfig;
use crate::workload::WorkloadSpec;

/// Upper bound on a frozen trace's request count. Each request holds
/// `8·(k + 1)` bytes for `k = kernels_per_request`, so a full trace is
/// 16 MB at the typical one kernel per request. Runs that need more fall
/// back to live drawing after the prefix — correct, just less
/// amortized.
const MAX_TRACE_REQUESTS: usize = 1 << 20;

/// An immutable pre-drawn request trace for one (seed, workload) pair,
/// shared across sweep grid points behind an `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenTrace {
    seed: u64,
    workload: WorkloadSpec,
    /// Raw draws, [`stride`](Self::stride) `f64`s per request.
    raw: Vec<f64>,
    /// The RNG state after drawing the prefix: a run that consumes more
    /// requests than the trace holds continues live drawing from here,
    /// bit-identical to a run that never had the trace.
    resume_rng: StdRng,
}

impl FrozenTrace {
    /// Draws a trace of `requests` requests for `(seed, workload)` —
    /// the first `requests` blocks of the engine RNG stream that
    /// `StdRng::seed_from_u64(seed)` produces.
    #[must_use]
    pub fn draw(seed: u64, workload: &WorkloadSpec, requests: usize) -> Self {
        let sampler = workload.sampler();
        let mut rng = StdRng::seed_from_u64(seed);
        let requests = requests.min(MAX_TRACE_REQUESTS);
        let mut raw = Vec::with_capacity(requests * sampler.raw_stride());
        for _ in 0..requests {
            sampler.draw_raw(&mut rng, &mut raw);
        }
        Self {
            seed,
            workload: workload.clone(),
            raw,
            resume_rng: rng,
        }
    }

    /// Draws a trace sized for `cfg`: the expected request consumption
    /// of the run (cores × horizon / mean request cycles, scaled by the
    /// Amdahl ceiling when an offload could raise throughput) plus
    /// margin for in-flight requests. Underestimates only cost the
    /// continuation draws; overestimates only cost memory and the
    /// one-time draw.
    #[must_use]
    pub fn for_config(cfg: &SimConfig) -> Self {
        Self::draw(cfg.seed, &cfg.workload, Self::estimated_requests(cfg))
    }

    fn estimated_requests(cfg: &SimConfig) -> usize {
        let mean = cfg.workload.mean_request_cycles().max(1.0);
        let per_core = cfg.horizon / mean;
        let speedup_cap = cfg.offload.as_ref().map_or(1.0, |o| {
            let alpha = cfg.workload.expected_alpha();
            let a = o.peak_speedup.max(1.0);
            1.0 / ((1.0 - alpha) + alpha / a)
        });
        let est = (cfg.cores as f64) * per_core * speedup_cap * 1.3;
        // `as usize` saturates (NaN → 0) on degenerate workloads; the
        // continuation path keeps those correct.
        (est as usize).saturating_add(2 * cfg.threads + 16)
    }

    /// Whether this trace was drawn from `cfg`'s seed and workload —
    /// the precondition for installing it into an engine.
    #[must_use]
    pub fn matches(&self, cfg: &SimConfig) -> bool {
        self.seed == cfg.seed && self.workload == cfg.workload
    }

    /// The seed the trace was drawn from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `f64`s one request occupies: `kernels_per_request + 1`, as
    /// in [`crate::workload::RequestSampler::raw_stride`].
    fn stride(&self) -> usize {
        self.workload.kernels_per_request + 1
    }

    /// Number of pre-drawn requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len() / self.stride()
    }

    /// Whether the trace holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Heap bytes held by the pre-drawn prefix: exactly
    /// `len × (kernels_per_request + 1)` `f64`s, with no growth slack.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.raw.capacity() * std::mem::size_of::<f64>()
    }

    /// The `i`-th pre-drawn request's raw draw, as
    /// `RequestSampler::draw_raw` wrote it; expand it with
    /// [`crate::workload::RequestSampler::expand`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn request(&self, i: usize) -> &[f64] {
        let stride = self.stride();
        &self.raw[i * stride..(i + 1) * stride]
    }

    /// The RNG state after the prefix, for the live-drawing
    /// continuation.
    #[must_use]
    pub fn resume_rng(&self) -> &StdRng {
        &self.resume_rng
    }
}

/// A per-sweep cache of [`FrozenTrace`]s keyed by (seed, workload).
///
/// Sweep runners create one store per sweep and pass it to every grid
/// point; shard engines look up their derived seeds here too, so a
/// sharded 8-point sweep draws each shard's trace once instead of eight
/// times. Lookups that miss either draw-and-cache (eager stores, used
/// by sweeps whose points all share the base seed) or return `None`
/// (prewarmed-only stores, used by batch runners where most configs are
/// unique and a draw-once-use-once trace would be pure overhead).
#[derive(Debug)]
pub struct TraceStore {
    draw_on_miss: bool,
    inner: Mutex<Vec<Arc<FrozenTrace>>>,
}

impl TraceStore {
    /// A store that draws and caches a trace on every miss.
    #[must_use]
    pub fn eager() -> Self {
        Self {
            draw_on_miss: true,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// A store that only serves traces drawn via [`prewarm`]
    /// (misses return `None`).
    ///
    /// [`prewarm`]: TraceStore::prewarm
    #[must_use]
    pub fn prewarmed_only() -> Self {
        Self {
            draw_on_miss: false,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Draws and caches the trace for `cfg` (no-op if already cached).
    /// Sweep frontends call this on the base config before fanning out
    /// so the trace length does not depend on which worker gets there
    /// first.
    pub fn prewarm(&self, cfg: &SimConfig) {
        let mut traces = self.inner.lock().expect("trace store poisoned");
        if !traces.iter().any(|t| t.matches(cfg)) {
            traces.push(Arc::new(FrozenTrace::draw(
                cfg.seed,
                &cfg.workload,
                FrozenTrace::estimated_requests(cfg),
            )));
        }
    }

    /// The cached trace for `cfg`'s (seed, workload), drawing it on a
    /// miss when the store is eager. The draw happens under the store
    /// lock so concurrent workers block briefly instead of drawing
    /// twice; trace content depends only on (seed, workload), so which
    /// worker draws is unobservable.
    #[must_use]
    pub fn get(&self, cfg: &SimConfig) -> Option<Arc<FrozenTrace>> {
        let mut traces = self.inner.lock().expect("trace store poisoned");
        if let Some(t) = traces.iter().find(|t| t.matches(cfg)) {
            return Some(Arc::clone(t));
        }
        if !self.draw_on_miss {
            return None;
        }
        let trace = Arc::new(FrozenTrace::for_config(cfg));
        traces.push(Arc::clone(&trace));
        Some(trace)
    }

    /// Number of distinct traces currently cached.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::GranularityCdf;
    use crate::fault::{FaultPlan, RecoveryPolicy};

    fn workload(kernels: usize) -> WorkloadSpec {
        WorkloadSpec {
            non_kernel_cycles: 3_000.0,
            kernels_per_request: kernels,
            granularity: GranularityCdf::from_points(vec![(256.0, 0.4), (1_024.0, 1.0)]).unwrap(),
            cycles_per_byte: cycles_per_byte(2.0),
        }
    }

    fn config() -> SimConfig {
        SimConfig {
            cores: 2,
            threads: 4,
            context_switch_cycles: 200.0,
            horizon: 1e6,
            seed: 99,
            workload: workload(1),
            offload: None,
            fault: FaultPlan::none(),
            recovery: RecoveryPolicy::none(),
        }
    }

    /// The defining property of a frozen trace: request i equals the
    /// i-th direct draw, and the resume RNG equals the direct RNG after
    /// those draws — so continuation draws line up too.
    #[test]
    fn trace_prefix_and_resume_rng_match_direct_drawing() {
        let spec = workload(2);
        let trace = FrozenTrace::draw(77, &spec, 40);
        assert_eq!(trace.len(), 40);
        let sampler = spec.sampler();
        let mut rng = StdRng::seed_from_u64(77);
        let mut items = Vec::new();
        for i in 0..trace.len() {
            items.clear();
            sampler.expand(trace.request(i), &mut items);
            assert_eq!(spec.draw_request(&mut rng), items);
        }
        assert_eq!(&rng, trace.resume_rng());
    }

    #[test]
    fn trace_matches_checks_seed_and_workload() {
        let cfg = config();
        let trace = FrozenTrace::for_config(&cfg);
        assert!(trace.matches(&cfg));
        assert!(!trace.is_empty());
        let mut other_seed = cfg.clone();
        other_seed.seed = 100;
        assert!(!trace.matches(&other_seed));
        let mut other_workload = cfg.clone();
        other_workload.workload.non_kernel_cycles = 1.0;
        assert!(!trace.matches(&other_workload));
        // Offload / fault / policy changes keep the trace valid.
        let mut offloaded = cfg;
        offloaded.offload = Some(crate::engine::OffloadConfig::on_chip_sync(4.0));
        assert!(trace.matches(&offloaded));
    }

    #[test]
    fn estimate_covers_expected_consumption() {
        let cfg = config();
        let est = FrozenTrace::estimated_requests(&cfg);
        // cores × horizon / mean ≈ 2 × 1e6 / ~4280 ≈ 467; margin on top.
        let expected = cfg.cores as f64 * cfg.horizon / cfg.workload.mean_request_cycles();
        assert!(est as f64 >= expected, "{est} < {expected}");
        assert!(est < 10 * expected as usize + 1_000, "gross overdraw: {est}");
    }

    #[test]
    fn eager_store_draws_once_per_seed_workload() {
        let store = TraceStore::eager();
        let cfg = config();
        let a = store.get(&cfg).expect("eager store draws");
        let b = store.get(&cfg).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let mut other = config();
        other.seed = 1234;
        let c = store.get(&other).expect("eager store draws");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.cached(), 2);
    }

    #[test]
    fn prewarmed_only_store_never_draws_on_miss() {
        let store = TraceStore::prewarmed_only();
        let cfg = config();
        assert!(store.get(&cfg).is_none());
        store.prewarm(&cfg);
        store.prewarm(&cfg); // idempotent
        assert_eq!(store.cached(), 1);
        let t = store.get(&cfg).expect("prewarmed trace is served");
        assert!(t.matches(&cfg));
    }
}
