//! Workload specification: what one request costs the host.
//!
//! A request alternates host work with kernel invocations whose
//! granularity follows the service's measured CDF — the per-request view
//! of the aggregate `C`, `α`, and `n` parameters the analytical model
//! works with.

use accelerometer::units::CyclesPerByte;
use accelerometer::{GranularityCdf, GranularitySampler};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One unit of work inside a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkItem {
    /// Non-kernel host work, in cycles.
    Host(f64),
    /// A kernel invocation on `g` bytes (offloadable).
    Kernel {
        /// The invocation's granularity in bytes.
        bytes: f64,
    },
    /// Host re-execution of a failed offload (fallback-to-host). Never
    /// appears in sampled requests — the engine injects it at fault
    /// detection time so the re-execution competes for the core like any
    /// other host slice.
    Fallback {
        /// Slab index of the request being recovered.
        request: usize,
        /// Host cycles the re-execution costs.
        cycles: f64,
    },
}

/// The statistical shape of requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Mean non-kernel cycles per request (exponentially distributed).
    pub non_kernel_cycles: f64,
    /// Kernel invocations per request.
    pub kernels_per_request: usize,
    /// Kernel granularity distribution.
    pub granularity: GranularityCdf,
    /// Host cycles per kernel byte (`Cb`).
    pub cycles_per_byte: CyclesPerByte,
}

impl WorkloadSpec {
    /// Mean host cycles one request costs without acceleration.
    #[must_use]
    pub fn mean_request_cycles(&self) -> f64 {
        self.non_kernel_cycles
            + self.kernels_per_request as f64
                * self.cycles_per_byte.get()
                * self.granularity.mean_bytes().get()
    }

    /// The kernel's expected share of host cycles (the `α` this workload
    /// realizes).
    #[must_use]
    pub fn expected_alpha(&self) -> f64 {
        let kernel = self.kernels_per_request as f64
            * self.cycles_per_byte.get()
            * self.granularity.mean_bytes().get();
        kernel / (kernel + self.non_kernel_cycles)
    }

    /// Draws one request's work items. Host work is split around the
    /// kernel invocations so offloads interleave with useful work, which
    /// is what lets asynchronous designs overlap.
    ///
    /// Implemented on top of [`RequestSampler::draw_append`] (the
    /// inverse-CDF sampler is proven bit-identical to the linear-scan
    /// quantile), so there is exactly one copy of the host-cycles/`ln`
    /// draw logic. Convenient for one-off draws; repeated draws should
    /// build the sampler once via [`WorkloadSpec::sampler`].
    #[must_use]
    pub fn draw_request(&self, rng: &mut StdRng) -> Vec<WorkItem> {
        let mut items = Vec::with_capacity(2 * self.kernels_per_request + 1);
        self.sampler().draw_append(rng, &mut items);
        items
    }

    /// Builds a [`RequestSampler`] for repeated draws: the granularity
    /// inverse-CDF is precomputed once, and raw draws can be written into
    /// a reusable buffer instead of a fresh `Vec` each time.
    #[must_use]
    pub fn sampler(&self) -> RequestSampler {
        RequestSampler {
            non_kernel_cycles: self.non_kernel_cycles,
            kernels_per_request: self.kernels_per_request,
            quantile: self.granularity.sampler(),
        }
    }

    /// Host cycles to execute a kernel invocation locally.
    #[must_use]
    pub fn kernel_host_cycles(&self, bytes: f64) -> f64 {
        self.cycles_per_byte.get() * bytes
    }
}

/// A request generator precomputed from a [`WorkloadSpec`] for the
/// simulator's hot path.
///
/// Consumes the RNG in exactly the order [`WorkloadSpec::draw_request`]
/// does — one uniform for the request's host total, then one per kernel
/// granularity — so simulations driven through either path see the same
/// random stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSampler {
    non_kernel_cycles: f64,
    kernels_per_request: usize,
    quantile: GranularitySampler,
}

impl RequestSampler {
    /// Number of `f64`s one request's raw draw occupies: the host chunk,
    /// then one byte count per kernel.
    #[must_use]
    pub fn raw_stride(&self) -> usize {
        self.kernels_per_request + 1
    }

    /// Draws one request's work items, appending to `out` without
    /// clearing: [`draw_raw`](Self::draw_raw) then
    /// [`expand`](Self::expand). Allocates a raw scratch buffer per call;
    /// repeated draws go through `draw_raw` into a reused buffer.
    pub fn draw_append(&self, rng: &mut StdRng, out: &mut Vec<WorkItem>) {
        let mut raw = Vec::with_capacity(self.raw_stride());
        self.draw_raw(rng, &mut raw);
        self.expand(&raw, out);
    }

    /// Draws one request's raw values, appending exactly
    /// [`raw_stride`](Self::raw_stride) `f64`s to `out`: the host chunk
    /// (the exponential host total split into `kernels_per_request + 1`
    /// equal chunks), then one granularity in bytes per kernel. This is
    /// the single copy of the draw logic: one uniform for the host
    /// total, then one uniform per kernel, in that order.
    pub fn draw_raw(&self, rng: &mut StdRng, out: &mut Vec<f64>) {
        let u: f64 = rng.gen_range(0.0..1.0);
        let host_total = -((1.0 - u).ln()) * self.non_kernel_cycles;
        out.push(host_total / self.raw_stride() as f64);
        for _ in 0..self.kernels_per_request {
            out.push(self.quantile.quantile(rng.gen_range(0.0..1.0)).get());
        }
    }

    /// Expands one request's raw draw (as written by
    /// [`draw_raw`](Self::draw_raw)) into work items, appending to `out`:
    /// host chunks surround the kernels, a non-positive chunk is
    /// omitted, and a request that would otherwise be empty becomes
    /// `Host(1.0)`.
    pub fn expand(&self, raw: &[f64], out: &mut Vec<WorkItem>) {
        debug_assert_eq!(raw.len(), self.raw_stride());
        let start = out.len();
        let (&host_chunk, kernels) = raw.split_first().expect("a raw draw is never empty");
        for &bytes in kernels {
            if host_chunk > 0.0 {
                out.push(WorkItem::Host(host_chunk));
            }
            out.push(WorkItem::Kernel { bytes });
        }
        if host_chunk > 0.0 {
            out.push(WorkItem::Host(host_chunk));
        }
        if out.len() == start {
            out.push(WorkItem::Host(1.0));
        }
    }
}

/// Builds a workload whose aggregate statistics realize the model
/// parameters (`C`, `α`, `n`) of a Table 6/7 row: `n` offloads and
/// `α·C` kernel cycles per `C` host cycles, one kernel per request.
///
/// # Panics
///
/// Panics if the parameters are inconsistent (`alpha >= 1` or
/// non-positive inputs).
#[must_use]
pub fn workload_for_params(
    host_cycles: f64,
    alpha: f64,
    offloads: f64,
    granularity: GranularityCdf,
) -> WorkloadSpec {
    assert!(host_cycles > 0.0 && offloads > 0.0 && alpha > 0.0 && alpha < 1.0);
    let kernel_cycles_per_offload = alpha * host_cycles / offloads;
    let mean_bytes = granularity.mean_bytes().get();
    let cycles_per_byte = CyclesPerByte::new(kernel_cycles_per_offload / mean_bytes);
    let non_kernel_cycles = (1.0 - alpha) * host_cycles / offloads;
    WorkloadSpec {
        non_kernel_cycles,
        kernels_per_request: 1,
        granularity,
        cycles_per_byte,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cdf() -> GranularityCdf {
        GranularityCdf::from_points(vec![(256.0, 0.5), (1024.0, 1.0)]).unwrap()
    }

    #[test]
    fn mean_and_alpha_are_consistent() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 5_000.0,
            kernels_per_request: 2,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(2.0),
        };
        let mean_kernel = 2.0 * 2.0 * spec.granularity.mean_bytes().get();
        assert!((spec.mean_request_cycles() - (5_000.0 + mean_kernel)).abs() < 1e-9);
        let alpha = spec.expected_alpha();
        assert!((alpha - mean_kernel / (5_000.0 + mean_kernel)).abs() < 1e-12);
    }

    #[test]
    fn draw_request_interleaves_kernels_with_host_work() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 1_000.0,
            kernels_per_request: 3,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.0),
        };
        let mut rng = StdRng::seed_from_u64(1);
        let items = spec.draw_request(&mut rng);
        let kernels = items
            .iter()
            .filter(|i| matches!(i, WorkItem::Kernel { .. }))
            .count();
        assert_eq!(kernels, 3);
        // Host chunks surround the kernels.
        assert!(matches!(items[0], WorkItem::Host(_)));
        assert!(matches!(items.last().unwrap(), WorkItem::Host(_)));
    }

    #[test]
    fn drawn_statistics_converge() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 2_000.0,
            kernels_per_request: 1,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.5),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut host = 0.0;
        let mut kernel = 0.0;
        let draws = 40_000;
        for _ in 0..draws {
            for item in spec.draw_request(&mut rng) {
                match item {
                    WorkItem::Host(c) => host += c,
                    WorkItem::Kernel { bytes } => kernel += spec.kernel_host_cycles(bytes),
                    WorkItem::Fallback { .. } => {
                        unreachable!("fallback items are engine-injected, never sampled")
                    }
                }
            }
        }
        let alpha = kernel / (kernel + host);
        assert!(
            (alpha - spec.expected_alpha()).abs() < 0.01,
            "alpha {alpha} vs {}",
            spec.expected_alpha()
        );
        let mean = (host + kernel) / f64::from(draws);
        assert!((mean / spec.mean_request_cycles() - 1.0).abs() < 0.02);
    }

    #[test]
    fn workload_for_params_realizes_model_inputs() {
        // Feed1 compression: C = 2.3e9, α = 0.15, n = 15,008.
        let spec = workload_for_params(2.3e9, 0.15, 15_008.0, cdf());
        assert!((spec.expected_alpha() - 0.15).abs() < 1e-9);
        // Requests per C cycles = offloads (one kernel per request).
        let requests = 2.3e9 / spec.mean_request_cycles();
        assert!((requests - 15_008.0).abs() / 15_008.0 < 1e-9);
    }

    #[test]
    #[should_panic]
    fn workload_for_params_rejects_alpha_one() {
        let _ = workload_for_params(1e9, 1.0, 10.0, cdf());
    }

    #[test]
    fn zero_kernel_workload_still_produces_an_item() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 0.0,
            kernels_per_request: 0,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.0),
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!spec.draw_request(&mut rng).is_empty());
    }

    /// The historical allocating draw path, kept verbatim as the test
    /// reference: linear-scan CDF quantile, fresh `Vec` per request.
    /// `draw_request` is now a thin wrapper over the sampler, so this is
    /// what pins both paths to the original RNG consumption order.
    fn reference_draw(spec: &WorkloadSpec, rng: &mut StdRng) -> Vec<WorkItem> {
        let u: f64 = rng.gen_range(0.0..1.0);
        let host_total = -((1.0 - u).ln()) * spec.non_kernel_cycles;
        let chunks = spec.kernels_per_request + 1;
        let host_chunk = host_total / chunks as f64;
        let mut items = Vec::with_capacity(2 * spec.kernels_per_request + 1);
        for _ in 0..spec.kernels_per_request {
            if host_chunk > 0.0 {
                items.push(WorkItem::Host(host_chunk));
            }
            let bytes = spec.granularity.quantile(rng.gen_range(0.0..1.0)).get();
            items.push(WorkItem::Kernel { bytes });
        }
        if host_chunk > 0.0 {
            items.push(WorkItem::Host(host_chunk));
        }
        if items.is_empty() {
            items.push(WorkItem::Host(1.0));
        }
        items
    }

    #[test]
    fn sampler_draws_match_reference_bitwise() {
        // The reusable-buffer sampler and the allocating wrapper must
        // consume the RNG in the same order and produce the same items
        // as the historical linear-scan path, draw for draw, across many
        // consecutive requests.
        let spec = WorkloadSpec {
            non_kernel_cycles: 1_500.0,
            kernels_per_request: 2,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.0),
        };
        let sampler = spec.sampler();
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let mut rng_c = StdRng::seed_from_u64(42);
        let mut buf = Vec::new();
        for _ in 0..5_000 {
            let reference = reference_draw(&spec, &mut rng_a);
            buf.clear();
            sampler.draw_append(&mut rng_b, &mut buf);
            assert_eq!(reference, buf);
            assert_eq!(reference, spec.draw_request(&mut rng_c));
        }
    }
}
