//! Bit-exact golden for the synthetic profiler: one FNV-1a-64 digest over
//! every generated trace and every analyzed report for all services, two
//! seeds and two CPU generations.
//!
//! The CLI renders one-decimal percentages, so its fixtures cannot see a
//! last-ulp drift in a cycle draw, a category sum or an IPC ratio. This
//! digest hashes the raw `f64` bits instead, so any change to the order
//! in which the generator consumes its RNG, walks its weight tables or
//! the analyzer accumulates its sums shows up here.
//!
//! `memory_ops` is left out: the digest was pinned before its summation
//! order was made deterministic (see `analyze`'s unit tests for that).

use accelerometer_fleet::{profile, CpuGeneration, ServiceId};
use accelerometer_profiler::{analyze, TraceGenerator};

const SAMPLES: usize = 3_000;
const SEEDS: [u64; 2] = [1, 42];
const GENERATIONS: [CpuGeneration; 2] = [CpuGeneration::GenA, CpuGeneration::GenC];

/// The digest of the pipeline as first pinned; it must never move.
const PINNED: u64 = 0x6cd5_5645_9ef7_5cc2;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[test]
fn generator_and_analyzer_output_is_bit_identical_to_the_pinned_digest() {
    let mut h = Fnv::new();
    for id in ServiceId::ALL {
        for seed in SEEDS {
            for generation in GENERATIONS {
                let mut generator =
                    TraceGenerator::new(profile(id), seed).on_generation(generation);
                let traces = generator.generate(SAMPLES);
                for trace in &traces {
                    h.u64(trace.frames.len() as u64);
                    for frame in &trace.frames {
                        h.str(frame);
                    }
                    h.f64(trace.cycles);
                    h.f64(trace.instructions);
                }
                let report = analyze(&traces, generator.registry());
                for (cat, pct) in report.leaf.iter() {
                    h.str(&cat.to_string());
                    h.f64(pct);
                }
                for (cat, pct) in report.functionality.iter() {
                    h.str(&cat.to_string());
                    h.f64(pct);
                }
                for (cat, ipc) in &report.leaf_ipc {
                    h.str(&cat.to_string());
                    h.f64(*ipc);
                }
                for (cat, ipc) in &report.functionality_ipc {
                    h.str(&cat.to_string());
                    h.f64(*ipc);
                }
                h.f64(report.total_cycles);
                h.u64(report.samples as u64);
            }
        }
    }
    assert_eq!(
        h.0, PINNED,
        "profiler output drifted: got {:#018x}, pinned {PINNED:#018x}",
        h.0
    );
}
