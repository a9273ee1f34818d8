//! Host measurements: process CPU time, resident memory, and the host
//! stamp every result carries.

use std::process::Command;
use std::time::Duration;

use accelerometer_kernels::dispatch;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time consumed so far by every thread of this
/// process, including threads that have already exited.
#[must_use]
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two `long`s
    // on 64-bit Linux, matching `Timespec`'s `repr(C)` layout) through a
    // pointer to a live, exclusively borrowed local, and reads nothing
    // else.
    #[allow(unsafe_code)]
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is supported on Linux");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below 1e9"),
    )
}

/// A `/proc/self/status` field in MB (the kernel reports kB).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, in MB.
#[must_use]
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// What a result needs to be compared with another: the host's width,
/// the kernels' ISA tier, the compiler, and the source revision.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub nproc: usize,
    pub isa: String,
    pub rustc: String,
    pub commit: String,
    /// `(kernel, ISA tier its auto-dispatch entry point uses here)`.
    pub kernel_tiers: Vec<(&'static str, &'static str)>,
}

impl HostStamp {
    #[must_use]
    pub fn collect() -> Self {
        let commit = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
            .filter(|hash| !hash.is_empty())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            isa: dispatch::active_summary(),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            commit,
            kernel_tiers: [
                ("aes", dispatch::AES, "aes-ni"),
                ("sha256", dispatch::SHA, "sha-ni"),
                ("lz", dispatch::AVX2, "avx2"),
                ("mlp", dispatch::AVX2, "avx2"),
            ]
            .into_iter()
            .map(|(kernel, feature, tier)| {
                (
                    kernel,
                    if dispatch::has(feature) {
                        tier
                    } else {
                        "scalar"
                    },
                )
            })
            .collect(),
        }
    }

    /// The tier label for a `kernels.<name>.*` metric.
    #[must_use]
    pub fn kernel_tier(&self, metric: &str) -> Option<&'static str> {
        let kernel = metric.strip_prefix("kernels.")?.split('.').next()?;
        self.kernel_tiers
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|(_, tier)| *tier)
    }
}

/// The median of `values` by nearest rank (an actual sample: the upper
/// middle one for an even count); `NaN` for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value. Returns `(value, percentile, beyond)`; with
/// fewer than eleven samples it falls back to the maximum (`beyond` = 0).
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, 0.0, 0);
    }
    if n < 11 {
        return (sorted[n - 1], 100.0, 0);
    }
    let index = n - 11;
    (sorted[index], 100.0 * (index + 1) as f64 / n as f64, 10)
}

/// splitmix64: the benchmark's own seed expander, independent of the
/// program under test.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0x5EED)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, beyond) = tail(&values);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(beyond, 10);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(tail(&[3.0, 1.0]).0, 3.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu() > before, "{x}");
    }
}
