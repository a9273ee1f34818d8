//! Property-based proof that the engine's latency path — completed
//! latencies recorded as total-order keys and sorted in place at the end
//! of a run — summarizes to `LatencyStats` bit-identical to the `f64`
//! sample paths and to the clone-and-`sort_by(total_cmp)` reference, on
//! any `f64` input: NaN of either sign, ±0.0, infinities, negatives,
//! subnormals, and the empty sample.

use accelerometer_sim::{latency_key, LatencyStats};
use proptest::prelude::*;

/// Any `f64` bit pattern, with the special values over-weighted so every
/// case is likely to contain some.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        prop::sample::select(vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ]),
        -1e6..1e6_f64,
    ]
}

/// Field-by-field bits, since `PartialEq` is false for NaN fields. The
/// percentiles and the max are input values and must match bit for bit,
/// NaN payloads included. The mean is a sum: once it is NaN, Rust leaves
/// the sign and payload of a NaN produced by arithmetic unspecified, so
/// only "is NaN" is compared there.
fn bits(s: &LatencyStats) -> [u64; 6] {
    let mean = if s.mean.is_nan() { f64::NAN } else { s.mean };
    [
        s.count as u64,
        mean.to_bits(),
        s.p50.to_bits(),
        s.p95.to_bits(),
        s.p99.to_bits(),
        s.max.to_bits(),
    ]
}

/// The implementation the key sort replaced.
fn reference(samples: &[f64]) -> LatencyStats {
    if samples.is_empty() {
        return LatencyStats::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pick = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
    LatencyStats {
        count: sorted.len(),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
        max: *sorted.last().expect("non-empty"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_key_sort_matches_the_sample_paths(
        samples in prop::collection::vec(any_f64(), 0..400),
    ) {
        let mut keys: Vec<u64> = samples.iter().map(|&x| latency_key(x)).collect();
        let in_place = LatencyStats::from_keys(&mut keys);
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys left sorted");
        let scratch = LatencyStats::from_samples_scratch(&samples, &mut Vec::new());
        prop_assert_eq!(bits(&in_place), bits(&scratch));
        prop_assert_eq!(bits(&in_place), bits(&LatencyStats::from_samples_owned(samples.clone())));
        prop_assert_eq!(bits(&in_place), bits(&reference(&samples)));
    }
}

#[test]
fn empty_keys_summarize_to_the_default() {
    assert_eq!(LatencyStats::from_keys(&mut []), LatencyStats::default());
    assert_eq!(
        LatencyStats::from_samples_scratch(&[], &mut Vec::new()),
        LatencyStats::default()
    );
}
