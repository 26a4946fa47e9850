//! Sample statistics, host-time calibration, and process memory.

use std::hint::black_box;
use std::time::Instant;

use crate::spec::CAL_REF_S;

/// The `q` quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between order statistics; `None` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples strictly above the `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The fewest samples for which the `q` quantile keeps at least ten
/// samples beyond it — the rule for the highest percentile reported.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= 10)
        .unwrap_or(usize::MAX)
}

/// Words the calibration kernel sorts.
const CAL_WORDS: usize = 1 << 20;

/// The fixed calibration kernel: a xorshift fill of 1M `u64`, an unstable
/// sort, then 4M strided reads. About 30 ms on a current x86 core. It
/// works in a caller-owned buffer so it leaves the allocator as it was.
pub fn calibration_kernel(buf: &mut Vec<u64>) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    buf.clear();
    buf.extend((0..CAL_WORDS).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }));
    buf.sort_unstable();
    let mask = buf.len() - 1;
    let mut acc = 0u64;
    let mut i = 0usize;
    for _ in 0..4 * CAL_WORDS {
        acc = acc.wrapping_add(buf[i]);
        i = (i + 4099) & mask;
    }
    acc
}

/// Raw seconds of one timed sample and the index of the calibration
/// sample taken right before it.
pub type Timing = (f64, usize);

/// Calibration samples of one process, in the order taken: one right
/// before each timed sample, and one after the last.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
    buf: Vec<u64>,
}

impl Calibration {
    /// Times the kernel once and returns the sample's index, which
    /// identifies the timed sample that follows it.
    pub fn sample(&mut self) -> usize {
        let t = Instant::now();
        black_box(calibration_kernel(&mut self.buf));
        self.samples.push(t.elapsed().as_secs_f64());
        self.samples.len() - 1
    }

    /// Index of the latest sample.
    pub fn latest(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }

    /// Median raw seconds of the kernel.
    pub fn median_s(&self) -> f64 {
        median(&self.samples).unwrap_or(CAL_REF_S)
    }

    /// Raw seconds of a sample timed right after calibration sample `at`,
    /// in reference seconds. The host's speed during the sample is taken
    /// as the mean of the calibration samples just before and just after
    /// it: interference that slows one usually slows its neighbours.
    pub fn to_ref(&self, raw_s: f64, at: usize) -> f64 {
        let around: Vec<f64> = self.samples.iter().skip(at).take(2).copied().collect();
        if around.is_empty() {
            return raw_s;
        }
        normalize(raw_s, around.iter().sum::<f64>() / around.len() as f64)
    }

    /// Every timing in reference seconds.
    pub fn refs(&self, timings: &[Timing]) -> Vec<f64> {
        timings
            .iter()
            .map(|&(raw, at)| self.to_ref(raw, at))
            .collect()
    }

    /// Median of `timings` in reference seconds (NaN when empty).
    pub fn median_ref(&self, timings: &[Timing]) -> f64 {
        median(&self.refs(timings)).unwrap_or(f64::NAN)
    }
}

pub fn normalize(raw_s: f64, calib_s: f64) -> f64 {
    raw_s * CAL_REF_S / calib_s
}

/// Peak resident set of this process (`VmHWM`), in MiB; NaN where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_small_and_tied_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.75), Some(3.25));
        assert_eq!(percentile(&[5.0, 5.0, 5.0], 0.99), Some(5.0));
        assert_eq!(percentile(&[1.0, 2.0, 2.0, 2.0, 9.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 1.0), Some(2.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(min_samples_for(0.75), 40);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(samples_beyond(39, 0.75), 9);
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(samples_beyond(3, 0.5), 1);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn normalisation_divides_out_cpu_speed() {
        // A host running at half speed doubles both the sample and the
        // calibration kernel; the reference time is unchanged.
        let fast = normalize(0.4, CAL_REF_S);
        let slow = normalize(0.8, 2.0 * CAL_REF_S);
        assert!((fast - 0.4).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
        let mut cal = Calibration::default();
        assert_eq!(cal.to_ref(1.0, 0), 1.0);
        cal.samples = vec![1.0 * CAL_REF_S, 3.0 * CAL_REF_S, 2.0 * CAL_REF_S];
        assert!((cal.to_ref(1.0, 0) - 0.5).abs() < 1e-12);
        assert!((cal.to_ref(1.0, 1) - 0.4).abs() < 1e-12);
        // The last sample has no successor and stands alone.
        assert!((cal.to_ref(1.0, 2) - 0.5).abs() < 1e-12);
        assert_eq!(cal.latest(), 2);
        assert!((cal.median_s() - 2.0 * CAL_REF_S).abs() < 1e-15);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix(5), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix(5), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(SplitMix(6), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((0..100)
            .scan(SplitMix(1), |r, _| Some(r.below(7)))
            .all(|x| x < 7));
        let units: Vec<f64> = (0..1000).scan(SplitMix(2), |r, _| Some(r.unit())).collect();
        assert!(units.iter().all(|&u| u > 0.0 && u <= 1.0));
        let mean = units.iter().sum::<f64>() / units.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "{mean}");
    }
}
