//! The benchmark's own statistics: percentiles under the ten-sample tail
//! rule, open-loop latency charged from each request's due time, and
//! ratios that always travel with their base.

/// A reported percentile needs at least this many samples beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// One percentile as reported: which percentile it is, its value, and
/// the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub pct: u32,
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile `pct` of `sorted` (ascending).
fn nearest_rank(sorted: &[f64], pct: u32) -> f64 {
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// The median (nearest rank). `None` for no samples.
pub fn median(sorted: &[f64]) -> Option<Pct> {
    (!sorted.is_empty()).then(|| Pct {
        pct: 50,
        value: nearest_rank(sorted, 50),
        n: sorted.len(),
    })
}

/// The highest whole percentile at or below `want` that still has at
/// least [`TAIL_SAMPLES`] samples beyond it. With 1000 samples that is
/// p99; with 500 it drops to p98; with 10 or fewer there is no tail to
/// report and the result is `None`.
pub fn tail(sorted: &[f64], want: u32) -> Option<Pct> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    // Samples beyond nearest rank r are n - r; need r <= n - TAIL_SAMPLES.
    let max_rank = n - TAIL_SAMPLES;
    let pct = (want as usize).min(100 * max_rank / n) as u32;
    Some(Pct {
        pct,
        value: nearest_rank(sorted, pct),
        n,
    })
}

/// Sort a sample vector in place and return it (NaN-free inputs).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Latency of an open-loop request, timed from when it was *due* rather
/// than from when it was sent: a generator or queue stall that delays the
/// send is charged to the request. All arguments are nanoseconds on one
/// clock; `completed` before `due` (impossible on a monotonic clock)
/// reads as zero.
pub fn due_latency_ns(due: u64, completed: u64) -> u64 {
    completed.saturating_sub(due)
}

/// A ratio with its base: `num / base`, reported as both numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    pub num: u64,
    pub base: u64,
}

impl Ratio {
    pub fn new(num: u64, base: u64) -> Ratio {
        Ratio { num, base }
    }

    /// `num / base`, or 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.num as f64 / self.base as f64
        }
    }
}

/// SplitMix64: the benchmark's input generator, a pure function of the
/// seed so the same `--seed` gives the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let p = tail(&ramp(1000), 99).unwrap();
        assert_eq!((p.pct, p.value, p.n), (99, 990.0, 1000));
        // Exactly ten samples lie beyond it.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > p.value).count(), 10);
    }

    #[test]
    fn tail_drops_to_the_highest_percentile_with_ten_beyond() {
        let p = tail(&ramp(500), 99).unwrap();
        assert_eq!((p.pct, p.value, p.n), (98, 490.0, 500));
        let p = tail(&ramp(40), 99).unwrap();
        assert_eq!(p.pct, 75);
        assert!(ramp(40).iter().filter(|&&v| v > p.value).count() >= TAIL_SAMPLES);
        assert_eq!(tail(&ramp(10), 99), None);
        assert_eq!(tail(&[], 99), None);
    }

    #[test]
    fn tail_never_exceeds_the_requested_percentile() {
        let p = tail(&ramp(100_000), 99).unwrap();
        assert_eq!(p.pct, 99);
        assert_eq!(p.value, 99_000.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)).unwrap().value, 3.0);
        assert_eq!(median(&ramp(4)).unwrap().value, 2.0);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // Requests due every 1 ms; request 0 stalls the single server for
        // 10 ms, so requests 1..=9 are sent on time but complete only
        // after the stall clears, one service time (0.1 ms) apart.
        let ms = 1_000_000u64;
        let due: Vec<u64> = (0..10).map(|i| i * ms).collect();
        let mut done = Vec::new();
        let mut free_at = 0u64;
        for (i, &d) in due.iter().enumerate() {
            let service = if i == 0 { 10 * ms } else { ms / 10 };
            free_at = free_at.max(d) + service;
            done.push(free_at);
        }
        let lat: Vec<u64> = due
            .iter()
            .zip(&done)
            .map(|(&d, &c)| due_latency_ns(d, c))
            .collect();
        // Without the stall every later request would read 0.1 ms.
        assert_eq!(lat[1], 9 * ms + ms / 10);
        assert!(lat[1..].iter().all(|&l| l > ms / 10));
        // The backlog drains: each later request waits less.
        assert!(lat[1..].windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn a_late_send_counts_from_the_due_time() {
        // Due at 5 ms, the generator only sent at 8 ms, served in 1 ms:
        // the request waited 4 ms, not 1 ms.
        let ms = 1_000_000u64;
        assert_eq!(due_latency_ns(5 * ms, 9 * ms), 4 * ms);
        assert_eq!(due_latency_ns(9 * ms, 5 * ms), 0);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(97, 100);
        assert_eq!((r.num, r.base), (97, 100));
        assert!((r.value() - 0.97).abs() < 1e-12);
        assert_eq!(Ratio::new(0, 0).value(), 0.0);
    }

    #[test]
    fn splitmix_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7);
        assert!(a.iter().all(|&v| v == r.next_u64()));
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }
}
