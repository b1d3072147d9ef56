//! A distribution of `u64` samples in power-of-two buckets.
//!
//! Plain data: a report owns its histograms and adds runs together with
//! [`Histogram::absorb`], so every distribution it prints belongs to the
//! run that produced it. Quantiles are bucket-midpoint estimates, within 2x
//! of the true value.

/// Index 0 holds zeros, index `i` holds values in `[2^(i-1), 2^i)`; 65
/// buckets cover the whole `u64` range.
const NUM_BUCKETS: usize = 65;

/// Count, sum, min and max of the samples, plus the bucket counts the
/// p50/p90/p99 estimates are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(samples: I) -> Histogram {
        let mut h = Histogram::default();
        for v in samples {
            h.record(v);
        }
        h
    }
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Adds every sample of `other`.
    pub fn absorb(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Estimated `q`-quantile: the midpoint of the bucket holding the sample
    /// of rank `⌈q · count⌉` (0 without samples).
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let bucket = self
            .buckets
            .iter()
            .position(|n| {
                seen += n;
                seen >= target
            })
            .unwrap_or(NUM_BUCKETS - 1);
        if bucket == 0 {
            return 0;
        }
        let low = 1u64 << (bucket - 1);
        let high = low.saturating_mul(2).saturating_sub(1);
        low + (high - low) / 2
    }

    /// `{"count":..,"sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}`;
    /// `min` is 0 without samples.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"count":{},"sum":{},"min":{},"max":{},"p50":{},"p90":{},"p99":{}}}"#,
            self.count,
            self.sum,
            if self.count == 0 { 0 } else { self.min },
            self.max,
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_ordered_and_bucket_accurate() {
        // 100 samples 1..=100: true p50 = 50, p90 = 90, p99 = 99.
        let h: Histogram = (1..=100u64).collect();
        assert_eq!((h.count(), h.sum()), (100, 5050));
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{h:?}");
        // Power-of-two buckets put the estimate within 2x of the truth.
        assert!((25..=100).contains(&p50), "p50 estimate {p50} off");
        assert!((45..=180).contains(&p90), "p90 estimate {p90} off");
        assert!((50..=198).contains(&p99), "p99 estimate {p99} off");
        // Degenerate distributions stay exact.
        let zeros: Histogram = [0, 0].into_iter().collect();
        assert!(zeros
            .to_json()
            .contains(r#""min":0,"max":0,"p50":0,"p90":0,"p99":0"#));
        assert_eq!(
            Histogram::default().to_json(),
            r#"{"count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0}"#
        );
    }

    #[test]
    fn absorbing_equals_recording_both_sample_sets() {
        let a: Histogram = [3, 17, 400].into_iter().collect();
        let b: Histogram = [0, 9].into_iter().collect();
        let mut sum = a;
        sum.absorb(&b);
        assert_eq!(sum, [3, 17, 400, 0, 9].into_iter().collect());
        assert!(sum
            .to_json()
            .starts_with(r#"{"count":5,"sum":429,"min":0,"max":400,"#));
    }
}
