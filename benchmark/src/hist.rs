//! A log-linear histogram of nanosecond durations.
//!
//! 32 linear sub-buckets per power of two (≈3 % resolution), fixed size, no
//! allocation after construction. Quantiles interpolate linearly inside the
//! bucket the rank falls into, so a reported percentile moves continuously
//! with the data instead of snapping to bucket edges.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (~18 min) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB as usize;

/// Fixed-size log-linear histogram.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let value = value.min((1 << MAX_EXP) - 1);
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((value >> shift) - SUB)) as usize
}

/// `[low, high)` value range of bucket `index`.
fn bounds_of(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, index + 1);
    }
    let shift = index / SUB - 1;
    let low = (SUB + index % SUB) << shift;
    (low, low + (1 << shift))
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
        self.max = self.max.max(nanos);
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Moves every sample into `into` and leaves this histogram empty.
    pub fn drain_into(&mut self, into: &mut Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&mut into.counts) {
            *theirs += std::mem::take(mine);
        }
        into.total += std::mem::take(&mut self.total);
        into.max = into.max.max(std::mem::take(&mut self.max));
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, or 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 >= rank {
                let (low, high) = bounds_of(index);
                let inside = (rank - seen as f64) / count as f64;
                return low as f64 + inside * (high - low) as f64;
            }
            seen += count;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expected_low = 0;
        for index in 0..BUCKETS {
            let (low, high) = bounds_of(index);
            assert_eq!(low, expected_low, "bucket {index}");
            assert_eq!(bucket_of(low), index);
            assert_eq!(bucket_of(high - 1), index);
            expected_low = high;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_on_known_inputs() {
        let mut hist = Hist::new();
        for v in 1..=10_000u64 {
            hist.record(v);
        }
        assert_eq!(hist.len(), 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = hist.quantile(q);
            assert!((got - exact).abs() / exact < 0.02, "q{q}: {got} vs {exact}");
        }
        // Small values sit in exact unit-wide buckets.
        let mut small = Hist::new();
        for _ in 0..100 {
            small.record(7);
        }
        let p50 = small.quantile(0.5);
        assert!((7.0..8.0).contains(&p50), "{p50}");
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn draining_moves_every_sample() {
        let mut slice = Hist::new();
        let mut whole = Hist::new();
        whole.record(10);
        for v in [20, 30, 40] {
            slice.record(v);
        }
        slice.drain_into(&mut whole);
        assert_eq!((slice.len(), whole.len()), (0, 4));
        assert_eq!(slice.quantile(0.5), 0.0);
        assert!((40.0..=41.0).contains(&whole.quantile(1.0)));
        slice.record(5);
        assert!((5.0..6.0).contains(&slice.quantile(0.5)));
    }

    #[test]
    fn interpolation_moves_continuously_inside_a_bucket() {
        // Two data sets that differ only in how many samples fall below the
        // median bucket must report different medians.
        let mut a = Hist::new();
        let mut b = Hist::new();
        for _ in 0..1000 {
            a.record(1_000);
            b.record(1_000);
        }
        for _ in 0..100 {
            a.record(10);
        }
        for _ in 0..200 {
            b.record(10);
        }
        assert!(a.quantile(0.5) != b.quantile(0.5));
    }
}
