//! Statistics primitives: counters, histograms and bucketed time series.
//!
//! These are deliberately simple value types; every simulator component owns
//! its own statistics and the harness aggregates them after a run.

use std::fmt;

/// A named monotonically increasing event counter.
///
/// ```
/// use simkit::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Reset to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` covers `[i * width, (i+1) * width)`; samples beyond the last
/// bucket are clamped into it so nothing is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `n_buckets` buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `n_buckets == 0`.
    pub fn new(width: u64, n_buckets: usize) -> Histogram {
        assert!(width > 0 && n_buckets > 0);
        Histogram {
            width,
            buckets: vec![0; n_buckets],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = ((sample / self.width) as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += sample;
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket contents (index = bucket number).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Width of each bucket.
    pub fn bucket_width(&self) -> u64 {
        self.width
    }
}

/// A time series of values bucketed by simulated time.
///
/// Used for the paper's Figure 16 (flushed lines per interval after a
/// partitioning decision): events are accumulated into fixed-width cycle
/// buckets relative to a configurable origin.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_cycles: u64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with buckets of `bucket_cycles` cycles, pre-sized to
    /// `n_buckets` (it grows on demand).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_cycles == 0`.
    pub fn new(bucket_cycles: u64, n_buckets: usize) -> TimeSeries {
        assert!(bucket_cycles > 0);
        TimeSeries {
            bucket_cycles,
            values: vec![0.0; n_buckets],
        }
    }

    /// Adds `amount` at `offset_cycles` past the series origin.
    pub fn add_at(&mut self, offset_cycles: u64, amount: f64) {
        let idx = (offset_cycles / self.bucket_cycles) as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0.0);
        }
        self.values[idx] += amount;
    }

    /// The accumulated values, one per bucket.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Bucket width in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// Element-wise accumulation of another series with identical bucket
    /// width (used to average the flush profile over many decisions).
    ///
    /// # Panics
    ///
    /// Panics if bucket widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.bucket_cycles, other.bucket_cycles);
        if other.values.len() > self.values.len() {
            self.values.resize(other.values.len(), 0.0);
        }
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += *b;
        }
    }

    /// Divides every bucket by `n` (no-op when `n == 0`).
    pub fn scale_down(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        for v in &mut self.values {
            *v /= n as f64;
        }
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Geometric mean of strictly positive values; the paper averages normalized
/// speedups and energies geometrically.
///
/// Returns `None` for an empty slice or any non-positive entry.
///
/// ```
/// use simkit::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between order statistics (the "R-7" / spreadsheet convention). `None`
/// for an empty slice, a non-finite value, or `q` outside `[0, 1]`.
///
/// ```
/// use simkit::stats::quantile;
/// assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
/// assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
/// ```
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_clamps() {
        let mut h = Histogram::new(10, 3);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(25);
        h.record(1000); // clamped into last bucket
        assert_eq!(h.buckets(), &[2, 1, 2]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        let mean = h.mean().unwrap();
        assert!((mean - (9 + 10 + 25 + 1000) as f64 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_mean_is_none() {
        let h = Histogram::new(1, 1);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn time_series_accumulates_and_grows() {
        let mut ts = TimeSeries::new(100, 2);
        ts.add_at(0, 1.0);
        ts.add_at(99, 1.0);
        ts.add_at(100, 5.0);
        ts.add_at(950, 2.0); // grows to bucket 9
        assert_eq!(ts.values()[0], 2.0);
        assert_eq!(ts.values()[1], 5.0);
        assert_eq!(ts.values()[9], 2.0);
        assert_eq!(ts.total(), 9.0);
    }

    #[test]
    fn time_series_merge_and_scale() {
        let mut a = TimeSeries::new(10, 2);
        let mut b = TimeSeries::new(10, 4);
        a.add_at(0, 2.0);
        b.add_at(35, 4.0);
        a.merge(&b);
        a.scale_down(2);
        assert_eq!(a.values()[0], 1.0);
        assert_eq!(a.values()[3], 2.0);
    }

    #[test]
    #[should_panic]
    fn time_series_merge_rejects_mismatched_widths() {
        let mut a = TimeSeries::new(10, 1);
        let b = TimeSeries::new(20, 1);
        a.merge(&b);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, -1.0]), None);
        assert_eq!(geometric_mean(&[0.0]), None);
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates_and_rejects_garbage() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[4.0, 2.0, 3.0, 1.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[4.0, 2.0, 3.0, 1.0], 1.0), Some(4.0));
        assert_eq!(quantile(&[4.0, 2.0, 3.0, 1.0], 0.5), Some(2.5));
        let p25 = quantile(&[1.0, 2.0, 3.0, 4.0], 0.25).unwrap();
        assert!((p25 - 1.75).abs() < 1e-12);
    }
}
