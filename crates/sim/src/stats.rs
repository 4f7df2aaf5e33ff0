//! Metric collection: counters, sample histograms and labelled series.
//!
//! The evaluation harness reports latency distributions (delay figures)
//! and rates (throughput figures); these types keep that bookkeeping out
//! of the protocol code.

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use amoeba_sim::Counter;
/// let mut sent = Counter::default();
/// sent.add(3);
/// sent.incr();
/// assert_eq!(sent.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// A histogram that retains every sample (experiments take at most a few
/// hundred thousand), providing exact means and percentiles.
///
/// # Example
///
/// ```
/// use amoeba_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] { h.record(v); }
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { samples: Vec::new(), sorted: true }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// The number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The minimum sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min).pipe_finite()
    }

    /// The maximum sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max).pipe_finite()
    }

    /// The `p`-th percentile (0–100) by nearest-rank, or 0 if empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// The median sample.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// A labelled (x, y) series: one curve of a paper figure.
///
/// # Example
///
/// ```
/// use amoeba_sim::Series;
/// let mut s = Series::new("0 bytes");
/// s.push(2.0, 2.7);
/// s.push(30.0, 2.8);
/// assert_eq!(s.points().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a curve label.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// The curve label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The collected points, in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    /// The maximum y value, or `None` if the series is empty.
    pub fn y_max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, y)| *y)
            .max_by(|a, b| a.partial_cmp(b).expect("NaN y"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn histogram_statistics_are_exact() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.median(), 3.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 5.0);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
    }

    #[test]
    fn recording_after_percentile_keeps_order_correct() {
        let mut h = Histogram::new();
        h.record(10.0);
        h.record(1.0);
        assert_eq!(h.median(), 10.0); // nearest-rank over [1, 10]: round(0.5) = index 1
        h.record(0.5);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.percentile(100.0), 10.0);
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("curve");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.label(), "curve");
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.y_max(), Some(20.0));
    }
}
