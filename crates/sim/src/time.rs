//! Simulated time: microsecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in microseconds since simulation
/// start.
///
/// The paper reports all latencies in milliseconds with tenth-of-a-ms
/// precision and all CPU costs in microseconds, so a µs clock loses
/// nothing.
///
/// # Example
///
/// ```
/// use amoeba_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(2);
/// assert_eq!(t.as_micros(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The instant `d` after this one, or `None` if the clock cannot
    /// represent it.
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.0) {
            Some(us) => Some(SimTime(us)),
            None => None,
        }
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_micros(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use amoeba_sim::SimDuration;
/// assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in milliseconds, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating multiplication by an integer factor.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_micros(500) + SimDuration::from_millis(2);
        assert_eq!(t.as_micros(), 2_500);
        assert_eq!(t.since(SimTime::from_micros(500)), SimDuration::from_millis(2));
        assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(2_500));
    }

    #[test]
    fn duration_conversions_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1_500).as_millis_f64(), 1.5);
    }

    #[test]
    fn checked_add_refuses_what_the_clock_cannot_hold() {
        let t = SimTime::from_micros(7);
        assert_eq!(t.checked_add(SimDuration::from_micros(3)), Some(SimTime::from_micros(10)));
        assert_eq!(t.checked_add(SimDuration::from_micros(u64::MAX - 7)), Some(SimTime(u64::MAX)));
        assert_eq!(t.checked_add(SimDuration::from_micros(u64::MAX - 6)), None);
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be later")]
    fn since_panics_on_backwards_time() {
        SimTime::ZERO.since(SimTime::from_micros(1));
    }

    #[test]
    fn display_is_nonempty_and_humane() {
        assert_eq!(SimDuration::from_micros(250).to_string(), "250us");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimTime::from_micros(1_000).to_string(), "1.000ms");
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .sum();
        assert_eq!(total, SimDuration::from_millis(6));
    }
}
