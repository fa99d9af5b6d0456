//! Virtual time for the discrete-event simulation.
//!
//! The entire reproduction runs on a simulated clock with nanosecond
//! resolution, which is what lets the benchmark harness report the paper's
//! microsecond-scale latencies deterministically.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// A time later than any event the simulator will ever schedule.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; that always indicates a
    /// simulator bug, never a recoverable condition.
    #[must_use]
    pub fn since(self, earlier: Time) -> Duration {
        assert!(earlier.0 <= self.0, "time went backwards: {earlier} > {self}");
        Duration(self.0 - earlier.0)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Length in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, d: Duration) -> Time {
        Time(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, other: Time) -> Duration {
        self.since(other)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, d: Duration) -> Duration {
        Duration(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, d: Duration) -> Duration {
        Duration(self.0.saturating_sub(d.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

crate::wire!(Time(0));
crate::wire!(Duration(0));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Duration::from_micros(3);
        assert_eq!(t.as_nanos(), 3_000);
        let t2 = t + Duration::from_nanos(500);
        assert_eq!((t2 - t).as_nanos(), 500);
        assert_eq!(t2.since(t).as_nanos(), 500);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_backwards() {
        let _ = Time::ZERO.since(Time::from_nanos(1));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Duration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Duration::from_micros(10).mul(3).as_nanos(), 30_000);
        assert_eq!(Duration::from_micros(10).div(2).as_nanos(), 5_000);
    }

    #[test]
    fn display_micros() {
        assert_eq!(Duration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(Time::from_nanos(2_000).to_string(), "2.000us");
    }

    #[test]
    fn duration_sub_saturates() {
        assert_eq!(Duration::from_nanos(5) - Duration::from_nanos(10), Duration::ZERO);
    }

    #[test]
    fn encodings_match_the_pinned_bytes() {
        assert_eq!(Time::from_nanos(1_500).to_bytes(), [0xdc, 0x05, 0, 0, 0, 0, 0, 0]);
        assert_eq!(Duration::from_micros(2).to_bytes(), [0xd0, 0x07, 0, 0, 0, 0, 0, 0]);
    }
}
