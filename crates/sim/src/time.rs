//! Virtual time: instants and durations with microsecond resolution.
//!
//! The paper reports delays at second granularity ("300 seconds", "6:02
//! minutes"), but the SMTP substrate models sub-second connection latencies,
//! so the engine keeps microseconds internally. `u64` microseconds cover
//! ~584 000 years of virtual time — far beyond the four-month deployment
//! experiment.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time (non-negative).
///
/// # Example
///
/// ```
/// use spamward_sim::SimDuration;
/// let d = SimDuration::from_mins(5);
/// assert_eq!(d.as_secs(), 300);
/// assert_eq!(format!("{d}"), "5m00s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400 * 1_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be finite and non-negative");
        SimDuration((s * 1e6).round() as u64)
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Whether this is the zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` when `rhs > self`.
    pub const fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    /// Formats as the most compact of `NNus`, `N.NNNs`, `MmSSs`, `HhMMmSSs`
    /// or `DdHHh` — the forms used throughout the paper's tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < 1_000_000 {
            return write!(f, "{us}us");
        }
        let total_secs = us / 1_000_000;
        let (d, rem) = (total_secs / 86_400, total_secs % 86_400);
        let (h, rem) = (rem / 3_600, rem % 3_600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}h")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            let frac = (us % 1_000_000) / 1_000;
            if frac == 0 {
                write!(f, "{s}s")
            } else {
                write!(f, "{s}.{frac:03}s")
            }
        }
    }
}

/// An instant of virtual time, measured from the start of the simulation.
///
/// # Example
///
/// ```
/// use spamward_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_hours(6);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimDuration::from_secs(21_600));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `s` seconds after the simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates an instant `us` microseconds after the simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since the simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn elapsed_since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier.0 <= self.0, "elapsed_since: earlier instant {earlier} is after {self}");
        SimDuration(self.0 - earlier.0)
    }

    /// The duration elapsed since `earlier`, or `None` if `earlier` is later.
    pub const fn checked_elapsed_since(self, earlier: SimTime) -> Option<SimDuration> {
        match self.0.checked_sub(earlier.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_micros())
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.elapsed_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(60), SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(60), SimDuration::from_hours(1));
        assert_eq!(SimDuration::from_hours(24), SimDuration::from_days(1));
        assert_eq!(SimDuration::from_millis(1_000), SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_micros(1_000), SimDuration::from_millis(1));
    }

    #[test]
    fn duration_from_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(607.5).as_secs(), 607);
        assert_eq!(SimDuration::from_secs_f64(607.5).as_micros(), 607_500_000);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn duration_from_negative_f64_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(90);
        let b = SimDuration::from_secs(30);
        assert_eq!(a + b, SimDuration::from_mins(2));
        assert_eq!(a - b, SimDuration::from_mins(1));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, b);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.checked_sub(b), Some(SimDuration::from_secs(60)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn duration_display_forms() {
        assert_eq!(SimDuration::from_micros(250).to_string(), "250us");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42s");
        assert_eq!(SimDuration::from_secs(302).to_string(), "5m02s");
        assert_eq!(SimDuration::from_secs(21_600).to_string(), "6h00m00s");
        assert_eq!(SimDuration::from_days(5).to_string(), "5d00h");
    }

    #[test]
    fn time_elapsed_and_ordering() {
        let t0 = SimTime::from_secs(100);
        let t1 = t0 + SimDuration::from_secs(200);
        assert!(t1 > t0);
        assert_eq!(t1.elapsed_since(t0), SimDuration::from_secs(200));
        assert_eq!(t1 - t0, SimDuration::from_secs(200));
        assert_eq!(t0.checked_elapsed_since(t1), None);
        assert_eq!(t1 - SimDuration::from_secs(200), t0);
    }

    #[test]
    #[should_panic(expected = "elapsed_since")]
    fn time_elapsed_backwards_panics() {
        let t0 = SimTime::from_secs(100);
        let _ = t0.elapsed_since(t0 + SimDuration::from_secs(1));
    }

    #[test]
    fn time_display() {
        assert_eq!(SimTime::from_secs(302).to_string(), "t+5m02s");
    }

    #[test]
    fn duration_mul_f64() {
        let d = SimDuration::from_secs(100) * 1.5;
        assert_eq!(d, SimDuration::from_secs(150));
    }
}
