//! Spans and instants of time as nanosecond counts.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) time, in nanoseconds.
///
/// A `u64` nanosecond counter — wide enough for ~584 years, so overflow
/// is not handled. The simulator's virtual clock counts in it, and the
/// protocol's time-valued options (timeouts) are given in it.
///
/// # Examples
///
/// ```
/// use hts_types::Nanos;
/// let t = Nanos::from_millis(2) + Nanos::from_micros(500);
/// assert_eq!(t.as_nanos(), 2_500_000);
/// assert_eq!(t.as_secs_f64(), 0.0025);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero time.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a span from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a span from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a span from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// The raw nanosecond count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This span in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(Nanos::from_millis(5).as_millis_f64(), 5.0);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100) + Nanos(50);
        assert_eq!(a, Nanos(150));
        assert_eq!(a - Nanos(150), Nanos::ZERO);
        assert_eq!(Nanos(10).saturating_sub(Nanos(20)), Nanos::ZERO);
        let mut b = Nanos(1);
        b += Nanos(2);
        assert_eq!(b, Nanos(3));
    }
}
