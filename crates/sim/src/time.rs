//! Link-rate arithmetic over virtual time.

use std::fmt;

use hts_types::Nanos;

/// A link rate in bits per second.
///
/// # Examples
///
/// ```
/// use hts_sim::Bandwidth;
/// let fe = Bandwidth::mbps(100);
/// // 1250 bytes at 100 Mbit/s serialize in 100 µs.
/// assert_eq!(fe.transmission_time(1250).as_nanos(), 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// A rate in megabits per second.
    pub fn mbps(m: u64) -> Self {
        Bandwidth(m * 1_000_000)
    }

    /// A rate in gigabits per second.
    pub fn gbps(g: u64) -> Self {
        Bandwidth(g * 1_000_000_000)
    }

    /// The raw bits-per-second value.
    pub fn bits_per_sec(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto a link of this rate (rounded up).
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: a zero-rate link is a configuration bug"
    )]
    pub fn transmission_time(self, bytes: usize) -> Nanos {
        assert!(self.0 > 0, "zero bandwidth");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        Nanos(ns as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbit/s", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.1}Mbit/s", self.0 as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_scales_units() {
        assert_eq!(Nanos(5).to_string(), "5ns");
        assert_eq!(Nanos(5_000).to_string(), "5.000µs");
        assert_eq!(Nanos(5_000_000).to_string(), "5.000ms");
        assert_eq!(Nanos(5_000_000_000).to_string(), "5.000s");
        assert_eq!(Bandwidth::mbps(100).to_string(), "100.0Mbit/s");
        assert_eq!(Bandwidth::gbps(10).to_string(), "10.0Gbit/s");
    }

    #[test]
    fn transmission_times() {
        // 100 Mbit/s = 12.5 bytes/µs.
        let fe = Bandwidth::mbps(100);
        assert_eq!(fe.transmission_time(0), Nanos::ZERO);
        assert_eq!(fe.transmission_time(1), Nanos(80));
        assert_eq!(fe.transmission_time(1538), Nanos(123_040));
        // Rounds up.
        assert_eq!(Bandwidth(3).transmission_time(1).as_nanos(), 2_666_666_667);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth(0).transmission_time(1);
    }
}
