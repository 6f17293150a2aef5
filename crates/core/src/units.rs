//! Physical units used throughout the workspace.
//!
//! The simulator needs exact arithmetic on serialization times: one byte at
//! 100 Gb/s takes 80 ps, so virtual time is kept in **picoseconds** as a
//! `u64` (enough for ~213 days of simulated time). Rates are kept in
//! bits-per-second. All conversions go through `u128` intermediates so no
//! realistic packet size or link speed can overflow.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An instant of simulated time, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

/// A transmission rate in bits per second.
///
/// `Rate::ZERO` means "blocked": a rate limiter assigned zero rate never
/// becomes eligible to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(pub u64);

impl Time {
    /// Simulation origin.
    pub const ZERO: Time = Time(0);
    /// A time later than any reachable instant; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * PS_PER_US)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * PS_PER_MS)
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition that keeps `Time::MAX` as an absorbing "never".
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);
    /// A duration longer than any reachable simulation; used as "forever".
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns * 1_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * PS_PER_US)
    }

    /// Construct from fractional microseconds (rounds to the nearest ps).
    pub fn from_micros_f64(us: f64) -> Dur {
        assert!(us >= 0.0, "negative duration");
        Dur((us * PS_PER_US as f64).round() as u64)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * PS_PER_SEC)
    }

    /// The time needed to serialize `bytes` onto a link of rate `rate`.
    ///
    /// Returns [`Dur::MAX`] for a zero rate (a blocked sender never
    /// finishes).
    pub fn for_bytes(bytes: u64, rate: Rate) -> Dur {
        if rate.0 == 0 {
            return Dur::MAX;
        }
        // Realistic link rates (1/10/25/40/100 G) divide the ps-per-bit
        // scale exactly, reducing the serialization time to one u64
        // multiply; this runs twice per transmitted frame, and the
        // general case below is a u128 division (a libcall).
        const BIT_PS: u64 = 8 * PS_PER_SEC;
        if BIT_PS.is_multiple_of(rate.0) {
            if let Some(ps) = bytes.checked_mul(BIT_PS / rate.0) {
                return Dur(ps);
            }
        }
        let bits = bytes as u128 * 8;
        let ps = bits * PS_PER_SEC as u128 / rate.0 as u128;
        Dur(ps.min(u64::MAX as u128) as u64)
    }

    /// This duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Integer-scaled duration.
    pub fn mul_u64(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }

    /// Number of bytes a link of rate `rate` carries in this duration
    /// (rounded down).
    pub fn bytes_at(self, rate: Rate) -> u64 {
        let bits = self.0 as u128 * rate.0 as u128 / PS_PER_SEC as u128;
        (bits / 8) as u64
    }
}

impl Rate {
    /// A fully blocked rate.
    pub const ZERO: Rate = Rate(0);

    /// Construct from gigabits per second.
    pub const fn from_gbps(g: u64) -> Rate {
        Rate(g * 1_000_000_000)
    }

    /// Construct from megabits per second.
    pub const fn from_mbps(m: u64) -> Rate {
        Rate(m * 1_000_000)
    }

    /// Construct from kilobits per second.
    pub const fn from_kbps(k: u64) -> Rate {
        Rate(k * 1_000)
    }

    /// This rate in (fractional) Gb/s.
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `bytes · 8 / dur`: the average rate that moves `bytes` in `dur`.
    pub fn from_bytes_over(bytes: u64, dur: Dur) -> Rate {
        if dur.0 == 0 {
            return Rate(u64::MAX);
        }
        let bits = bytes as u128 * 8 * PS_PER_SEC as u128;
        Rate((bits / dur.0 as u128).min(u64::MAX as u128) as u64)
    }

    /// The number of bytes this rate carries in `dur` (rounded down).
    pub fn bytes_in(self, dur: Dur) -> u64 {
        dur.bytes_at(self)
    }

    /// Multiply by a non-negative fraction `num/den` (saturating).
    pub fn mul_frac(self, num: u64, den: u64) -> Rate {
        assert!(den != 0, "zero denominator");
        Rate((self.0 as u128 * num as u128 / den as u128).min(u64::MAX as u128) as u64)
    }

    /// Saturating subtraction of rates.
    pub fn saturating_sub(self, other: Rate) -> Rate {
        Rate(self.0.saturating_sub(other.0))
    }

    /// The smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// The larger of two rates.
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, other: Time) -> Dur {
        Dur(self.0.checked_sub(other.0).expect("time went backwards"))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, other: Dur) -> Dur {
        Dur(self.0.saturating_add(other.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, other: Dur) {
        *self = *self + other;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, other: Dur) {
        *self = *self - other;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, k: u64) -> Dur {
        self.mul_u64(k)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, other: Rate) -> Rate {
        Rate(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gbps", self.as_gbps_f64())
    }
}

/// Kilobytes → bytes (storage sense: 1 KB = 1000 B is *not* used here; the
/// paper's buffer sizes are binary-ish quantities quoted in KB, we follow
/// the networking convention 1 KB = 1024 B used by switch datasheets).
pub const fn kb(k: u64) -> u64 {
    k * 1024
}

/// Megabytes → bytes (1 MB = 1024 KB).
pub const fn mb(m: u64) -> u64 {
    m * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_time_at_100g_is_80ps() {
        assert_eq!(Dur::for_bytes(1, Rate::from_gbps(100)), Dur(80));
    }

    #[test]
    fn mtu_time_at_10g() {
        // 1500 B at 10 Gb/s = 1.2 us.
        let d = Dur::for_bytes(1500, Rate::from_gbps(10));
        assert_eq!(d, Dur::from_nanos(1200));
    }

    #[test]
    fn zero_rate_never_finishes() {
        assert_eq!(Dur::for_bytes(1, Rate::ZERO), Dur::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_micros(3) + Dur::from_micros(2);
        assert_eq!(t, Time::from_micros(5));
        assert_eq!(t - Time::from_micros(1), Dur::from_micros(4));
        assert_eq!(Time::MAX + Dur::from_micros(1), Time::MAX);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Time::from_micros(1).since(Time::from_micros(5)), Dur::ZERO);
    }

    #[test]
    fn rate_from_bytes_over() {
        // 1250 bytes in 1 us = 10 Gb/s.
        let r = Rate::from_bytes_over(1250, Dur::from_micros(1));
        assert_eq!(r, Rate::from_gbps(10));
    }

    #[test]
    fn bytes_in_duration() {
        assert_eq!(Rate::from_gbps(10).bytes_in(Dur::from_micros(1)), 1250);
        assert_eq!(Rate::ZERO.bytes_in(Dur::from_secs(1)), 0);
    }

    #[test]
    fn rate_fraction() {
        assert_eq!(Rate::from_gbps(10).mul_frac(1, 2), Rate::from_gbps(5));
        assert_eq!(Rate::from_gbps(10).mul_frac(3, 4), Rate(7_500_000_000));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Rate::from_gbps(10)), "10.000Gbps");
        assert_eq!(format!("{}", Dur::from_micros(25)), "25.000us");
    }

    #[test]
    fn kb_mb_helpers() {
        assert_eq!(kb(100), 102_400);
        assert_eq!(mb(1), 1_048_576);
    }

    #[test]
    fn roundtrip_bytes_duration() {
        // Serializing n bytes then asking how many bytes fit in that time
        // returns n for byte-aligned rates.
        for n in [1u64, 64, 1500, 4096, 65535] {
            let d = Dur::for_bytes(n, Rate::from_gbps(10));
            assert_eq!(Rate::from_gbps(10).bytes_in(d), n);
        }
    }
}
