//! The per-queue egress Rate Limiter of §5.3.
//!
//! The hardware design uses three registers: `R_l` records the last
//! packet's transmission time, `R_r` the assigned rate, and `R_c` a
//! countdown started at `R_c = R_l · (C − R_r) / R_r` when the packet
//! finishes. The queue may send again when the countdown hits zero, so a
//! packet of `S` bytes occupies the sender for `S·8/C + gap = S·8/R_r`
//! seconds total — i.e. the queue's long-run rate is exactly `R_r` while
//! backlogged.
//!
//! This model reproduces that timing exactly in virtual time: instead of a
//! literal countdown we precompute the instant the countdown would expire.

use crate::units::{Dur, Rate, Time};

/// Per-queue token-less rate limiter (three-register design, §5.3).
///
/// One refinement over a literal free-running countdown: the gap after the
/// last packet is re-evaluated against the *currently assigned* rate, so a
/// rate update from the Rate Adjuster takes effect immediately instead of
/// after a countdown computed at the old (possibly very low) rate. Without
/// this, a single packet sent at a deep-stage rate (kb/s) would freeze the
/// port for tens of milliseconds even after the downstream queue drained —
/// hardware achieves the same by reloading `R_c` when `R_r` is written.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    /// Link capacity `C` (the rate packets serialize at when sent).
    capacity: Rate,
    /// Assigned rate `R_r`. `Rate::ZERO` blocks the queue entirely.
    rate: Rate,
    /// Commodity switches cannot pace below a minimum unit (§7, 8 Kb/s on
    /// Cisco/Juniper gear); assigned rates below it are clamped up to it.
    min_unit: Rate,
    /// Serialization time `R_l` of the last packet sent.
    last_tx_time: Dur,
    /// Completion instant of the last packet sent.
    last_completion: Time,
    /// Cached `gap_after(last_tx_time)`, refreshed whenever `rate` or
    /// `last_tx_time` changes — [`Self::earliest_send`] runs on every
    /// transmission attempt of every queue, and the gap formula's 128-bit
    /// division is too hot there.
    cur_gap: Dur,
}

impl RateLimiter {
    /// Default commodity minimum rate unit: 8 Kb/s (§7).
    pub const DEFAULT_MIN_UNIT: Rate = Rate(8_000);

    /// New limiter initially at line rate.
    pub fn new(capacity: Rate) -> Self {
        Self::with_min_unit(capacity, Self::DEFAULT_MIN_UNIT)
    }

    /// New limiter with an explicit minimum rate unit (use `Rate::ZERO` to
    /// allow arbitrarily small assigned rates, e.g. in analytical tests).
    pub fn with_min_unit(capacity: Rate, min_unit: Rate) -> Self {
        assert!(capacity > Rate::ZERO, "capacity must be positive");
        RateLimiter {
            capacity,
            rate: capacity,
            min_unit,
            last_tx_time: Dur::ZERO,
            last_completion: Time::ZERO,
            cur_gap: Dur::ZERO,
        }
    }

    /// Link capacity `C`.
    pub fn capacity(&self) -> Rate {
        self.capacity
    }

    /// Currently assigned rate `R_r` (after min-unit clamping).
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Assign a new rate (Rate Adjuster → Rate Limiter update).
    ///
    /// A nonzero rate below the minimum unit is clamped up to the minimum
    /// unit; zero stays zero (fully blocked). Rates above capacity clamp to
    /// capacity. The pacing gap in progress is re-evaluated against the new
    /// rate (see the type-level docs).
    pub fn set_rate(&mut self, r: Rate) {
        self.rate =
            if r == Rate::ZERO { Rate::ZERO } else { r.max(self.min_unit).min(self.capacity) };
        self.cur_gap = self.gap_after(self.last_tx_time);
    }

    /// Earliest instant a new packet may begin transmission, given `now`:
    /// the last completion plus the gap `R_c = R_l·(C − R_r)/R_r`
    /// evaluated at the *current* rate.
    pub fn earliest_send(&self, now: Time) -> Time {
        if self.rate == Rate::ZERO {
            return Time::MAX;
        }
        now.max(self.last_completion.saturating_add(self.cur_gap))
    }

    /// Whether a packet may begin transmission at `now`.
    pub fn may_send(&self, now: Time) -> bool {
        self.rate > Rate::ZERO && self.earliest_send(now) <= now
    }

    /// Record a completed transmission: the packet's serialization took
    /// `tx_time` (`R_l`) and finished at `completion`; the countdown
    /// `R_c = R_l · (C − R_r) / R_r` runs from `completion`.
    pub fn on_packet_sent(&mut self, tx_time: Dur, completion: Time) {
        self.last_tx_time = tx_time;
        self.last_completion = completion;
        self.cur_gap = self.gap_after(tx_time);
    }

    /// The idle gap the limiter inserts after a packet whose serialization
    /// took `tx_time`.
    pub fn gap_after(&self, tx_time: Dur) -> Dur {
        if self.rate >= self.capacity {
            return Dur::ZERO;
        }
        if self.rate == Rate::ZERO {
            return Dur::MAX;
        }
        // R_c = R_l · (C − R_r) / R_r, computed in u128 to avoid overflow.
        let num = tx_time.0 as u128 * (self.capacity.0 - self.rate.0) as u128;
        Dur((num / self.rate.0 as u128).min(u64::MAX as u128) as u64)
    }

    /// Reset pacing state (e.g. when a queue empties, some designs restart
    /// the countdown; the paper's design keeps it — provided for tests).
    pub fn reset(&mut self) {
        self.last_tx_time = Dur::ZERO;
        self.last_completion = Time::ZERO;
        self.cur_gap = self.gap_after(Dur::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: Rate = Rate(10_000_000_000); // 10 Gb/s

    #[test]
    fn line_rate_has_no_gap() {
        let rl = RateLimiter::new(C);
        assert_eq!(rl.gap_after(Dur::from_nanos(1200)), Dur::ZERO);
    }

    #[test]
    fn half_rate_doubles_spacing() {
        let mut rl = RateLimiter::new(C);
        rl.set_rate(Rate::from_gbps(5));
        // A 1500 B packet serializes in 1.2 µs at 10G; gap must equal the
        // serialization time so the effective rate is 5G.
        let tx = Dur::from_nanos(1200);
        assert_eq!(rl.gap_after(tx), tx);
    }

    #[test]
    fn quarter_rate_triples_gap() {
        let mut rl = RateLimiter::new(C);
        rl.set_rate(Rate(2_500_000_000));
        let tx = Dur::from_nanos(1200);
        assert_eq!(rl.gap_after(tx), Dur::from_nanos(3600));
    }

    #[test]
    fn long_run_rate_equals_assigned() {
        // Simulate a backlogged queue of 1500 B packets at R_r = 3 Gb/s and
        // check the achieved rate over many packets.
        let mut rl = RateLimiter::new(C);
        rl.set_rate(Rate(3_000_000_000));
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        let n = 1000;
        for _ in 0..n {
            let start = rl.earliest_send(now);
            let tx = Dur::for_bytes(1500, C);
            let done = start + tx;
            rl.on_packet_sent(tx, done);
            sent += 1500;
            now = done;
        }
        let elapsed = rl.earliest_send(now) - Time::ZERO;
        let achieved = Rate::from_bytes_over(sent, elapsed);
        let err = (achieved.0 as f64 - 3e9).abs() / 3e9;
        assert!(err < 0.001, "achieved {achieved}");
    }

    #[test]
    fn zero_rate_blocks() {
        let mut rl = RateLimiter::new(C);
        rl.set_rate(Rate::ZERO);
        assert_eq!(rl.earliest_send(Time::from_micros(5)), Time::MAX);
        assert!(!rl.may_send(Time::from_micros(5)));
    }

    #[test]
    fn min_unit_clamps_tiny_rates() {
        let mut rl = RateLimiter::new(C);
        rl.set_rate(Rate(1)); // 1 bps, below the 8 Kb/s unit
        assert_eq!(rl.rate(), RateLimiter::DEFAULT_MIN_UNIT);
    }

    #[test]
    fn overspeed_clamps_to_capacity() {
        let mut rl = RateLimiter::new(C);
        rl.set_rate(Rate::from_gbps(40));
        assert_eq!(rl.rate(), C);
    }

    #[test]
    fn rate_change_reevaluates_the_gap() {
        let mut rl = RateLimiter::new(C);
        rl.set_rate(Rate::from_gbps(1));
        let tx = Dur::for_bytes(1500, C);
        let done = Time::ZERO + tx;
        rl.on_packet_sent(tx, done);
        // At 1 Gb/s the gap is 9x the serialization time.
        assert_eq!(rl.earliest_send(done), done + tx.mul_u64(9));
        // Raising the rate releases the port immediately...
        rl.set_rate(C);
        assert_eq!(rl.earliest_send(done), done);
        // ...and lowering it re-extends the wait.
        rl.set_rate(Rate::from_gbps(5));
        assert_eq!(rl.earliest_send(done), done + tx);
    }

    #[test]
    fn may_send_initially() {
        let rl = RateLimiter::new(C);
        assert!(rl.may_send(Time::ZERO));
    }
}
