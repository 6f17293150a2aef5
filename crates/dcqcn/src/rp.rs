//! Reaction Point: the DCQCN sender-side rate machine.
//!
//! On every CNP the flow takes a multiplicative decrease scaled by the
//! EWMA congestion estimate α; between CNPs a timer and a byte counter
//! drive the recovery ladder — fast recovery (binary search back towards
//! the target), then additive increase, then hyper increase.

/// DCQCN tunables. Defaults follow the DCQCN paper with the overrides the
/// GFC paper states for its Fig. 20 study (α₀ = 0.5, g = 1/256,
/// timers 55 µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcqcnParams {
    /// Line rate (bits/s) — the cap and the flow's initial rate.
    pub line_rate_bps: u64,
    /// EWMA gain `g`.
    pub g: f64,
    /// Initial α.
    pub initial_alpha: f64,
    /// Fast-recovery stage count `F`.
    pub fast_recovery_stages: u32,
    /// Additive-increase step (bits/s).
    pub rate_ai_bps: u64,
    /// Hyper-increase step (bits/s).
    pub rate_hai_bps: u64,
    /// Byte-counter period (bytes) between increase events.
    pub byte_counter_bytes: u64,
    /// α-decay timer period (ps); α decays when no CNP arrived within it.
    pub alpha_timer_ps: u64,
    /// Rate-increase timer period (ps).
    pub increase_timer_ps: u64,
    /// Floor on the current rate (bits/s).
    pub min_rate_bps: u64,
    /// Minimum spacing between CNPs at the notification point (ps) — the
    /// DCQCN "N" parameter (the GFC paper's Fig. 20 uses 50 µs).
    pub cnp_interval_ps: u64,
}

impl DcqcnParams {
    /// The Fig. 20 configuration on a link of `line_rate_bps`.
    pub fn fig20(line_rate_bps: u64) -> Self {
        DcqcnParams {
            line_rate_bps,
            g: 1.0 / 256.0,
            initial_alpha: 0.5,
            fast_recovery_stages: 5,
            rate_ai_bps: 40_000_000,
            rate_hai_bps: 400_000_000,
            byte_counter_bytes: 10 * 1024 * 1024,
            alpha_timer_ps: 55_000_000,
            increase_timer_ps: 55_000_000,
            min_rate_bps: 1_000_000,
            cnp_interval_ps: 50_000_000,
        }
    }
}

/// The per-flow reaction-point state machine.
#[derive(Debug, Clone)]
pub struct ReactionPoint {
    p: DcqcnParams,
    /// Current rate `R_C` (bits/s).
    rc: f64,
    /// Target rate `R_T` (bits/s).
    rt: f64,
    /// Congestion estimate α.
    alpha: f64,
    /// Timer-driven increase events since the last CNP.
    t_events: u32,
    /// Byte-counter increase events since the last CNP.
    bc_events: u32,
    /// Bytes accumulated toward the next byte-counter event.
    byte_accum: u64,
    /// Whether a CNP arrived since the last α-timer tick.
    cnp_since_alpha_tick: bool,
    /// Total CNPs processed (diagnostics).
    cnps: u64,
}

impl ReactionPoint {
    /// New flow starting at line rate.
    pub fn new(p: DcqcnParams) -> Self {
        assert!(p.line_rate_bps > 0);
        assert!((0.0..=1.0).contains(&p.initial_alpha));
        assert!(p.g > 0.0 && p.g < 1.0);
        ReactionPoint {
            rc: p.line_rate_bps as f64,
            rt: p.line_rate_bps as f64,
            alpha: p.initial_alpha,
            t_events: 0,
            bc_events: 0,
            byte_accum: 0,
            cnp_since_alpha_tick: false,
            cnps: 0,
            p,
        }
    }

    /// Current sending rate in bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rc as u64
    }

    /// Current α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total CNPs processed.
    pub fn cnps(&self) -> u64 {
        self.cnps
    }

    /// A CNP arrived: cut the rate, raise α, restart the recovery ladder.
    pub fn on_cnp(&mut self) {
        self.cnps += 1;
        self.rt = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(self.p.min_rate_bps as f64);
        self.alpha = (1.0 - self.p.g) * self.alpha + self.p.g;
        self.t_events = 0;
        self.bc_events = 0;
        self.byte_accum = 0;
        self.cnp_since_alpha_tick = true;
    }

    /// The α-decay timer fired (period `alpha_timer_ps`).
    pub fn on_alpha_timer(&mut self) {
        if !self.cnp_since_alpha_tick {
            self.alpha *= 1.0 - self.p.g;
        }
        self.cnp_since_alpha_tick = false;
    }

    /// The rate-increase timer fired (period `increase_timer_ps`).
    pub fn on_increase_timer(&mut self) {
        self.t_events = self.t_events.saturating_add(1);
        self.increase();
    }

    /// Account transmitted bytes; may trigger byte-counter increase events.
    pub fn on_bytes_sent(&mut self, bytes: u64) {
        self.byte_accum += bytes;
        while self.byte_accum >= self.p.byte_counter_bytes {
            self.byte_accum -= self.p.byte_counter_bytes;
            self.bc_events = self.bc_events.saturating_add(1);
            self.increase();
        }
    }

    /// One step of the recovery ladder.
    fn increase(&mut self) {
        let f = self.p.fast_recovery_stages;
        if self.t_events > f && self.bc_events > f {
            // Hyper increase.
            self.rt += self.p.rate_hai_bps as f64;
        } else if self.t_events > f || self.bc_events > f {
            // Additive increase.
            self.rt += self.p.rate_ai_bps as f64;
        }
        // All stages (including fast recovery) binary-search R_C toward R_T.
        self.rt = self.rt.min(self.p.line_rate_bps as f64);
        self.rc = ((self.rt + self.rc) / 2.0).min(self.p.line_rate_bps as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rp() -> ReactionPoint {
        ReactionPoint::new(DcqcnParams::fig20(10_000_000_000))
    }

    #[test]
    fn starts_at_line_rate() {
        assert_eq!(rp().rate_bps(), 10_000_000_000);
    }

    #[test]
    fn cnp_cuts_by_alpha_half() {
        let mut r = rp();
        r.on_cnp();
        // α₀ = 0.5 → cut factor 0.75.
        assert_eq!(r.rate_bps(), 7_500_000_000);
        assert!(r.alpha() > 0.5, "α must rise on CNP");
    }

    #[test]
    fn repeated_cnps_drive_rate_down() {
        let mut r = rp();
        for _ in 0..50 {
            r.on_cnp();
        }
        assert!(r.rate_bps() < 1_000_000_000);
        assert!(r.rate_bps() >= 1_000_000, "min-rate floor holds");
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut r = rp();
        r.on_cnp(); // rt = 10G, rc = 7.5G
        for _ in 0..5 {
            r.on_increase_timer();
        }
        // Binary search: 7.5 → 8.75 → 9.375 → … towards 10G.
        let gbps = r.rate_bps() as f64 / 1e9;
        assert!(gbps > 9.9 && gbps < 10.0, "rc = {gbps} Gbps");
    }

    #[test]
    fn additive_increase_raises_target() {
        let mut r = rp();
        r.on_cnp();
        for _ in 0..20 {
            r.on_increase_timer();
        }
        // After fast recovery the timer alone pushes RT up additively; RC
        // approaches line rate and is capped there.
        assert!(r.rate_bps() <= 10_000_000_000);
        assert!(r.rate_bps() > 9_990_000_000);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut r = rp();
        r.on_cnp();
        let a1 = r.alpha();
        r.on_alpha_timer(); // CNP arrived since last tick → no decay
        assert_eq!(r.alpha(), a1);
        r.on_alpha_timer(); // quiet interval → decay
        assert!(r.alpha() < a1);
    }

    #[test]
    fn byte_counter_triggers_events() {
        let mut r = rp();
        r.on_cnp();
        let before = r.rate_bps();
        r.on_bytes_sent(10 * 1024 * 1024);
        assert!(r.rate_bps() > before, "byte-counter event must recover rate");
    }

    #[test]
    fn closed_loop_finds_fair_share() {
        // Closed loop: the (idealized) network marks only while the flow
        // exceeds its 5 Gb/s fair share. The rate must hover around the
        // fair share — neither collapse to the floor nor stick at line
        // rate.
        let mut r = rp();
        for _ in 0..2000 {
            if r.rate_bps() > 5_000_000_000 {
                r.on_cnp();
            }
            r.on_alpha_timer();
            r.on_increase_timer();
        }
        let gbps = r.rate_bps() as f64 / 1e9;
        assert!(gbps > 2.0 && gbps < 7.0, "steady rate {gbps} Gbps");
    }
}
