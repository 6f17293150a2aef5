//! Progress-based deadlock verdicts.
//!
//! Deadlock is a *standstill*: packets are queued but nothing moves, and
//! the network cannot recover autonomously (§1). The simulator feeds this
//! monitor a sample per check interval — total packets delivered so far
//! and whether any buffer still holds packets. If the backlog persists
//! with zero deliveries for a full window, the run is declared
//! deadlocked. (The structural wait-for-cycle detector lives in the
//! engines, next to the queue state it inspects; this monitor is the
//! implementation-independent referee.) Both engines feed it: the
//! sequential one on its monitor ticks, the sharded one at its monitor
//! barriers.

/// Verdict state machine over `(time, delivered, backlog)` samples.
#[derive(Debug, Clone)]
pub(crate) struct ProgressMonitor {
    window_ps: u64,
    /// Last instant at which progress was observed (or the network had no
    /// backlog).
    last_progress_ps: u64,
    last_delivered: u64,
    /// Start of the stall that triggered the verdict.
    deadlock_at_ps: Option<u64>,
}

impl ProgressMonitor {
    /// New monitor declaring deadlock after `window_ps` of backlogged
    /// zero-progress.
    pub(crate) fn new(window_ps: u64) -> Self {
        assert!(window_ps > 0);
        ProgressMonitor { window_ps, last_progress_ps: 0, last_delivered: 0, deadlock_at_ps: None }
    }

    /// Feed a sample: at `t_ps` the network has delivered `delivered`
    /// packets in total and `backlogged` says whether any queue is
    /// non-empty. Returns whether deliveries advanced since the previous
    /// sample (the engines run their structural check only when not).
    pub(crate) fn sample(&mut self, t_ps: u64, delivered: u64, backlogged: bool) -> bool {
        assert!(delivered >= self.last_delivered, "delivered counter went backwards");
        let progressed = delivered > self.last_delivered;
        self.last_delivered = delivered;
        if progressed || !backlogged {
            self.last_progress_ps = t_ps;
        } else if self.deadlock_at_ps.is_none()
            && t_ps.saturating_sub(self.last_progress_ps) >= self.window_ps
        {
            self.deadlock_at_ps = Some(self.last_progress_ps);
        }
        progressed
    }

    /// When the deadlock (start of the fatal stall) was detected, if ever.
    pub(crate) fn deadlock_at_ps(&self) -> Option<u64> {
        self.deadlock_at_ps
    }

    /// Last sampled instant at which progress was observed (or the
    /// network held no backlog) — the "no progress since" line of a
    /// forensics report.
    pub(crate) fn last_progress_ps(&self) -> u64 {
        self.last_progress_ps
    }

    /// Whether a deadlock verdict has been reached.
    pub(crate) fn deadlocked(&self) -> bool {
        self.deadlock_at_ps.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_no_deadlock() {
        let mut m = ProgressMonitor::new(1000);
        for i in 0..100u64 {
            m.sample(i * 100, i, true);
        }
        assert!(!m.deadlocked());
    }

    #[test]
    fn stall_with_backlog_is_deadlock() {
        let mut m = ProgressMonitor::new(1000);
        m.sample(0, 5, true);
        m.sample(500, 5, true);
        assert!(!m.deadlocked());
        m.sample(1600, 5, true);
        assert!(m.deadlocked());
        // The verdict points at the stall start (first zero-progress
        // sample), not the detection instant.
        assert_eq!(m.deadlock_at_ps(), Some(0));
    }

    #[test]
    fn idle_empty_network_is_fine() {
        let mut m = ProgressMonitor::new(1000);
        for i in 0..10u64 {
            m.sample(i * 1000, 7, false);
        }
        assert!(!m.deadlocked());
    }

    #[test]
    fn progress_resets_the_window() {
        let mut m = ProgressMonitor::new(1000);
        assert!(!m.sample(0, 0, true));
        assert!(!m.sample(900, 0, true));
        assert!(m.sample(950, 1, true)); // progress!
        assert!(!m.sample(1900, 1, true));
        assert!(!m.deadlocked());
        m.sample(2000, 1, true);
        assert!(m.deadlocked());
        assert_eq!(m.deadlock_at_ps(), Some(950));
    }

    #[test]
    fn verdict_is_sticky() {
        let mut m = ProgressMonitor::new(100);
        m.sample(0, 0, true);
        m.sample(200, 0, true);
        assert!(m.deadlocked());
        // Even if something moves later (it can't in a real deadlock, but
        // defensive), the first verdict stands.
        m.sample(300, 5, true);
        assert!(m.deadlocked());
        assert_eq!(m.deadlock_at_ps(), Some(0));
    }
}
