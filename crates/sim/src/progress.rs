//! Deadlock verdicts. Deadlock is a *standstill*: packets are queued but
//! nothing moves, and the network cannot recover autonomously (§1). If
//! the backlog persists with zero deliveries for a full window, the run
//! is declared deadlocked (the progress verdict); a wait-for cycle on a
//! stalled step is the strict structural verdict. Both engines take the
//! one [`DeadlockMonitor::step`]: the sequential one on its `MonitorTick`,
//! the sharded coordinator at its monitor barriers, over every shard.

use crate::config::SimConfig;
use crate::network::Network;
use gfc_core::units::Time;
use gfc_telemetry::WaitForGraph;

/// The run's deadlock verdicts and the stop-on-deadlock halt. `Copy`, so
/// the sequential engine can step a copy while the step borrows the
/// network that owns it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeadlockMonitor {
    window_ps: u64,
    stop_on_deadlock: bool,
    /// Last sampled instant with progress (or no backlog) — the "no
    /// progress since" line of a forensics report.
    last_progress_ps: u64,
    last_delivered: u64,
    /// Progress verdict: the start of the stall (backlogged, zero
    /// deliveries) that lasted a full window.
    deadlock_at: Option<Time>,
    /// Structural verdict: the first step that found a wait-for cycle.
    structural_at: Option<Time>,
}

impl DeadlockMonitor {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        assert!(cfg.progress_window.0 > 0);
        DeadlockMonitor {
            window_ps: cfg.progress_window.0,
            stop_on_deadlock: cfg.stop_on_deadlock,
            last_progress_ps: 0,
            last_delivered: 0,
            deadlock_at: None,
            structural_at: None,
        }
    }

    /// The monitor step at `now` over `nets`, chunks of networks (the one
    /// network of a sequential run, or every shard of a sharded one, in
    /// shard order, as the coordinator holds them):
    /// bring each clock to `now` and take its engine-probe sample, sample
    /// the summed deliveries and the OR-ed backlog, and on a stalled,
    /// backlogged step look for a cycle in the one wait-for graph every
    /// network adds its edges to. Returns the graph and cycle of the
    /// run's first structural deadlock, on the step that finds it.
    pub(crate) fn step(
        &mut self,
        now: Time,
        nets: &mut [&mut [Network]],
    ) -> Option<(WaitForGraph, Vec<usize>)> {
        let mut backlogged = false;
        let mut delivered = 0;
        for n in nets.iter_mut().flat_map(|chunk| chunk.iter_mut()) {
            n.set_now(now);
            n.probe_queue_sample();
            backlogged |= n.backlogged();
            delivered += n.delivered_packets();
        }
        let progressed = self.sample(now.0, delivered, backlogged);
        // Structural check only on stalled ticks (free when healthy): a
        // wait-for cycle observed while nothing moves is a deadlock in the
        // paper's sense — circular hold-and-wait.
        if self.structural_at.is_some() || !backlogged || progressed {
            return None;
        }
        let mut graph = WaitForGraph::new();
        for n in nets.iter().flat_map(|chunk| chunk.iter()) {
            n.add_waitfor_edges(&mut graph);
        }
        let cycle = graph.find_cycle()?;
        self.structural_at = Some(now);
        Some((graph, cycle))
    }

    /// A verdict stands and the run stops on deadlock.
    pub(crate) fn halted(&self) -> bool {
        self.stop_on_deadlock && (self.deadlock_at.is_some() || self.structural_at.is_some())
    }

    pub(crate) fn deadlock_at(&self) -> Option<Time> {
        self.deadlock_at
    }

    pub(crate) fn structural_at(&self) -> Option<Time> {
        self.structural_at
    }

    pub(crate) fn last_progress_ps(&self) -> u64 {
        self.last_progress_ps
    }

    /// The progress verdict's state machine: at `t_ps` the run has
    /// delivered `delivered` packets in total and `backlogged` says
    /// whether any queue is non-empty. Returns whether deliveries advanced
    /// since the previous sample.
    fn sample(&mut self, t_ps: u64, delivered: u64, backlogged: bool) -> bool {
        assert!(delivered >= self.last_delivered, "delivered counter went backwards");
        let progressed = delivered > self.last_delivered;
        self.last_delivered = delivered;
        if progressed || !backlogged {
            self.last_progress_ps = t_ps;
        } else if self.deadlock_at.is_none()
            && t_ps.saturating_sub(self.last_progress_ps) >= self.window_ps
        {
            self.deadlock_at = Some(Time(self.last_progress_ps));
        }
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfc_core::units::Dur;

    /// A monitor declaring deadlock after `window_ps` of backlogged
    /// zero-progress.
    fn monitor(window_ps: u64) -> DeadlockMonitor {
        let mut cfg = SimConfig::default_10g();
        cfg.progress_window = Dur(window_ps);
        DeadlockMonitor::new(&cfg)
    }

    #[test]
    fn clean_run_no_deadlock() {
        let mut m = monitor(1000);
        for i in 0..100u64 {
            m.sample(i * 100, i, true);
        }
        assert!(m.deadlock_at.is_none());
    }

    #[test]
    fn stall_with_backlog_is_deadlock() {
        let mut m = monitor(1000);
        m.sample(0, 5, true);
        m.sample(500, 5, true);
        assert!(m.deadlock_at.is_none());
        m.sample(1600, 5, true);
        assert!(m.deadlock_at.is_some());
        // The verdict points at the stall start (first zero-progress
        // sample), not the detection instant.
        assert_eq!(m.deadlock_at, Some(Time(0)));
    }

    #[test]
    fn idle_empty_network_is_fine() {
        let mut m = monitor(1000);
        for i in 0..10u64 {
            m.sample(i * 1000, 7, false);
        }
        assert!(m.deadlock_at.is_none());
    }

    #[test]
    fn progress_resets_the_window() {
        let mut m = monitor(1000);
        assert!(!m.sample(0, 0, true));
        assert!(!m.sample(900, 0, true));
        assert!(m.sample(950, 1, true)); // progress!
        assert!(!m.sample(1900, 1, true));
        assert!(m.deadlock_at.is_none());
        m.sample(2000, 1, true);
        assert!(m.deadlock_at.is_some());
        assert_eq!(m.deadlock_at, Some(Time(950)));
    }

    #[test]
    fn verdict_is_sticky() {
        let mut m = monitor(100);
        m.sample(0, 0, true);
        m.sample(200, 0, true);
        assert!(m.deadlock_at.is_some());
        // Even if something moves later (it can't in a real deadlock, but
        // defensive), the first verdict stands.
        m.sample(300, 5, true);
        assert!(m.deadlock_at.is_some());
        assert_eq!(m.deadlock_at, Some(Time(0)));
    }
}
