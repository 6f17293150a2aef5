//! Flow generation: the workload interface and the standard generators.

use gfc_core::units::Time;
use gfc_workload::{DestPolicy, FlowSizeDist};
use rand::rngs::StdRng;

/// A request for one new flow from a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRequest {
    /// Destination host index (into the topology's host list).
    pub dst_index: usize,
    /// Payload size; `None` = infinite (line-rate greedy source).
    pub bytes: Option<u64>,
    /// Priority class.
    pub prio: u8,
}

/// Supplies flows to hosts. `next_flow` is called once per host at t = 0
/// and again each time one of the host's flows completes (the paper's
/// closed-loop model, §6.2.3). Returning `None` leaves the host idle
/// permanently (it is not polled again).
/// (`Send` because the owning [`Network`](crate::Network) may run on a
/// sharded-engine worker thread.)
pub trait Workload: Send {
    /// The next flow for `host_index`, or `None` to stop.
    fn next_flow(&mut self, host_index: usize, now: Time, rng: &mut StdRng) -> Option<FlowRequest>;
}

/// The paper's closed-loop workload: every completion immediately triggers
/// a new flow with an empirically distributed size towards a destination
/// picked by the policy (inter-rack in §6.2.3).
#[derive(Debug, Clone)]
pub struct ClosedLoopWorkload {
    /// Flow-size model.
    pub sizes: FlowSizeDist,
    /// Destination policy.
    pub dests: DestPolicy,
    /// Number of hosts (for destination sampling).
    pub num_hosts: usize,
    /// Priority assigned to generated flows.
    pub prio: u8,
    /// Stop generating new flows after this instant (lets runs drain).
    pub stop_after: Option<Time>,
}

impl Workload for ClosedLoopWorkload {
    fn next_flow(&mut self, host_index: usize, now: Time, rng: &mut StdRng) -> Option<FlowRequest> {
        if let Some(stop) = self.stop_after {
            if now >= stop {
                return None;
            }
        }
        let dst = self.dests.pick(host_index, self.num_hosts, rng)?;
        Some(FlowRequest { dst_index: dst, bytes: Some(self.sizes.sample(rng)), prio: self.prio })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn closed_loop_respects_stop() {
        let mut w = ClosedLoopWorkload {
            sizes: FlowSizeDist::Fixed(1000),
            dests: DestPolicy::UniformOther,
            num_hosts: 4,
            prio: 0,
            stop_after: Some(Time::from_micros(10)),
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(w.next_flow(0, Time::ZERO, &mut rng).is_some());
        assert!(w.next_flow(0, Time::from_micros(10), &mut rng).is_none());
    }

    #[test]
    fn closed_loop_never_sends_to_self() {
        let mut w = ClosedLoopWorkload {
            sizes: FlowSizeDist::Fixed(1000),
            dests: DestPolicy::UniformOther,
            num_hosts: 4,
            prio: 0,
            stop_after: None,
        };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let f = w.next_flow(2, Time::ZERO, &mut rng).unwrap();
            assert_ne!(f.dst_index, 2);
        }
    }
}
