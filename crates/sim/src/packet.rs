//! Data packets.

use gfc_topology::{LinkId, NodeId};
use std::sync::Arc;

/// A data frame in flight. `bytes` is the full on-wire size (the simulator
/// does not model header overhead separately). Packets are source-routed:
/// the path is resolved once at flow start and carried by reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Globally unique packet id.
    pub id: u64,
    /// Flow the packet belongs to (the simulator's flow ids fit `u32`).
    pub flow: u32,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// On-wire size in bytes.
    pub bytes: u64,
    /// Priority class (0..8) / virtual lane.
    pub prio: u8,
    /// The links the packet traverses, in order.
    pub path: Arc<[LinkId]>,
    /// Index into `path` of the next link to take (paths are at most
    /// `u16::MAX` links).
    pub hop: u16,
    /// ECN congestion-experienced mark.
    pub ecn_marked: bool,
}

impl Packet {
    /// The next link the packet must take; `None` once delivered.
    pub fn next_link(&self) -> Option<LinkId> {
        self.path.get(usize::from(self.hop)).copied()
    }

    /// Whether this node is the last hop (no more links).
    pub fn at_destination(&self) -> bool {
        usize::from(self.hop) >= self.path.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_walk() {
        let path: Arc<[LinkId]> = Arc::from(vec![LinkId(3), LinkId(5)].into_boxed_slice());
        let mut p = Packet {
            id: 1,
            flow: 1,
            src: NodeId(0),
            dst: NodeId(9),
            bytes: 1500,
            prio: 0,
            path,
            hop: 0,
            ecn_marked: false,
        };
        assert_eq!(p.next_link(), Some(LinkId(3)));
        p.hop += 1;
        assert_eq!(p.next_link(), Some(LinkId(5)));
        p.hop += 1;
        assert!(p.at_destination());
        assert_eq!(p.next_link(), None);
    }
}
