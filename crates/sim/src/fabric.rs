//! The immutable, fabric-wide part of a network: the topology, its port
//! wiring, the host tables and the flow-control backend factory. A
//! sequential [`Network`](crate::Network) builds one; a
//! [`ShardedNetwork`](crate::ShardedNetwork) builds one and every shard
//! holds the same [`Arc`](std::sync::Arc) of it, so a shard builds only
//! its own mutable state.

use crate::config::SimConfig;
use gfc_core::FcBackends;
use gfc_topology::{LinkId, NodeId, Topology};

/// The shared, read-only description of the simulated fabric.
#[derive(Debug)]
pub(crate) struct Fabric {
    /// The topology being simulated (immutable during a run).
    pub(crate) topo: Topology,
    /// Per-link `(a, port on a, port on b)`: O(1) next-hop port lookup on
    /// the per-hop forwarding path (replaces the adjacency scan).
    link_ports: Vec<(NodeId, u16, u16)>,
    /// Every host, in node-id order; a host's position is its index.
    pub(crate) host_list: Vec<NodeId>,
    /// NodeId → host index (`u32::MAX` for switches). NodeIds are dense,
    /// so this is a straight table lookup on the delivery hot path.
    host_of_node: Vec<u32>,
    /// One backend factory for every port: what the scheme derives from
    /// the config (the GFC stage table) is built once and shared.
    pub(crate) fc: FcBackends,
}

impl Fabric {
    /// Validate `cfg` and describe `topo` under it.
    ///
    /// # Panics
    /// On an inconsistent configuration (see [`SimConfig::validate`]), or
    /// when the node count exceeds the canonical dispatch-rank field.
    pub(crate) fn new(topo: Topology, cfg: &SimConfig) -> Self {
        cfg.validate();
        assert!(
            topo.num_nodes() < (1 << 20),
            "node count exceeds the canonical dispatch-rank field (2^20)"
        );
        // One pass over the adjacency: every link appears once at each of
        // its two endpoints.
        let mut link_ports: Vec<(NodeId, u16, u16)> =
            topo.link_ids().map(|l| (topo.link(l).a, 0, 0)).collect();
        for n in topo.node_ids() {
            for (idx, &(_, l)) in topo.ports(n).iter().enumerate() {
                let port = u16::try_from(idx).expect("port index fits u16");
                let entry = &mut link_ports[l.0 as usize];
                if entry.0 == n {
                    entry.1 = port;
                } else {
                    entry.2 = port;
                }
            }
        }
        let host_list = topo.hosts();
        let mut host_of_node = vec![u32::MAX; topo.num_nodes()];
        for (i, &h) in host_list.iter().enumerate() {
            host_of_node[h.0 as usize] = u32::try_from(i).expect("host count fits u32");
        }
        let fc = FcBackends::new(cfg.fc, cfg.capacity, cfg.buffer_bytes);
        Fabric { topo, link_ports, host_list, host_of_node, fc }
    }

    /// The port `link` occupies on `node` (O(1), unlike
    /// [`Topology::port_of`]'s adjacency scan — this sits on the per-hop
    /// forwarding path).
    #[inline]
    pub(crate) fn port_of(&self, node: NodeId, link: LinkId) -> usize {
        let (a, pa, pb) = self.link_ports[link.0 as usize];
        if node == a {
            pa as usize
        } else {
            pb as usize
        }
    }

    /// `node`'s host index, or `u32::MAX` for a switch.
    #[inline]
    pub(crate) fn host_index(&self, node: NodeId) -> u32 {
        self.host_of_node[node.0 as usize]
    }
}
