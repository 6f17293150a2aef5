//! k-ary fat-tree construction (Al-Fares et al., SIGCOMM'08), link-failure
//! injection, and the Fig. 11 deadlock-prone scenario.
//!
//! Layout for even `k`:
//! * `k` pods, each with `k/2` edge switches and `k/2` aggregation
//!   switches;
//! * `(k/2)²` core switches;
//! * each edge switch hosts `k/2` servers;
//! * aggregation switch at position `a` of every pod connects to cores
//!   `a·k/2 … a·k/2 + k/2 − 1`.
//!
//! Names follow the paper's Fig. 11: hosts `H0…`, edge `SE<i>`,
//! aggregation `SA<i>`, core `SC<i>` (global indices).

use crate::graph::{LinkId, NodeId, Topology};
use rand::Rng;
use std::collections::{HashMap, VecDeque};

/// A complete static route table: `(src, dst) → path links` (the shape
/// [`Routing::fixed`](crate::Routing::fixed) consumes).
pub type RouteMap = HashMap<(NodeId, NodeId), Vec<LinkId>>;

/// A constructed fat-tree with its index maps.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// The graph.
    pub topo: Topology,
    /// Arity (even, ≥ 4).
    pub k: usize,
    /// Host ids in global order.
    pub hosts: Vec<NodeId>,
    /// Edge-switch ids, pod-major (`pod·k/2 + position`).
    pub edges: Vec<NodeId>,
    /// Aggregation-switch ids, pod-major.
    pub aggs: Vec<NodeId>,
    /// Core-switch ids.
    pub cores: Vec<NodeId>,
    /// Host-to-edge links, host order.
    pub host_links: Vec<LinkId>,
    /// Edge-to-agg links.
    pub edge_agg_links: Vec<LinkId>,
    /// Agg-to-core links.
    pub agg_core_links: Vec<LinkId>,
}

impl FatTree {
    /// Build a k-ary fat-tree; panics unless `k` is even and ≥ 4.
    pub fn new(k: usize) -> Self {
        assert!(k >= 4 && k.is_multiple_of(2), "fat-tree arity must be even and >= 4");
        let half = k / 2;
        let mut topo = Topology::new();

        let hosts: Vec<NodeId> =
            (0..k * half * half).map(|i| topo.add_host(format!("H{i}"))).collect();
        let edges: Vec<NodeId> = (0..k * half).map(|i| topo.add_switch(format!("SE{i}"))).collect();
        let aggs: Vec<NodeId> = (0..k * half).map(|i| topo.add_switch(format!("SA{i}"))).collect();
        let cores: Vec<NodeId> =
            (0..half * half).map(|i| topo.add_switch(format!("SC{i}"))).collect();

        let mut host_links = Vec::new();
        let mut edge_agg_links = Vec::new();
        let mut agg_core_links = Vec::new();

        for pod in 0..k {
            for e in 0..half {
                let edge = edges[pod * half + e];
                for h in 0..half {
                    let host = hosts[pod * half * half + e * half + h];
                    host_links.push(topo.add_link(host, edge));
                }
                for a in 0..half {
                    edge_agg_links.push(topo.add_link(edge, aggs[pod * half + a]));
                }
            }
            for a in 0..half {
                let agg = aggs[pod * half + a];
                for c in 0..half {
                    agg_core_links.push(topo.add_link(agg, cores[a * half + c]));
                }
            }
        }

        FatTree { topo, k, hosts, edges, aggs, cores, host_links, edge_agg_links, agg_core_links }
    }

    /// The pod a host belongs to.
    pub fn pod_of_host(&self, host_index: usize) -> usize {
        let per_pod = (self.k / 2) * (self.k / 2);
        host_index / per_pod
    }

    /// The rack (edge switch global index) a host belongs to.
    pub fn rack_of_host(&self, host_index: usize) -> usize {
        host_index / (self.k / 2)
    }

    /// Fabric links (edge–agg and agg–core): the candidates for random
    /// failure injection. Host links are excluded — a failed host link just
    /// removes the host, which the paper's 5 % failure model does not
    /// intend.
    pub fn fabric_links(&self) -> Vec<LinkId> {
        self.edge_agg_links.iter().chain(&self.agg_core_links).copied().collect()
    }

    /// The tier of a node: host 0, edge 1, aggregation 2, core 3.
    /// (Construction order guarantees contiguous id ranges per tier.)
    pub fn tier(&self, n: NodeId) -> usize {
        let i = n.0 as usize;
        if i < self.hosts.len() {
            0
        } else if i < self.hosts.len() + self.edges.len() {
            1
        } else if i < self.hosts.len() + self.edges.len() + self.aggs.len() {
            2
        } else {
            3
        }
    }

    /// Up/down-restricted static routes for every host pair: climb toward
    /// the core, then descend, never turning from down back to up — the
    /// classical deadlock-free routing on multi-rooted trees. Unlike
    /// unrestricted SPF on a failed fat-tree (whose detours can re-ascend
    /// and close a cyclic buffer dependency, Fig. 11), these routes admit
    /// no CBD by construction. Pairs left without a surviving up/down path
    /// are omitted. Deterministic: BFS in port order, shortest such path.
    pub fn updown_routes(&self) -> RouteMap {
        let n = self.topo.num_nodes();
        let mut routes = HashMap::new();
        for &src in &self.hosts {
            // BFS over product states (node, phase): state = node·2 + phase,
            // phase 0 = still ascending, phase 1 = descending.
            let mut parent: Vec<Option<(usize, LinkId)>> = vec![None; 2 * n];
            let mut seen = vec![false; 2 * n];
            let start = (src.0 as usize) * 2;
            seen[start] = true;
            let mut queue = VecDeque::from([start]);
            while let Some(state) = queue.pop_front() {
                let v = NodeId((state / 2) as u32);
                let descending = state % 2 == 1;
                for (u, l) in self.topo.neighbors(v) {
                    let next = if self.tier(u) > self.tier(v) {
                        if descending {
                            continue; // a down→up turn would break the invariant
                        }
                        (u.0 as usize) * 2
                    } else {
                        (u.0 as usize) * 2 + 1
                    };
                    if !seen[next] {
                        seen[next] = true;
                        parent[next] = Some((state, l));
                        queue.push_back(next);
                    }
                }
            }
            for &dst in &self.hosts {
                if dst == src {
                    continue;
                }
                // A host is always entered downward from its edge switch.
                let target = (dst.0 as usize) * 2 + 1;
                if !seen[target] {
                    continue;
                }
                let mut links = Vec::new();
                let mut state = target;
                while let Some((prev, l)) = parent[state] {
                    links.push(l);
                    state = prev;
                }
                links.reverse();
                routes.insert((src, dst), links);
            }
        }
        routes
    }

    /// Fail each fabric link independently with probability `p`.
    /// Returns the failed set.
    pub fn inject_failures(&mut self, rng: &mut impl Rng, p: f64) -> Vec<LinkId> {
        let mut failed = Vec::new();
        for l in self.fabric_links() {
            if rng.gen_bool(p) {
                self.topo.fail_link(l);
                failed.push(l);
            }
        }
        failed
    }
}

/// The four flows of the Fig. 11 case study on a k=4 fat-tree:
/// `F1: H0→H8, F2: H4→H12, F3: H9→H1, F4: H13→H5`.
pub const FIG11_FLOWS: [(usize, usize); 4] = [(0, 8), (4, 12), (9, 1), (13, 5)];

/// The Fig. 11 scenario: a k=4 fat-tree with three failed links chosen so
/// that shortest-path routing of the four [`FIG11_FLOWS`] yields a
/// four-link CBD through two cores and two aggregation switches.
#[derive(Debug, Clone)]
pub struct Fig11Scenario {
    /// The three failed links.
    pub failed: Vec<LinkId>,
    /// ECMP hash per flow that realizes the CBD paths.
    pub flow_hashes: [u64; 4],
    /// The four flows' SPF paths under those hashes, in [`FIG11_FLOWS`]
    /// order: together they form the CBD.
    pub paths: [Vec<LinkId>; 4],
}

/// Search for a Fig. 11 failure set: try 3-subsets of fabric links
/// (edge–agg and agg–core, the levels where the paper's dashed failures
/// sit) until the four flows' SPF paths contain a CBD. Deterministic:
/// subsets are enumerated in lexicographic order and the first hit wins.
pub fn find_fig11_failures(max_hash_tries: u64) -> Option<(FatTree, Fig11Scenario)> {
    let template = FatTree::new(4);
    let candidates = template.fabric_links();
    let n = candidates.len();
    for i in 0..n {
        for j in (i + 1)..n {
            for l in (j + 1)..n {
                let mut ft = template.clone();
                let failed = vec![candidates[i], candidates[j], candidates[l]];
                for &f in &failed {
                    ft.topo.fail_link(f);
                }
                if !ft.topo.hosts_connected() {
                    continue;
                }
                if let Some((flow_hashes, paths)) = fig11_cbd_paths(&ft, max_hash_tries) {
                    return Some((ft, Fig11Scenario { failed, flow_hashes, paths }));
                }
            }
        }
    }
    None
}

/// Search seeded failed k=4 fat-trees (8 % fabric-link failures) for the
/// up/down showcase: a fabric whose all-pairs SPF union admits a CBD (the
/// Table 1 prefilter cries wolf) while strict up/down routes still cover
/// every host pair — and, by construction, admit no CBD at all. Returns
/// the fabric and its complete up/down route set. Deterministic: seeds
/// are tried in order and the first hit wins.
pub fn find_updown_showcase(max_seeds: u64) -> Option<(FatTree, RouteMap)> {
    use rand::{rngs::StdRng, SeedableRng};
    for seed in 0..max_seeds {
        let mut ft = FatTree::new(4);
        let mut rng = StdRng::seed_from_u64(seed);
        ft.inject_failures(&mut rng, 0.08);
        if !ft.topo.hosts_connected() || !crate::cbd::cbd_prone(&ft.topo) {
            continue;
        }
        let routes = ft.updown_routes();
        if routes.len() == ft.hosts.len() * (ft.hosts.len() - 1) {
            return Some((ft, routes));
        }
    }
    None
}

/// For a failed fat-tree, search per-flow ECMP hashes under which the four
/// Fig. 11 flows form a CBD. Tries `tries` hash assignments (diagonalized),
/// returns the first that works with the paths it realizes.
fn fig11_cbd_paths(ft: &FatTree, tries: u64) -> Option<([u64; 4], [Vec<LinkId>; 4])> {
    use crate::cbd::depgraph_for_flows;
    use crate::routing::SpfRouting;
    let mut routing = SpfRouting::new();
    for t in 0..tries {
        // Vary hashes in a low-discrepancy-ish way across tries.
        let hashes = [t, t.wrapping_mul(3), t.wrapping_mul(7), t.wrapping_mul(13)];
        let Some(paths) = FIG11_FLOWS
            .iter()
            .zip(hashes)
            .map(|(&(s, d), h)| routing.path(&ft.topo, ft.hosts[s], ft.hosts[d], h))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let flows: Vec<_> =
            FIG11_FLOWS.iter().zip(&paths).map(|(&(s, _), p)| (ft.hosts[s], p.clone())).collect();
        if depgraph_for_flows(&ft.topo, &flows).has_cycle() {
            return Some((hashes, paths.try_into().expect("one path per Fig. 11 flow")));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbd::cbd_prone;
    use crate::routing::SpfRouting;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sizes_k4() {
        let ft = FatTree::new(4);
        assert_eq!(ft.hosts.len(), 16);
        assert_eq!(ft.edges.len(), 8);
        assert_eq!(ft.aggs.len(), 8);
        assert_eq!(ft.cores.len(), 4);
        assert_eq!(ft.host_links.len(), 16);
        assert_eq!(ft.edge_agg_links.len(), 16);
        assert_eq!(ft.agg_core_links.len(), 16);
        assert!(ft.topo.hosts_connected());
    }

    #[test]
    fn sizes_k8() {
        let ft = FatTree::new(8);
        assert_eq!(ft.hosts.len(), 128);
        assert_eq!(ft.cores.len(), 16);
        assert_eq!(ft.topo.num_links(), 128 + 128 + 128);
    }

    #[test]
    fn intra_pod_paths_avoid_core() {
        let ft = FatTree::new(4);
        let mut r = SpfRouting::new();
        // H0 and H2 share a pod but not a rack: 4-hop path via an agg.
        let p = r.path(&ft.topo, ft.hosts[0], ft.hosts[2], 5).unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn inter_pod_paths_use_core() {
        let ft = FatTree::new(4);
        let mut r = SpfRouting::new();
        let p = r.path(&ft.topo, ft.hosts[0], ft.hosts[8], 5).unwrap();
        assert_eq!(p.len(), 6, "inter-pod shortest path is 6 links");
    }

    #[test]
    fn same_rack_is_two_hops() {
        let ft = FatTree::new(4);
        let mut r = SpfRouting::new();
        let p = r.path(&ft.topo, ft.hosts[0], ft.hosts[1], 5).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn healthy_fat_tree_is_cbd_free() {
        let ft = FatTree::new(4);
        assert!(!cbd_prone(&ft.topo), "an unfailed fat-tree must be CBD-free under SPF");
    }

    #[test]
    fn pod_and_rack_indexing() {
        let ft = FatTree::new(4);
        assert_eq!(ft.pod_of_host(0), 0);
        assert_eq!(ft.pod_of_host(8), 2);
        assert_eq!(ft.rack_of_host(3), 1);
        assert_eq!(ft.rack_of_host(13), 6);
    }

    #[test]
    fn failure_injection_respects_probability() {
        let mut ft = FatTree::new(8);
        let mut rng = StdRng::seed_from_u64(7);
        let failed = ft.inject_failures(&mut rng, 0.05);
        let fabric = ft.fabric_links().len();
        // 256 fabric links at 5 % → expect ~13, allow wide slack.
        assert!(failed.len() < fabric / 5, "failed {} of {}", failed.len(), fabric);
        for l in failed {
            assert!(!ft.topo.link_alive(l));
        }
    }

    #[test]
    fn updown_routes_cover_all_pairs_and_admit_no_cbd() {
        let ft = FatTree::new(4);
        let routes = ft.updown_routes();
        assert_eq!(routes.len(), 16 * 15, "every ordered host pair gets a route");
        let flows: Vec<_> = routes.iter().map(|(&(s, _), p)| (s, p.clone())).collect();
        for (&(s, d), p) in &routes {
            let nodes = crate::routing::walk_nodes(&ft.topo, s, p).expect("valid walk");
            assert_eq!(nodes.last(), Some(&d));
            // Tiers rise monotonically, then fall — never down-then-up.
            let tiers: Vec<usize> = nodes.iter().map(|&v| ft.tier(v)).collect();
            let peak = tiers.iter().position(|&t| t == *tiers.iter().max().unwrap()).unwrap();
            assert!(tiers[..=peak].windows(2).all(|w| w[1] > w[0]), "{tiers:?}");
            assert!(tiers[peak..].windows(2).all(|w| w[1] < w[0]), "{tiers:?}");
        }
        assert!(!crate::cbd::depgraph_for_flows(&ft.topo, &flows).has_cycle());
    }

    #[test]
    fn updown_on_the_fig11_fabric_is_partial_but_cbd_free() {
        // The Fig. 11 failures disconnect some strict up/down pairs —
        // exactly why SPF's down-then-up detours exist there, and why they
        // deadlock. What up/down *can* route stays CBD-free.
        let (ft, _) = find_fig11_failures(8).expect("Fig. 11 scenario exists");
        let routes = ft.updown_routes();
        assert!(routes.len() < 16 * 15, "Fig. 11 should sever some up/down pair");
        assert!(!routes.is_empty());
        let flows: Vec<_> = routes.iter().map(|(&(s, _), p)| (s, p.clone())).collect();
        assert!(!crate::cbd::depgraph_for_flows(&ft.topo, &flows).has_cycle());
    }

    #[test]
    fn updown_showcase_fabric_exists() {
        // A failed fabric the Table 1 prefilter flags as CBD-prone, on
        // which complete up/down routes exist and admit no CBD.
        let (ft, routes) = find_updown_showcase(50).expect("showcase fabric within 50 seeds");
        assert!(cbd_prone(&ft.topo));
        assert_eq!(routes.len(), 16 * 15);
        let flows: Vec<_> = routes.iter().map(|(&(s, _), p)| (s, p.clone())).collect();
        assert!(!crate::cbd::depgraph_for_flows(&ft.topo, &flows).has_cycle());
    }

    #[test]
    fn fig11_scenario_exists() {
        let found = find_fig11_failures(8);
        assert!(found.is_some(), "no 3-failure agg-core set yields a CBD for the Fig. 11 flows");
        let (ft, sc) = found.unwrap();
        assert_eq!(sc.failed.len(), 3);
        assert!(ft.topo.hosts_connected());
    }

    #[test]
    fn fig11_paths_are_the_hashed_spf_paths_and_form_the_cbd() {
        let (ft, sc) = find_fig11_failures(8).expect("Fig. 11 scenario exists");
        let mut r = SpfRouting::new();
        let mut flows = Vec::new();
        for (i, &(s, d)) in FIG11_FLOWS.iter().enumerate() {
            let (src, dst) = (ft.hosts[s], ft.hosts[d]);
            assert_eq!(r.path(&ft.topo, src, dst, sc.flow_hashes[i]).as_ref(), Some(&sc.paths[i]));
            let nodes =
                crate::routing::walk_nodes(&ft.topo, src, &sc.paths[i]).expect("valid walk");
            assert_eq!(nodes.last(), Some(&dst));
            flows.push((src, sc.paths[i].clone()));
        }
        assert!(crate::cbd::depgraph_for_flows(&ft.topo, &flows).has_cycle());
        // No three of the four paths close the cycle: it needs every flow.
        for skip in 0..4 {
            let rest: Vec<_> = flows
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, f)| f.clone())
                .collect();
            assert!(
                !crate::cbd::depgraph_for_flows(&ft.topo, &rest).has_cycle(),
                "skip F{}",
                skip + 1
            );
        }
    }
}
