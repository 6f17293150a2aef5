//! Shortest-path-first routing with deterministic ECMP, plus explicit
//! static paths for configured scenarios (Fig. 1's clockwise ring).
//!
//! The paper evaluates "the shortest-path-first routing algorithm" on
//! fat-trees with failed links. We compute the BFS distance field toward
//! a root over alive links; every neighbor one hop closer is an
//! equal-cost next hop. A flow picks among equal-cost hops with a
//! deterministic hash of `(flow id, current node)` — the usual per-hop
//! ECMP — so reruns with the same seed take identical paths.
//!
//! The root is the destination's *anchor*. A host whose only alive link
//! goes to a switch `t` is a leaf: every node other than `t` and the host
//! is one hop farther from the host than from `t`, with the same next
//! hops. So its routes are `t`'s routes plus the host link, and one tree
//! per attachment switch serves all its hosts. Any other destination is
//! its own anchor.
//!
//! Paths are resolved once at flow start ("source routing"): the packet
//! carries its link list. On a static topology this is equivalent to
//! per-hop table lookup and keeps the simulator's forwarding path trivial.

use crate::graph::{AliveAdjacency, DirLink, LinkId, NodeId, NodeKind, Topology};
use std::collections::HashMap;

/// BFS result toward one root node.
#[derive(Debug, Clone)]
pub struct DstTree {
    /// `dist[v]` = hop distance from node `v` to the root
    /// (`u32::MAX` if unreachable).
    pub dist: Vec<u32>,
    /// Node `v`'s next hops are `hops[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    hops: Vec<LinkId>,
}

impl DstTree {
    /// Compute the BFS tree toward `root` over the alive links of `adj`.
    pub fn compute(adj: &AliveAdjacency, root: NodeId) -> DstTree {
        let n = adj.num_nodes();
        let mut dist = vec![u32::MAX; n];
        dist[root.0 as usize] = 0;
        // FIFO over a flat buffer: every node enters it at most once.
        let mut queue = Vec::with_capacity(n);
        queue.push(root);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let dv = dist[v.0 as usize] + 1;
            for &(u, _) in adj.neighbors(v) {
                if dist[u.0 as usize] == u32::MAX {
                    dist[u.0 as usize] = dv;
                    queue.push(u);
                }
            }
        }
        // A link is a next hop of at most one of its endpoints, so the
        // alive link count bounds the flat list.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut hops = Vec::with_capacity(adj.num_alive_links());
        offsets.push(0);
        for (v, &dv) in dist.iter().enumerate() {
            if dv != u32::MAX && dv != 0 {
                let start = hops.len();
                hops.extend(
                    adj.neighbors(NodeId(v as u32))
                        .iter()
                        .filter(|&&(u, _)| dist[u.0 as usize] == dv - 1)
                        .map(|&(_, l)| l),
                );
                // Already sorted: `Topology::add_link` appends every link
                // to both endpoints' port lists in increasing id order.
                debug_assert!(hops[start..].windows(2).all(|w| w[0] < w[1]), "next hops unsorted");
            }
            offsets.push(hops.len() as u32);
        }
        DstTree { dist, offsets, hops }
    }

    /// The alive links from `v` leading one hop closer to the root,
    /// sorted by link id.
    pub fn next_hops(&self, v: NodeId) -> &[LinkId] {
        let v = v.0 as usize;
        &self.hops[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The switch and alive link of a host whose only alive link goes to a
/// switch. Toward such a host every route is the switch's route plus
/// that link, so the router and the preflight's all-pairs graphs both
/// take one BFS per attachment switch instead of one per host. `None`
/// for a switch and for a dual-homed, double-cabled, host-attached or
/// cut-off host.
pub(crate) fn attachment(topo: &Topology, host: NodeId) -> Option<(NodeId, LinkId)> {
    if topo.node(host).kind != NodeKind::Host {
        return None;
    }
    let mut alive = topo.neighbors(host);
    let (t, l) = alive.next()?;
    (alive.next().is_none() && topo.node(t).kind == NodeKind::Switch).then_some((t, l))
}

/// A 4-switch ring (one host per switch) plus the destinations
/// [`attachment`] must leave to a tree of their own: a dual-homed host
/// (`HD`), one with two cables to the same switch (`HT`), one behind
/// `HD` (`HB`), one whose only link has failed (`HC`), and a stub switch
/// with a single link (`SS`).
#[cfg(test)]
pub(crate) fn ring_with_odd_destinations() -> Topology {
    let mut topo = crate::scenarios::Ring::new(4).topo;
    let sw = topo.switches();
    let dual = topo.add_host("HD");
    topo.add_link(dual, sw[0]);
    topo.add_link(dual, sw[1]);
    let twin = topo.add_host("HT");
    topo.add_link(twin, sw[2]);
    topo.add_link(twin, sw[2]);
    let behind = topo.add_host("HB");
    topo.add_link(behind, dual);
    let cut = topo.add_host("HC");
    let cut_link = topo.add_link(cut, sw[3]);
    topo.fail_link(cut_link);
    let stub = topo.add_switch("SS");
    topo.add_link(stub, sw[3]);
    topo
}

/// splitmix64 — the deterministic mixer used for ECMP hashing.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shortest-path-first routing oracle with one memoized tree per anchor
/// (the attachment switch of a single-homed host, else the destination
/// itself), each computed over one cached [`AliveAdjacency`] of the
/// topology. `Clone` duplicates the cache, not just the config —
/// harmless, since every tree is a pure function of the topology.
#[derive(Debug, Clone, Default)]
pub struct SpfRouting {
    trees: HashMap<NodeId, DstTree>,
    /// The alive adjacency the trees are computed over, built with the
    /// first tree.
    adj: Option<AliveAdjacency>,
}

impl SpfRouting {
    /// Fresh oracle. Trees are computed lazily per anchor and cached;
    /// call [`Self::invalidate`] after changing link state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all cached trees and the cached adjacency (topology changed).
    pub fn invalidate(&mut self) {
        self.trees.clear();
        self.adj = None;
    }

    /// The cached tree of `dst`'s anchor, the anchor, and the host link
    /// that follows it (`None` when `dst` is its own anchor).
    fn anchored(&mut self, topo: &Topology, dst: NodeId) -> (&DstTree, NodeId, Option<LinkId>) {
        let (anchor, last) = match attachment(topo, dst) {
            Some((t, l)) => (t, Some(l)),
            None => (dst, None),
        };
        let SpfRouting { trees, adj } = self;
        let tree = trees.entry(anchor).or_insert_with(|| {
            DstTree::compute(adj.get_or_insert_with(|| topo.alive_adjacency()), anchor)
        });
        (tree, anchor, last)
    }

    /// Hop distance from `src` to `dst`, if reachable.
    pub fn distance(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<u32> {
        if src == dst {
            return Some(0);
        }
        let (tree, _, last) = self.anchored(topo, dst);
        let d = tree.dist[src.0 as usize];
        (d != u32::MAX).then(|| d + u32::from(last.is_some()))
    }

    /// Resolve the full path (list of links) a flow with ECMP identity
    /// `flow_hash` takes from `src` to `dst`. `None` if unreachable.
    pub fn path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        flow_hash: u64,
    ) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let (tree, anchor, last) = self.anchored(topo, dst);
        let d = tree.dist[src.0 as usize];
        if d == u32::MAX {
            return None;
        }
        let mut path = Vec::with_capacity(d as usize + usize::from(last.is_some()));
        let mut v = src;
        while v != anchor {
            let hops = tree.next_hops(v);
            debug_assert!(!hops.is_empty(), "distance finite but no next hop");
            let pick = (mix64(flow_hash ^ mix64(v.0 as u64)) % hops.len() as u64) as usize;
            let l = hops[pick];
            path.push(l);
            v = topo.peer(l, v);
        }
        path.extend(last);
        Some(path)
    }
}

/// A routing decision source for flows: SPF with ECMP, or explicit
/// per-flow static paths (used by configured scenarios such as the Fig. 1
/// ring, where the paper's routes are deliberately not shortest).
#[derive(Debug, Clone)]
pub enum Routing {
    /// Shortest-path-first with deterministic ECMP.
    Spf(SpfRouting),
    /// Explicit paths keyed by `(src, dst)`; flows not present fall back
    /// to SPF on the embedded oracle.
    Static {
        /// Configured `(src, dst) → links` routes.
        paths: HashMap<(NodeId, NodeId), Vec<LinkId>>,
        /// Fallback oracle for pairs without a configured route.
        fallback: SpfRouting,
    },
}

impl Routing {
    /// A fresh SPF router.
    pub fn spf() -> Self {
        Routing::Spf(SpfRouting::new())
    }

    /// A static router over the given `(src, dst) → path` map.
    pub fn fixed(paths: HashMap<(NodeId, NodeId), Vec<LinkId>>) -> Self {
        Routing::Static { paths, fallback: SpfRouting::new() }
    }

    /// Anchor trees the SPF oracle has computed and cached so far: one per
    /// attachment switch of a single-homed destination host, plus one per
    /// other destination.
    pub fn cached_trees(&self) -> usize {
        match self {
            Routing::Spf(r) | Routing::Static { fallback: r, .. } => r.trees.len(),
        }
    }

    /// Resolve a flow's path.
    pub fn path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        flow_hash: u64,
    ) -> Option<Vec<LinkId>> {
        match self {
            Routing::Spf(r) => r.path(topo, src, dst, flow_hash),
            Routing::Static { paths, fallback } => match paths.get(&(src, dst)) {
                Some(p) => Some(p.clone()),
                None => fallback.path(topo, src, dst, flow_hash),
            },
        }
    }
}

/// Why a link sequence is not a valid walk (see [`walk_nodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// The path crosses a link marked failed.
    DeadLink(LinkId),
    /// The path is discontiguous: this link does not touch the node the
    /// walk had reached.
    Discontiguous {
        /// The offending link.
        link: LinkId,
        /// The node the walk had reached when the break was found.
        at: NodeId,
    },
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::DeadLink(l) => write!(f, "link {l:?} on path is failed"),
            WalkError::Discontiguous { link, at } => {
                write!(f, "link {link:?} does not touch node {at:?}")
            }
        }
    }
}

impl std::error::Error for WalkError {}

/// Validate that `path` is a contiguous alive walk from `src` to `dst`;
/// returns the node sequence it visits.
pub fn walk_nodes(topo: &Topology, src: NodeId, path: &[LinkId]) -> Result<Vec<NodeId>, WalkError> {
    let mut nodes = vec![src];
    let mut v = src;
    for &l in path {
        if !topo.link_alive(l) {
            return Err(WalkError::DeadLink(l));
        }
        let link = topo.link(l);
        if link.a != v && link.b != v {
            return Err(WalkError::Discontiguous { link: l, at: v });
        }
        v = topo.peer(l, v);
        nodes.push(v);
    }
    Ok(nodes)
}

/// The directed-link sequence of a path starting at `src`.
pub fn path_dirlinks(topo: &Topology, src: NodeId, path: &[LinkId]) -> Vec<DirLink> {
    let mut out = Vec::with_capacity(path.len());
    let mut v = src;
    for &l in path {
        out.push(topo.dir_from(l, v));
        v = topo.peer(l, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-node diamond: a–b, a–c, b–d, c–d (two equal-cost paths a→d).
    fn diamond() -> (Topology, [NodeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let c = t.add_switch("c");
        let d = t.add_switch("d");
        t.add_link(a, b);
        t.add_link(a, c);
        t.add_link(b, d);
        t.add_link(c, d);
        (t, [a, b, c, d])
    }

    #[test]
    fn bfs_distances() {
        let (t, [a, b, c, d]) = diamond();
        let tree = DstTree::compute(&t.alive_adjacency(), d);
        assert_eq!(tree.dist[a.0 as usize], 2);
        assert_eq!(tree.dist[b.0 as usize], 1);
        assert_eq!(tree.dist[c.0 as usize], 1);
        assert_eq!(tree.dist[d.0 as usize], 0);
        // a has two equal-cost next hops.
        assert_eq!(tree.next_hops(a).len(), 2);
    }

    #[test]
    fn path_is_shortest_and_deterministic() {
        let (t, [a, _, _, d]) = diamond();
        let mut r = SpfRouting::new();
        let p1 = r.path(&t, a, d, 42).unwrap();
        let p2 = r.path(&t, a, d, 42).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 2);
        assert_eq!(walk_nodes(&t, a, &p1).unwrap().last(), Some(&d));
    }

    #[test]
    fn ecmp_spreads_flows() {
        let (t, [a, _, _, d]) = diamond();
        let mut r = SpfRouting::new();
        let mut first_hops = std::collections::HashSet::new();
        for h in 0..64u64 {
            first_hops.insert(r.path(&t, a, d, h).unwrap()[0]);
        }
        assert_eq!(first_hops.len(), 2, "ECMP never used one of the paths");
    }

    #[test]
    fn reroutes_around_failure() {
        let (mut t, [a, b, _, d]) = diamond();
        let ab = t.link_between(a, b).unwrap();
        t.fail_link(ab);
        let mut r = SpfRouting::new();
        for h in 0..16u64 {
            let p = r.path(&t, a, d, h).unwrap();
            assert!(!p.contains(&ab));
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn unreachable_is_none() {
        let (mut t, [a, _, _, d]) = diamond();
        for l in t.link_ids().collect::<Vec<_>>() {
            t.fail_link(l);
        }
        let mut r = SpfRouting::new();
        assert_eq!(r.path(&t, a, d, 0), None);
        assert_eq!(r.distance(&t, a, d), None);
    }

    #[test]
    fn static_routes_override() {
        let (t, [a, b, _, d]) = diamond();
        // Configure a deliberately long route a→b→d... build it by walking.
        let ab = t.link_between(a, b).unwrap();
        let bd = t.link_between(b, d).unwrap();
        let mut paths = HashMap::new();
        paths.insert((a, d), vec![ab, bd]);
        let mut routing = Routing::fixed(paths);
        assert_eq!(routing.path(&t, a, d, 7).unwrap(), vec![ab, bd]);
        // Unconfigured pair falls back to SPF.
        assert!(routing.path(&t, b, d, 7).is_some());
    }

    /// An independent reference for the oracle: a plain BFS toward `dst`
    /// over [`Topology::neighbors`], giving each node's distance and its
    /// next hops (the alive links one hop closer), sorted.
    fn reference_tree(topo: &Topology, dst: NodeId) -> (Vec<u32>, Vec<Vec<LinkId>>) {
        let mut dist = vec![u32::MAX; topo.num_nodes()];
        dist[dst.0 as usize] = 0;
        let mut queue = std::collections::VecDeque::from([dst]);
        while let Some(v) = queue.pop_front() {
            for (u, _) in topo.neighbors(v) {
                if dist[u.0 as usize] == u32::MAX {
                    dist[u.0 as usize] = dist[v.0 as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        let hops = topo
            .node_ids()
            .map(|v| {
                let dv = dist[v.0 as usize];
                let mut hops: Vec<LinkId> = topo
                    .neighbors(v)
                    .filter(|&(u, _)| dv != 0 && dv != u32::MAX && dist[u.0 as usize] == dv - 1)
                    .map(|(_, l)| l)
                    .collect();
                hops.sort_unstable();
                hops
            })
            .collect();
        (dist, hops)
    }

    /// The per-destination oracle the anchored cache replaces: a walk over
    /// `dst`'s own reference tree.
    fn per_destination_path(
        topo: &Topology,
        (dist, next_hops): &(Vec<u32>, Vec<Vec<LinkId>>),
        src: NodeId,
        dst: NodeId,
        flow_hash: u64,
    ) -> Option<Vec<LinkId>> {
        if dist[src.0 as usize] == u32::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut v = src;
        while v != dst {
            let hops = &next_hops[v.0 as usize];
            let l = hops[(mix64(flow_hash ^ mix64(v.0 as u64)) % hops.len() as u64) as usize];
            path.push(l);
            v = topo.peer(l, v);
        }
        Some(path)
    }

    #[test]
    fn anchored_routes_equal_per_destination_trees() {
        use crate::fattree::FatTree;
        use crate::scenarios::{Ring, SparseRing};
        use rand::{rngs::StdRng, SeedableRng};
        let mut cases: Vec<(String, Topology)> = Vec::new();
        for k in [4, 6, 8] {
            cases.push((format!("k={k} healthy"), FatTree::new(k).topo));
        }
        for (k, draws) in [(4, 50u64), (6, 40), (8, 12)] {
            for draw in 0..draws {
                let p = 0.02 + 0.18 * draw as f64 / (draws - 1) as f64;
                let mut ft = FatTree::new(k);
                ft.inject_failures(&mut StdRng::seed_from_u64(7000 * k as u64 + draw), p);
                cases.push((format!("k={k} p={p:.3} draw {draw}"), ft.topo));
            }
        }
        for n in 3..=8 {
            cases.push((format!("Ring::new({n})"), Ring::new(n).topo));
        }
        for (n, stride) in [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)] {
            cases
                .push((format!("SparseRing::new({n}, {stride})"), SparseRing::new(n, stride).topo));
        }
        cases.push(("ring with odd destinations".into(), ring_with_odd_destinations()));

        for (name, topo) in &cases {
            // Every node as a destination on the hand-built fabric, so a
            // switch destination is covered too; hosts elsewhere.
            let odd = name.starts_with("ring with");
            let dsts: Vec<NodeId> = if odd { topo.node_ids().collect() } else { topo.hosts() };
            let mut r = SpfRouting::new();
            for &dst in &dsts {
                let tree = reference_tree(topo, dst);
                for src in topo.node_ids() {
                    let d = tree.0[src.0 as usize];
                    let want = (d != u32::MAX).then_some(d);
                    assert_eq!(
                        r.distance(topo, src, dst),
                        want,
                        "{name}: distance {src:?}→{dst:?}"
                    );
                    for h in [0, 1, 0xDEAD_BEEF, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
                        assert_eq!(
                            r.path(topo, src, dst, h),
                            per_destination_path(topo, &tree, src, dst, h),
                            "{name}: path {src:?}→{dst:?} hash {h:#x}"
                        );
                    }
                }
            }
            if odd {
                // The four ring switches serve their own hosts; the five
                // odd destinations each keep a tree.
                assert_eq!(r.trees.len(), 9, "{name}: cached trees");
            }
        }

        // All-pairs host routing on a healthy k = 8 fat-tree needs one tree
        // per ToR: 32, not one per host (128).
        let ft = FatTree::new(8);
        let mut routing = Routing::spf();
        for &s in &ft.hosts {
            for &d in &ft.hosts {
                routing.path(&ft.topo, s, d, 0).expect("healthy fat-tree is connected");
            }
        }
        assert_eq!(routing.cached_trees(), 32);
    }

    /// A link failure after routing takes effect once the oracle is
    /// invalidated: the new path avoids the failed link and equals a fresh
    /// oracle's, so no tree is computed over the adjacency cached before
    /// the failure.
    #[test]
    fn invalidate_drops_the_cached_adjacency() {
        use crate::fattree::FatTree;
        let mut ft = FatTree::new(4);
        let (src, dst, hash) = (ft.hosts[0], ft.hosts[15], 7);
        let mut r = SpfRouting::new();
        let before = r.path(&ft.topo, src, dst, hash).expect("healthy fat-tree is connected");
        // The source ToR's uplink on the path: failing it leaves the
        // other uplink.
        let uplink = before[1];
        ft.topo.fail_link(uplink);
        r.invalidate();
        let after = r.path(&ft.topo, src, dst, hash).expect("still connected");
        assert!(!after.contains(&uplink), "routed over the failed link");
        assert_eq!(after, SpfRouting::new().path(&ft.topo, src, dst, hash).unwrap());
        assert!(walk_nodes(&ft.topo, src, &after).is_ok());
    }

    #[test]
    fn walk_rejects_broken_paths() {
        let (mut t, [a, b, _, d]) = diamond();
        let ab = t.link_between(a, b).unwrap();
        let bd = t.link_between(b, d).unwrap();
        assert_eq!(
            walk_nodes(&t, a, &[bd]).unwrap_err(),
            WalkError::Discontiguous { link: bd, at: a }
        );
        t.fail_link(ab);
        assert_eq!(walk_nodes(&t, a, &[ab, bd]).unwrap_err(), WalkError::DeadLink(ab));
    }

    #[test]
    fn dirlink_sequence() {
        let (t, [a, b, _, d]) = diamond();
        let ab = t.link_between(a, b).unwrap();
        let bd = t.link_between(b, d).unwrap();
        let dirs = path_dirlinks(&t, a, &[ab, bd]);
        assert_eq!(t.dir_src(dirs[0]), a);
        assert_eq!(t.dir_dst(dirs[0]), b);
        assert_eq!(t.dir_src(dirs[1]), b);
        assert_eq!(t.dir_dst(dirs[1]), d);
    }
}
