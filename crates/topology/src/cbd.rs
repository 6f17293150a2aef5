//! Cyclic-buffer-dependency (CBD) analysis (§2.1, *circular wait*).
//!
//! A buffer dependency exists from directed link `u→v` to directed link
//! `v→w` when some flow's path traverses `u→v` then `v→w`: packets held in
//! `v`'s ingress buffer (arrived over `u→v`) wait for buffer space behind
//! `v→w`. A cycle in this dependency graph is a CBD — the structural
//! precondition of deadlock.
//!
//! Three analyses are provided:
//!
//! * [`depgraph_for_flows`] — dependencies induced by a concrete flow set
//!   (used to verify scenario constructions such as Fig. 1 and Fig. 11);
//! * [`cbd_prone`] — dependencies induced by *every possible host pair*
//!   under SPF/ECMP (every equal-cost DAG edge), the paper's Table 1
//!   prefilter for "cases which are prone to generate CBD". This union is
//!   conservative: it contains "phantom" dependencies whose upstream link
//!   no host-originated flow toward that destination ever crosses;
//! * [`realizable_all_pairs_depgraph`] — the host-reachable subgraph of
//!   the above (only dependencies some complete host-to-host flow can
//!   exercise), the basis of the exact deadlock-freedom verdict.
//!
//! [`spf_all_pairs_depgraphs`] builds the last two together. Both take one
//! BFS per switch with single-homed hosts, not one per host: the DAG
//! toward such a host is its switch's DAG plus one link. Every BFS of a
//! pass runs over one [`AliveAdjacency`] built at its start.
//!
//! On top of the graph, [`DepGraph::condensation`] computes the strongly
//! connected components with an *iterative* Tarjan (generated topologies
//! produce DFS stacks deep enough to overflow a recursive one),
//! [`DepGraph::peel`] decides deadlock-freedom exactly by repeatedly
//! discarding dependencies that can always drain (a link whose occupants
//! never wait — delivery into a host, or an edge into already-peeled
//! links — can always complete; deadlock-free iff the residual empties),
//! and [`DepGraph::break_set`] names a small set of directed links whose
//! removal acyclifies a component (greedy feedback-vertex heuristic).

use crate::graph::{AliveAdjacency, DirLink, LinkId, NodeId, NodeKind, Topology};
use crate::routing::{attachment, path_dirlinks, DstTree};
use std::collections::HashMap;

/// A buffer-dependency graph over directed links.
///
/// Dense: vertex `v` is the directed link with [`DirLink::index`] `v`, and
/// the adjacency is a vector indexed by it. Each successor list is kept
/// sorted and deduplicated on insert, so every traversal visits vertices
/// and successors in ascending index order without sorting.
#[derive(Debug, Default, Clone)]
pub struct DepGraph {
    /// `succ[v]`: the successors of vertex `v`, ascending, no duplicates.
    succ: Vec<Vec<u64>>,
    /// `present[v]`: whether `v` is the source or target of some edge.
    present: Vec<bool>,
}

impl DepGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the dependency `from → to`.
    pub fn add_edge(&mut self, from: DirLink, to: DirLink) {
        let (f, t) = (from.index(), to.index());
        let len = f.max(t) as usize + 1;
        if self.succ.len() < len {
            self.succ.resize_with(len, Vec::new);
            self.present.resize(len, false);
        }
        self.present[f as usize] = true;
        self.present[t as usize] = true;
        let succs = &mut self.succ[f as usize];
        if let Err(at) = succs.binary_search(&t) {
            succs.insert(at, t);
        }
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// All vertices (directed links appearing as a source or target of
    /// some dependency), sorted by [`DirLink::index`].
    pub fn vertices(&self) -> Vec<u64> {
        (0..self.present.len() as u64).filter(|&v| self.present[v as usize]).collect()
    }

    /// Sorted successors of a vertex (empty if it has no out-edges).
    pub fn successors(&self, v: u64) -> Vec<u64> {
        self.succ_of(v).to_vec()
    }

    /// Whether the dependency edge `from → to` is present (by index).
    pub fn has_edge_idx(&self, from: u64, to: u64) -> bool {
        self.succ_of(from).binary_search(&to).is_ok()
    }

    fn succ_of(&self, v: u64) -> &[u64] {
        self.succ.get(v as usize).map_or(&[], Vec::as_slice)
    }

    /// Strongly connected components by *iterative* Tarjan — no recursion,
    /// so the DFS depth of a generated thousand-node topology cannot
    /// overflow the thread stack. Components come out in Tarjan's reverse
    /// topological order; members are sorted.
    pub fn condensation(&self) -> Condensation {
        Condensation { sccs: self.sccs_within(&self.present) }
    }

    /// Tarjan over the subgraph induced by the vertices `keep` marks
    /// (indexed like `succ`). Roots and successors are taken in ascending
    /// index order.
    fn sccs_within(&self, keep: &[bool]) -> Vec<Scc> {
        const UNSET: usize = usize::MAX;
        let n = self.succ.len();
        let mut index = vec![UNSET; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Scc> = Vec::new();

        for root in 0..n {
            if !keep[root] || index[root] != UNSET {
                continue;
            }
            // Explicit DFS frames: (vertex, next-successor cursor).
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                if index[v] == UNSET {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let succs = &self.succ[v];
                if *cursor < succs.len() {
                    let u = succs[*cursor] as usize;
                    *cursor += 1;
                    if !keep[u] {
                        continue;
                    }
                    if index[u] == UNSET {
                        frames.push((u, 0));
                    } else if on_stack[u] {
                        low[v] = low[v].min(index[u]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut members = Vec::new();
                        loop {
                            let w = stack.pop().expect("Tarjan stack holds the component");
                            on_stack[w] = false;
                            members.push(w as u64);
                            if w == v {
                                break;
                            }
                        }
                        members.sort_unstable();
                        let cyclic = members.len() > 1 || self.has_edge_idx(members[0], members[0]);
                        sccs.push(Scc { members, cyclic });
                    }
                    frames.pop();
                    if let Some(&mut (p, _)) = frames.last_mut() {
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
        sccs
    }

    /// A representative cycle inside a cyclic component: walk from the
    /// smallest member along the smallest in-component successor until a
    /// vertex repeats. Deterministic; empty for an acyclic component.
    pub fn cycle_in_scc(&self, scc: &Scc) -> Vec<u64> {
        if !scc.cyclic {
            return Vec::new();
        }
        // Members are sorted: a member's rank is its binary-search slot.
        let rank = |v: u64| scc.members.binary_search(&v).ok();
        let mut pos = vec![usize::MAX; scc.members.len()];
        let mut path: Vec<u64> = Vec::new();
        let (mut v, mut r) = (scc.members[0], 0);
        loop {
            if pos[r] != usize::MAX {
                return path[pos[r]..].to_vec();
            }
            pos[r] = path.len();
            path.push(v);
            (v, r) = self
                .succ_of(v)
                .iter()
                .find_map(|&t| rank(t).map(|r| (t, r)))
                .expect("every vertex of a cyclic SCC has an in-SCC successor");
        }
    }

    /// A small set of directed links whose removal acyclifies `scc`:
    /// greedy feedback-vertex heuristic, repeatedly deleting the vertex
    /// with the largest `in_degree × out_degree` inside the largest
    /// remaining cyclic sub-component (ties break to the lowest index)
    /// until nothing cyclic is left. For a simple cycle this finds a
    /// single link — the minimum. Iterative throughout.
    pub fn break_set(&self, scc: &Scc) -> Vec<u64> {
        if !scc.cyclic {
            return Vec::new();
        }
        let n = self.succ.len();
        let mut alive = vec![false; n];
        for &v in &scc.members {
            alive[v as usize] = true;
        }
        let mut in_worst = vec![false; n];
        let mut in_deg = vec![0usize; n];
        let mut removed = Vec::new();
        loop {
            let cond = Condensation { sccs: self.sccs_within(&alive) };
            let Some(worst) = cond.cyclic_by_size().into_iter().next() else {
                break;
            };
            // One sweep over the members' successor lists counts every
            // in-component in-degree.
            for &v in &worst.members {
                in_worst[v as usize] = true;
                in_deg[v as usize] = 0;
            }
            for &u in &worst.members {
                for &t in &self.succ[u as usize] {
                    if in_worst[t as usize] {
                        in_deg[t as usize] += 1;
                    }
                }
            }
            let mut best: Option<(usize, u64)> = None;
            for &v in &worst.members {
                let out = self.succ[v as usize].iter().filter(|&&t| in_worst[t as usize]).count();
                let score = in_deg[v as usize] * out;
                // Members ascend, so `>` keeps the lowest index on ties.
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, v));
                }
            }
            for &v in &worst.members {
                in_worst[v as usize] = false;
            }
            let (_, v) = best.expect("cyclic component has members");
            alive[v as usize] = false;
            removed.push(v);
        }
        removed
    }

    /// Exact deadlock-freedom by iterative peeling: a directed link whose
    /// occupants never wait on another dependency (zero remaining
    /// out-degree — e.g. delivery into a host, or every downstream
    /// dependency already shown to drain) always completes; remove it and
    /// repeat. The routing is deadlock-free if and only if the residual
    /// graph empties — the leftover vertices are exactly the links that
    /// can reach a dependency cycle.
    pub fn peel(&self) -> PeelOutcome {
        let n = self.succ.len();
        let mut out_deg: Vec<usize> = self.succ.iter().map(Vec::len).collect();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (v, succs) in self.succ.iter().enumerate() {
            for &t in succs {
                preds[t as usize].push(v);
            }
        }
        let mut removed = vec![false; n];
        let mut frontier: Vec<usize> =
            (0..n).filter(|&v| self.present[v] && out_deg[v] == 0).collect();
        let mut rounds = 0;
        let mut peeled = 0;
        while !frontier.is_empty() {
            rounds += 1;
            for &i in &frontier {
                removed[i] = true;
                peeled += 1;
            }
            let mut next = Vec::new();
            for &i in &frontier {
                for &p in &preds[i] {
                    out_deg[p] -= 1;
                    if out_deg[p] == 0 && !removed[p] {
                        next.push(p);
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        let residual =
            (0..n).filter(|&v| self.present[v] && !removed[v]).map(|v| v as u64).collect();
        PeelOutcome { peeled, rounds, residual }
    }

    /// Whether the graph contains a cycle.
    pub fn has_cycle(&self) -> bool {
        self.find_cycle().is_some()
    }

    /// Find one cycle, as a sequence of directed-link indices (first
    /// element repeated implicitly), if any exists.
    pub fn find_cycle(&self) -> Option<Vec<u64>> {
        // Iterative DFS with colors: 0 = white, 1 = on stack, 2 = done.
        let n = self.succ.len();
        let mut color = vec![0u8; n];
        let mut parent = vec![0usize; n];
        for root in 0..n {
            if self.succ[root].is_empty() || color[root] != 0 {
                continue;
            }
            // Stack of (node, successors left to try); successors are tried
            // from the largest index down.
            color[root] = 1;
            let mut stack: Vec<(usize, usize)> = vec![(root, self.succ[root].len())];
            while let Some(top) = stack.last_mut() {
                let v = top.0;
                if top.1 == 0 {
                    color[v] = 2;
                    stack.pop();
                    continue;
                }
                top.1 -= 1;
                let u = self.succ[v][top.1] as usize;
                match color[u] {
                    0 => {
                        parent[u] = v;
                        color[u] = 1;
                        stack.push((u, self.succ[u].len()));
                    }
                    1 => {
                        // Back edge v → u closes a cycle u → … → v → u.
                        let mut cyc = vec![v as u64];
                        let mut w = v;
                        while w != u {
                            w = parent[w];
                            cyc.push(w as u64);
                        }
                        cyc.reverse();
                        return Some(cyc);
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// One strongly connected component of a [`DepGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scc {
    /// Member vertices ([`DirLink::index`] encodings), sorted ascending.
    pub members: Vec<u64>,
    /// Whether the component contains a cycle (more than one member, or a
    /// single member with a self-dependency).
    pub cyclic: bool,
}

impl Scc {
    /// Number of directed links in the component.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the component is empty (never, for Tarjan output).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The SCC condensation of a [`DepGraph`].
#[derive(Debug, Clone, Default)]
pub struct Condensation {
    sccs: Vec<Scc>,
}

impl Condensation {
    /// All components, in Tarjan's reverse topological order (a component
    /// precedes everything that depends on it).
    pub fn sccs(&self) -> &[Scc] {
        &self.sccs
    }

    /// The cyclic (nontrivial) components, largest first; ties break on
    /// the smallest member so reports are deterministic.
    pub fn cyclic_by_size(&self) -> Vec<&Scc> {
        let mut cyc: Vec<&Scc> = self.sccs.iter().filter(|s| s.cyclic).collect();
        cyc.sort_by(|a, b| b.len().cmp(&a.len()).then(a.members[0].cmp(&b.members[0])));
        cyc
    }

    /// Number of cyclic components.
    pub fn num_cyclic(&self) -> usize {
        self.sccs.iter().filter(|s| s.cyclic).count()
    }
}

/// Outcome of [`DepGraph::peel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeelOutcome {
    /// Vertices peeled (shown to always drain).
    pub peeled: usize,
    /// Peeling rounds until a fixpoint.
    pub rounds: usize,
    /// Vertices that survive every round — the directed links that can
    /// reach a dependency cycle. Empty iff the routing is deadlock-free.
    pub residual: Vec<u64>,
}

impl PeelOutcome {
    /// Whether peeling emptied the graph — the exact deadlock-freedom
    /// certificate.
    pub fn deadlock_free(&self) -> bool {
        self.residual.is_empty()
    }
}

/// Add, for each `(dst, sources)` entry, the SPF/ECMP buffer dependencies
/// that a flow from one of `sources` toward `dst` can actually exercise:
/// a dependency `(u→v, v→w)` counts only when `u` is reachable from some
/// source *within the equal-cost DAG toward `dst`* and `v` is a switch.
/// This prunes the phantom edges of [`all_pairs_depgraph`], which charges
/// every upstream link of the DAG even when no host-originated flow ever
/// crosses it.
pub fn spf_depgraph_for_pairs(
    topo: &Topology,
    pairs_by_dst: &[(NodeId, Vec<NodeId>)],
    g: &mut DepGraph,
) {
    let adj = topo.alive_adjacency();
    for (dst, srcs) in pairs_by_dst {
        let tree = DstTree::compute(&adj, *dst);
        add_reachable_edges(topo, &tree, srcs.iter().copied(), g);
    }
}

/// Walk `tree`'s equal-cost DAG from `seeds` and add every dependency
/// `(u→v, v→w)` through a switch `v` on the way: `u` reached, `u→v` and
/// `v→w` both DAG edges. Returns the reached-node mask.
fn add_reachable_edges(
    topo: &Topology,
    tree: &DstTree,
    seeds: impl IntoIterator<Item = NodeId>,
    g: &mut DepGraph,
) -> Vec<bool> {
    let mut reach = vec![false; topo.num_nodes()];
    let mut stack: Vec<NodeId> = Vec::new();
    for s in seeds {
        if tree.dist[s.0 as usize] != u32::MAX && !reach[s.0 as usize] {
            reach[s.0 as usize] = true;
            stack.push(s);
        }
    }
    while let Some(u) = stack.pop() {
        for &l in tree.next_hops(u) {
            let v = topo.peer(l, u);
            if topo.node(v).kind == NodeKind::Switch {
                let incoming = topo.dir_from(l, u);
                for &lo in tree.next_hops(v) {
                    g.add_edge(incoming, topo.dir_from(lo, v));
                }
            }
            if !reach[v.0 as usize] {
                reach[v.0 as usize] = true;
                stack.push(v);
            }
        }
    }
    reach
}

/// The host-realizable restriction of [`all_pairs_depgraph`]: only
/// dependencies some complete host-to-host SPF/ECMP flow can exercise.
/// A subgraph of the all-pairs union, so acyclicity of the union implies
/// acyclicity here; the converse can fail (see the sparse ring in
/// `scenarios`), which is exactly when the Table 1 prefilter cries wolf.
pub fn realizable_all_pairs_depgraph(topo: &Topology) -> DepGraph {
    let mut g = DepGraph::new();
    spf_all_pairs(topo, None, Some(&mut g));
    g
}

/// Both SPF/ECMP all-pairs graphs from one pass: the conservative union
/// ([`all_pairs_depgraph`]) and its host-realizable restriction
/// ([`realizable_all_pairs_depgraph`]), sharing one BFS tree per
/// attachment switch.
pub fn spf_all_pairs_depgraphs(topo: &Topology) -> (DepGraph, DepGraph) {
    let (mut union, mut realizable) = (DepGraph::new(), DepGraph::new());
    spf_all_pairs(topo, Some(&mut union), Some(&mut realizable));
    (union, realizable)
}

/// Build the SPF/ECMP all-pairs graphs over every host destination into
/// `union` ([`all_pairs_depgraph`]) and `realizable`
/// ([`realizable_all_pairs_depgraph`]), whichever are given.
///
/// One BFS serves every host single-homed to the same switch `t`. Such a
/// host `h` is a leaf, so toward `h` every node other than `t` and `h`
/// keeps the next hops it has toward `t` (each distance is one more):
/// the DAG toward `h` is `t`'s DAG plus the link `t→h`. The dependency
/// edges therefore equal those of `t`'s DAG everywhere except at `t`,
/// where they are `(u→t, t→h)` — from every neighbour `u ≠ h` for the
/// union; for the realizable graph, from the nodes the other hosts reach
/// in `t`'s DAG plus `t`'s other single-homed hosts. Any other host keeps
/// its own per-destination BFS.
fn spf_all_pairs(
    topo: &Topology,
    mut union: Option<&mut DepGraph>,
    mut realizable: Option<&mut DepGraph>,
) {
    let hosts = topo.hosts();
    let adj = topo.alive_adjacency();
    let mut group: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); topo.num_nodes()];
    for &h in &hosts {
        match attachment(topo, h) {
            Some((t, l)) => group[t.0 as usize].push((h, l)),
            None => {
                let tree = DstTree::compute(&adj, h);
                if let Some(g) = union.as_deref_mut() {
                    add_dag_edges(topo, &adj, &tree, g);
                }
                if let Some(g) = realizable.as_deref_mut() {
                    add_reachable_edges(topo, &tree, hosts.iter().copied().filter(|&s| s != h), g);
                }
            }
        }
    }
    for t in topo.node_ids() {
        let members = &group[t.0 as usize];
        if members.is_empty() {
            continue;
        }
        let tree = DstTree::compute(&adj, t);
        let is_member = |u: NodeId| members.iter().any(|&(h, _)| h == u);
        // `(u→t, t→h)` for each in-link `u→t` other than `h`'s own.
        let add_into_t = |g: &mut DepGraph, into_t: &[(DirLink, LinkId)]| {
            for &(_, lh) in members {
                let out = topo.dir_from(lh, t);
                for &(incoming, l) in into_t {
                    if l != lh {
                        g.add_edge(incoming, out);
                    }
                }
            }
        };
        if let Some(g) = union.as_deref_mut() {
            add_dag_edges(topo, &adj, &tree, g);
            let into_t: Vec<_> =
                adj.neighbors(t).iter().map(|&(u, l)| (topo.dir_from(l, u), l)).collect();
            add_into_t(g, &into_t);
        }
        if let Some(g) = realizable.as_deref_mut() {
            let seeds = hosts.iter().copied().filter(|&s| !is_member(s));
            let reach = add_reachable_edges(topo, &tree, seeds, g);
            let into_t: Vec<_> = adj
                .neighbors(t)
                .iter()
                .filter(|&&(u, _)| reach[u.0 as usize] || is_member(u))
                .map(|&(u, l)| (topo.dir_from(l, u), l))
                .collect();
            add_into_t(g, &into_t);
        }
    }
}

/// Build the dependency graph induced by concrete flows, each given as
/// `(src node, path links)`.
pub fn depgraph_for_flows(topo: &Topology, flows: &[(NodeId, Vec<LinkId>)]) -> DepGraph {
    let mut g = DepGraph::new();
    for (src, path) in flows {
        let dirs = path_dirlinks(topo, *src, path);
        for w in dirs.windows(2) {
            // Only dependencies through a switch buffer matter; the middle
            // node of consecutive links is the buffer holder.
            let mid = topo.dir_dst(w[0]);
            if topo.node(mid).kind == NodeKind::Switch {
                g.add_edge(w[0], w[1]);
            }
        }
    }
    g
}

/// Build the dependency graph of *all possible* SPF/ECMP host-to-host
/// paths: for every destination host, every equal-cost DAG edge pair
/// `(u→v, v→w)` through a switch `v` contributes a dependency. Returns the
/// graph; [`DepGraph::has_cycle`] on it is the Table 1 "CBD-prone"
/// predicate.
pub fn all_pairs_depgraph(topo: &Topology) -> DepGraph {
    let mut g = DepGraph::new();
    spf_all_pairs(topo, Some(&mut g), None);
    g
}

/// Add every dependency of `tree`'s equal-cost DAG: `(u→v, v→w)` for each
/// switch `v`, DAG edge `v→w`, and neighbour `u` one hop farther from the
/// root than `v`.
fn add_dag_edges(topo: &Topology, adj: &AliveAdjacency, tree: &DstTree, g: &mut DepGraph) {
    for v in topo.node_ids() {
        if topo.node(v).kind != NodeKind::Switch {
            continue;
        }
        let dv = tree.dist[v.0 as usize];
        if dv == u32::MAX || dv == 0 {
            continue;
        }
        // Outgoing candidates from v toward the root.
        let outs = tree.next_hops(v);
        if outs.is_empty() {
            continue;
        }
        // Incoming candidates: links (u,v) where u routes via v,
        // i.e. dist[u] == dv + 1 (and u is not the root side).
        for &(u, l) in adj.neighbors(v) {
            if tree.dist[u.0 as usize] == dv + 1 {
                let incoming = topo.dir_from(l, u);
                for &lo in outs {
                    g.add_edge(incoming, topo.dir_from(lo, v));
                }
            }
        }
    }
}

/// The Table 1 prefilter: can any combination of host-to-host SPF/ECMP
/// flows form a CBD in this topology?
pub fn cbd_prone(topo: &Topology) -> bool {
    all_pairs_depgraph(topo).has_cycle()
}

/// Construct a concrete flow set realizing a dependency cycle: for each
/// consecutive pair of directed links `(u→v, v→w)` in `cycle`, one
/// host-to-host flow whose explicit path traverses `u→v` then `v→w`.
/// Starting these flows together recreates the circular buffer dependency
/// the all-pairs analysis predicted — the accelerated Table 1 procedure
/// (the paper instead waits for random churn to produce the combination).
///
/// Returns `(src, dst, path)` per cycle edge, or `None` if some edge
/// cannot be realized with simple (node-disjoint prefix/suffix) paths.
pub fn realize_cycle(topo: &Topology, cycle: &[u64]) -> Option<Vec<(NodeId, NodeId, Vec<LinkId>)>> {
    use crate::routing::walk_nodes;
    let hosts = topo.hosts();
    let decode = DirLink::from_index;
    let mut flows = Vec::new();
    let adj = topo.alive_adjacency();
    let mut tree_cache: HashMap<NodeId, DstTree> = HashMap::new();
    let n = cycle.len();
    for i in 0..n {
        let d1 = decode(cycle[i]);
        let d2 = decode(cycle[(i + 1) % n]);
        let (u, v) = (topo.dir_src(d1), topo.dir_dst(d1));
        let w = topo.dir_dst(d2);
        debug_assert_eq!(topo.dir_src(d2), v, "cycle edges must chain");
        let tree_u = DstTree::compute(&adj, u);
        let mut found = None;
        'search: for &src in &hosts {
            // Prefix src → u avoiding v and w.
            let Some(prefix) = walk_toward(topo, &tree_u, src, u, &[v, w]) else {
                continue;
            };
            let prefix_nodes = walk_nodes(topo, src, &prefix).expect("prefix is a valid walk");
            for &dst in &hosts {
                if dst == src {
                    continue;
                }
                let tree_dst = tree_cache.entry(dst).or_insert_with(|| DstTree::compute(&adj, dst));
                // Suffix w → dst avoiding every node already visited.
                let mut avoid = prefix_nodes.clone();
                avoid.push(v);
                let Some(suffix) = walk_toward(topo, tree_dst, w, dst, &avoid) else {
                    continue;
                };
                let mut path = prefix.clone();
                path.push(d1.link);
                path.push(d2.link);
                path.extend(suffix);
                if walk_nodes(topo, src, &path).is_ok() {
                    found = Some((src, dst, path));
                    break 'search;
                }
            }
        }
        flows.push(found?);
    }
    Some(flows)
}

/// Greedy walk from `from` to the root of `tree` (its destination),
/// refusing to enter any node in `avoid`. Returns the link list, or `None`
/// if the greedy choice hits an avoided node with no alternative.
fn walk_toward(
    topo: &Topology,
    tree: &DstTree,
    from: NodeId,
    to: NodeId,
    avoid: &[NodeId],
) -> Option<Vec<LinkId>> {
    if avoid.contains(&from) {
        return None;
    }
    if tree.dist[from.0 as usize] == u32::MAX {
        return None;
    }
    let mut path = Vec::new();
    let mut at = from;
    while at != to {
        let mut stepped = false;
        for &l in tree.next_hops(at) {
            let peer = topo.peer(l, at);
            if !avoid.contains(&peer) {
                path.push(l);
                at = peer;
                stepped = true;
                break;
            }
        }
        if !stepped {
            return None;
        }
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::SpfRouting;

    /// The Fig. 1 scenario: 3 switches in a triangle, one host each, flows
    /// routed clockwise through two inter-switch links.
    fn fig1() -> (Topology, Vec<(NodeId, Vec<LinkId>)>) {
        let mut t = Topology::new();
        let h: Vec<NodeId> = (0..3).map(|i| t.add_host(format!("H{}", i + 1))).collect();
        let s: Vec<NodeId> = (0..3).map(|i| t.add_switch(format!("S{}", i + 1))).collect();
        let hl: Vec<LinkId> = (0..3).map(|i| t.add_link(h[i], s[i])).collect();
        let sl: Vec<LinkId> = (0..3).map(|i| t.add_link(s[i], s[(i + 1) % 3])).collect();
        // Flow i: H_i → H_{i+2}, clockwise: h→s_i→s_{i+1}→s_{i+2}→h.
        let flows =
            (0..3).map(|i| (h[i], vec![hl[i], sl[i], sl[(i + 1) % 3], hl[(i + 2) % 3]])).collect();
        (t, flows)
    }

    #[test]
    fn fig1_has_cbd() {
        let (t, flows) = fig1();
        let g = depgraph_for_flows(&t, &flows);
        assert!(g.has_cycle(), "Fig. 1 clockwise flows must form a CBD");
        let cyc = g.find_cycle().unwrap();
        assert!(cyc.len() >= 3, "triangle CBD spans three links, got {cyc:?}");
    }

    #[test]
    fn fig1_shortest_paths_have_no_cbd() {
        // With SPF the triangle routes every flow over its direct link —
        // no two-switch segments, hence no CBD.
        let (t, _) = fig1();
        let hosts = t.hosts();
        let mut r = SpfRouting::new();
        let mut flows = Vec::new();
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    flows.push((a, r.path(&t, a, b, 1).unwrap()));
                }
            }
        }
        let g = depgraph_for_flows(&t, &flows);
        assert!(!g.has_cycle());
    }

    #[test]
    fn single_flow_no_cycle() {
        let (t, flows) = fig1();
        let g = depgraph_for_flows(&t, &flows[..1]);
        assert!(!g.has_cycle());
        // Three switch-buffer dependencies: at S_i, S_{i+1}, S_{i+2}.
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn two_of_three_flows_no_cycle() {
        let (t, flows) = fig1();
        let g = depgraph_for_flows(&t, &flows[..2]);
        assert!(!g.has_cycle(), "the CBD needs all three clockwise flows");
    }

    #[test]
    fn triangle_all_pairs_is_cbd_free_under_spf() {
        let (t, _) = fig1();
        assert!(!cbd_prone(&t));
    }

    #[test]
    fn depgraph_cycle_finder_on_known_graph() {
        let mut g = DepGraph::new();
        let d = |i: u32| DirLink { link: LinkId(i), reversed: false };
        g.add_edge(d(0), d(1));
        g.add_edge(d(1), d(2));
        assert!(!g.has_cycle());
        g.add_edge(d(2), d(0));
        let cyc = g.find_cycle().unwrap();
        assert_eq!(cyc.len(), 3);
    }

    #[test]
    fn realized_cycles_reproduce_the_cbd() {
        // Find CBD-prone failed fat-trees and check the realized flow set
        // actually forms a cycle in the flow-level dependency graph.
        use crate::fattree::FatTree;
        use rand::{rngs::StdRng, SeedableRng};
        let mut tested = 0;
        for seed in 0..200u64 {
            let mut ft = FatTree::new(4);
            let mut rng = StdRng::seed_from_u64(seed);
            ft.inject_failures(&mut rng, 0.08);
            let g = all_pairs_depgraph(&ft.topo);
            let Some(cycle) = g.find_cycle() else {
                continue;
            };
            let Some(flows) = realize_cycle(&ft.topo, &cycle) else {
                continue;
            };
            let fg = depgraph_for_flows(
                &ft.topo,
                &flows.iter().map(|(s, _, p)| (*s, p.clone())).collect::<Vec<_>>(),
            );
            assert!(fg.has_cycle(), "realized flows do not form a CBD (seed {seed})");
            for (s, d, p) in &flows {
                let nodes = crate::routing::walk_nodes(&ft.topo, *s, p).expect("valid walk");
                assert_eq!(nodes.last(), Some(d), "path must end at dst");
            }
            tested += 1;
            if tested >= 3 {
                return;
            }
        }
        assert!(tested > 0, "no realizable CBD-prone topology found in 200 seeds");
    }

    #[test]
    fn self_loop_detected() {
        let mut g = DepGraph::new();
        let d = DirLink { link: LinkId(7), reversed: true };
        g.add_edge(d, d);
        assert_eq!(g.find_cycle().unwrap(), vec![d.index()]);
    }

    fn d(i: u32) -> DirLink {
        DirLink { link: LinkId(i), reversed: false }
    }

    /// Two disjoint directed triangles joined by a bridge edge, plus a
    /// dangling tail — a handcrafted two-SCC graph.
    fn two_triangles() -> DepGraph {
        let mut g = DepGraph::new();
        for i in 0..3u32 {
            g.add_edge(d(i), d((i + 1) % 3));
            g.add_edge(d(10 + i), d(10 + (i + 1) % 3));
        }
        g.add_edge(d(2), d(10)); // bridge: first SCC depends on second
        g.add_edge(d(12), d(20)); // tail out of the second SCC
        g
    }

    #[test]
    fn condensation_finds_both_triangles() {
        let g = two_triangles();
        let cond = g.condensation();
        let cyclic = cond.cyclic_by_size();
        assert_eq!(cyclic.len(), 2);
        assert_eq!(cond.num_cyclic(), 2);
        assert_eq!(cyclic[0].members, vec![d(0).index(), d(1).index(), d(2).index()]);
        assert_eq!(cyclic[1].members, vec![d(10).index(), d(11).index(), d(12).index()]);
        // The tail vertex is its own trivial SCC.
        assert!(cond.sccs().iter().any(|s| !s.cyclic && s.members == vec![d(20).index()]));
        // Reverse topological order: the depended-on tail comes first.
        let pos = |v: u64| cond.sccs().iter().position(|s| s.members.contains(&v)).unwrap();
        assert!(pos(d(20).index()) < pos(d(10).index()));
        assert!(pos(d(10).index()) < pos(d(0).index()));
    }

    #[test]
    fn representative_cycle_walks_the_component() {
        let g = two_triangles();
        let cond = g.condensation();
        for scc in cond.cyclic_by_size() {
            let cyc = g.cycle_in_scc(scc);
            assert_eq!(cyc.len(), 3, "triangle cycle: {cyc:?}");
            for (i, &v) in cyc.iter().enumerate() {
                assert!(g.has_edge_idx(v, cyc[(i + 1) % cyc.len()]), "broken cycle {cyc:?}");
            }
        }
    }

    #[test]
    fn break_set_on_a_simple_cycle_is_minimal() {
        let g = two_triangles();
        let cond = g.condensation();
        for scc in cond.cyclic_by_size() {
            let bs = g.break_set(scc);
            assert_eq!(bs.len(), 1, "a simple cycle needs exactly one removal: {bs:?}");
            // Removing it acyclifies the component.
            let keep: Vec<u64> = scc.members.iter().copied().filter(|v| !bs.contains(v)).collect();
            let mut rest = DepGraph::new();
            for &v in &keep {
                for t in g.successors(v).into_iter().filter(|t| keep.contains(t)) {
                    rest.add_edge(DirLink::from_index(v), DirLink::from_index(t));
                }
            }
            assert_eq!(rest.condensation().num_cyclic(), 0);
        }
    }

    #[test]
    fn break_set_on_two_chorded_cycles_prefers_the_shared_vertex() {
        // Two cycles sharing vertex 0: 0→1→0 and 0→2→0. Removing 0 kills
        // both; the greedy degree product must find that.
        let mut g = DepGraph::new();
        g.add_edge(d(0), d(1));
        g.add_edge(d(1), d(0));
        g.add_edge(d(0), d(2));
        g.add_edge(d(2), d(0));
        let cond = g.condensation();
        let scc = cond.cyclic_by_size()[0];
        assert_eq!(scc.len(), 3);
        assert_eq!(g.break_set(scc), vec![d(0).index()]);
    }

    #[test]
    fn peel_empties_acyclic_and_keeps_cycles() {
        let mut g = DepGraph::new();
        g.add_edge(d(0), d(1));
        g.add_edge(d(1), d(2));
        let p = g.peel();
        assert!(p.deadlock_free());
        assert_eq!((p.peeled, p.rounds), (3, 3));

        let g = two_triangles();
        let p = g.peel();
        assert!(!p.deadlock_free());
        // The tail peels; everything on or upstream of a cycle stays.
        assert_eq!(p.peeled, 1);
        assert_eq!(p.residual.len(), 6);
    }

    #[test]
    fn peel_keeps_upstream_of_a_cycle() {
        // 5 → 0, 0→1→2→0: vertex 5 reaches the cycle and must stay.
        let mut g = DepGraph::new();
        g.add_edge(d(5), d(0));
        g.add_edge(d(0), d(1));
        g.add_edge(d(1), d(2));
        g.add_edge(d(2), d(0));
        let p = g.peel();
        assert_eq!(p.residual.len(), 4);
        assert!(p.residual.contains(&d(5).index()));
    }

    #[test]
    fn ring_all_pairs_condensation_is_two_simple_cycles() {
        // On an n≥5 host-per-switch ring the all-pairs union contains the
        // clockwise and counterclockwise n-cycles as separate SCCs (a tie
        // in distance is never a DAG edge, so the directions never mix).
        let ring = crate::scenarios::Ring::new(6);
        let g = all_pairs_depgraph(&ring.topo);
        let cond = g.condensation();
        let cyclic = cond.cyclic_by_size();
        assert_eq!(cyclic.len(), 2, "clockwise + counterclockwise SCCs");
        for scc in &cyclic {
            assert_eq!(scc.len(), 6);
            assert_eq!(g.break_set(scc).len(), 1, "a ring direction is a simple cycle");
        }
        assert!(!g.peel().deadlock_free(), "host-per-switch ring cycles are realizable");
    }

    #[test]
    fn healthy_fattree_peels_clean() {
        use crate::fattree::FatTree;
        let ft = FatTree::new(4);
        let g = all_pairs_depgraph(&ft.topo);
        assert_eq!(g.condensation().num_cyclic(), 0);
        assert!(g.peel().deadlock_free());
        let r = realizable_all_pairs_depgraph(&ft.topo);
        assert!(r.peel().deadlock_free());
    }

    #[test]
    fn realizable_graph_is_a_subgraph_of_the_union() {
        use crate::fattree::FatTree;
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..20u64 {
            let mut ft = FatTree::new(4);
            let mut rng = StdRng::seed_from_u64(seed);
            ft.inject_failures(&mut rng, 0.08);
            let union = all_pairs_depgraph(&ft.topo);
            let real = realizable_all_pairs_depgraph(&ft.topo);
            for v in real.vertices() {
                for t in real.successors(v) {
                    assert!(union.has_edge_idx(v, t), "seed {seed}: edge {v}→{t} not in union");
                }
            }
        }
    }

    #[test]
    fn sparse_ring_union_cycles_but_realizable_is_clean() {
        // The showcase divergence: hosts on alternating switches leave the
        // full ring cycle in the all-pairs union (phantom upstream edges),
        // but every host-reachable dependency chain ends in a delivery —
        // the realizable graph is acyclic, so the fabric is deadlock-free.
        let ring = crate::scenarios::SparseRing::new(6, 2);
        let union = all_pairs_depgraph(&ring.topo);
        assert!(union.has_cycle(), "the union prefilter must cry wolf here");
        let real = realizable_all_pairs_depgraph(&ring.topo);
        assert!(!real.has_cycle());
        assert!(real.peel().deadlock_free());
    }

    /// The per-destination construction the grouped pass replaces: one
    /// BFS per host, each contributing its whole DAG.
    fn per_destination_depgraphs(topo: &Topology) -> (DepGraph, DepGraph) {
        let hosts = topo.hosts();
        let adj = topo.alive_adjacency();
        let (mut union, mut realizable) = (DepGraph::new(), DepGraph::new());
        for &dst in &hosts {
            let tree = DstTree::compute(&adj, dst);
            add_dag_edges(topo, &adj, &tree, &mut union);
            let srcs = hosts.iter().copied().filter(|&s| s != dst);
            add_reachable_edges(topo, &tree, srcs, &mut realizable);
        }
        (union, realizable)
    }

    fn assert_same_graph(name: &str, grouped: &DepGraph, reference: &DepGraph) {
        let verts = grouped.vertices();
        assert_eq!(verts, reference.vertices(), "{name}: vertex sets differ");
        for v in verts {
            assert_eq!(grouped.successors(v), reference.successors(v), "{name}: successors of {v}");
        }
    }

    #[test]
    fn grouped_graphs_equal_the_per_destination_construction() {
        use crate::fattree::FatTree;
        use crate::scenarios::{Ring, SparseRing};
        use rand::{rngs::StdRng, SeedableRng};
        let mut cases: Vec<(String, Topology)> = Vec::new();
        for k in [4, 6, 8] {
            for draw in 0..40u64 {
                let p = 0.14 * draw as f64 / 39.0;
                let mut ft = FatTree::new(k);
                ft.inject_failures(&mut StdRng::seed_from_u64(1000 * k as u64 + draw), p);
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
        // Hosts the grouping must leave to the per-destination fallback: one
        // dual-homed, one with two cables to the same switch, one behind a
        // host, and (here and in a fat-tree) one whose only link has failed.
        cases.push(("ring with odd hosts".into(), crate::routing::ring_with_odd_destinations()));
        let mut ft = FatTree::new(4);
        let (_, l) = ft.topo.neighbors(ft.hosts[0]).next().expect("host link");
        ft.topo.fail_link(l);
        cases.push(("k=4, failed host link".into(), ft.topo));

        for (name, topo) in &cases {
            let (union, realizable) = spf_all_pairs_depgraphs(topo);
            let (ref_union, ref_realizable) = per_destination_depgraphs(topo);
            assert_same_graph(&format!("{name}, union"), &union, &ref_union);
            assert_same_graph(&format!("{name}, realizable"), &realizable, &ref_realizable);
            assert_same_graph(&format!("{name}, union alone"), &all_pairs_depgraph(topo), &union);
            assert_same_graph(
                &format!("{name}, realizable alone"),
                &realizable_all_pairs_depgraph(topo),
                &realizable,
            );
        }
    }

    #[test]
    fn thousand_node_ring_analysis_is_iterative() {
        // A 512-switch ring (1024 nodes) makes every DFS path as deep as
        // the SCC itself; run the full pipeline on a deliberately tiny
        // (256 KB) stack to prove no step recurses.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let ring = crate::scenarios::Ring::new(512);
                let g = all_pairs_depgraph(&ring.topo);
                let cond = g.condensation();
                let cyclic = cond.cyclic_by_size();
                assert_eq!(cyclic.len(), 2);
                assert_eq!(cyclic[0].len(), 512);
                assert_eq!(g.cycle_in_scc(cyclic[0]).len(), 512);
                assert_eq!(g.break_set(cyclic[0]).len(), 1);
                assert!(!g.peel().deadlock_free());
            })
            .expect("spawn small-stack analysis thread")
            .join()
            .expect("analysis must not overflow a 256 KB stack");
    }
}
