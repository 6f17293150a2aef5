//! Topology graph: nodes (hosts/switches), links, failures, and stable
//! port numbering.
//!
//! Links are undirected at the graph level (full-duplex cables); direction
//! matters for buffer dependencies and is expressed by [`DirLink`]. Port
//! indices are stable: failing a link keeps every port number unchanged,
//! matching how a real switch keeps its port map when a cable dies.

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of an (undirected) link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// One direction of an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirLink {
    /// The underlying cable.
    pub link: LinkId,
    /// `false` = the A→B direction, `true` = B→A.
    pub reversed: bool,
}

impl DirLink {
    /// Dense encoding (`link·2 + reversed`) for set/map keys.
    pub fn index(self) -> u64 {
        self.link.0 as u64 * 2 + self.reversed as u64
    }

    /// Decode an [`DirLink::index`] encoding back into a directed link.
    pub fn from_index(idx: u64) -> DirLink {
        DirLink { link: LinkId((idx / 2) as u32), reversed: idx % 2 == 1 }
    }

    /// The opposite direction of the same cable.
    pub fn flipped(self) -> DirLink {
        DirLink { link: self.link, reversed: !self.reversed }
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host (traffic source/sink, single port in every topology we
    /// build).
    Host,
    /// A switch (forwards packets, runs flow control on every port).
    Switch,
}

/// Node metadata.
#[derive(Debug, Clone)]
pub struct Node {
    /// Host or switch.
    pub kind: NodeKind,
    /// Human-readable name ("H0", "SA3", …) used in reports.
    pub name: String,
}

/// Link metadata.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Whether the cable is currently failed.
    pub failed: bool,
}

/// An undirected multigraph of hosts, switches, and links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Per node: `(neighbor, link)` in port order (insertion order).
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host named `name`; returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name.into())
    }

    /// Add a switch named `name`; returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name.into())
    }

    fn add_node(&mut self, kind: NodeKind, name: String) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, name });
        self.adj.push(Vec::new());
        id
    }

    /// Connect two nodes with a cable; returns the link id. The new link
    /// occupies the next port index on both endpoints.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { a, b, failed: false });
        self.adj[a.0 as usize].push((b, id));
        self.adj[b.0 as usize].push((a, id));
        id
    }

    /// Mark a link failed. Port numbering is unaffected.
    pub fn fail_link(&mut self, l: LinkId) {
        self.links[l.0 as usize].failed = true;
    }

    /// Restore a failed link.
    pub fn restore_link(&mut self, l: LinkId) {
        self.links[l.0 as usize].failed = false;
    }

    /// Whether the link is alive.
    pub fn link_alive(&self, l: LinkId) -> bool {
        !self.links[l.0 as usize].failed
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links (failed ones included).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node metadata.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.0 as usize]
    }

    /// Link metadata.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0 as usize]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All link ids (failed ones included).
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Ids of all hosts.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.node(n).kind == NodeKind::Host).collect()
    }

    /// Ids of all switches.
    pub fn switches(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.node(n).kind == NodeKind::Switch).collect()
    }

    /// The full port list of a node: `(neighbor, link)` per port, including
    /// ports whose cable is failed.
    pub fn ports(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.0 as usize]
    }

    /// Alive neighbors of a node: `(neighbor, link)`.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.adj[n.0 as usize].iter().copied().filter(move |&(_, l)| self.link_alive(l))
    }

    /// The alive adjacency as one flat table (see [`AliveAdjacency`]).
    pub fn alive_adjacency(&self) -> AliveAdjacency {
        let mut offsets = Vec::with_capacity(self.num_nodes() + 1);
        let mut pairs = Vec::with_capacity(2 * self.num_links());
        offsets.push(0);
        for n in self.node_ids() {
            pairs.extend(self.neighbors(n));
            offsets.push(u32::try_from(pairs.len()).expect("adjacency size fits u32"));
        }
        AliveAdjacency { offsets, pairs }
    }

    /// The port index `link` occupies on `node`; panics if not incident.
    pub fn port_of(&self, node: NodeId, link: LinkId) -> usize {
        self.adj[node.0 as usize]
            .iter()
            .position(|&(_, l)| l == link)
            .unwrap_or_else(|| panic!("link {link:?} not incident to node {node:?}"))
    }

    /// The far endpoint of `link` as seen from `node`.
    pub fn peer(&self, link: LinkId, node: NodeId) -> NodeId {
        let l = self.link(link);
        if l.a == node {
            l.b
        } else if l.b == node {
            l.a
        } else {
            panic!("node {node:?} is not an endpoint of link {link:?}")
        }
    }

    /// The directed view of `link` leaving `from`.
    pub fn dir_from(&self, link: LinkId, from: NodeId) -> DirLink {
        let l = self.link(link);
        if l.a == from {
            DirLink { link, reversed: false }
        } else if l.b == from {
            DirLink { link, reversed: true }
        } else {
            panic!("node {from:?} is not an endpoint of link {link:?}")
        }
    }

    /// Source node of a directed link.
    pub fn dir_src(&self, d: DirLink) -> NodeId {
        let l = self.link(d.link);
        if d.reversed {
            l.b
        } else {
            l.a
        }
    }

    /// Destination node of a directed link.
    pub fn dir_dst(&self, d: DirLink) -> NodeId {
        let l = self.link(d.link);
        if d.reversed {
            l.a
        } else {
            l.b
        }
    }

    /// The alive link between two nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbors(a).find(|&(n, _)| n == b).map(|(_, l)| l)
    }

    /// Look a node up by name (O(n); intended for tests and scenario
    /// construction).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_ids().find(|&n| self.node(n).name == name)
    }

    /// Whether every host can reach every other host over alive links.
    pub fn hosts_connected(&self) -> bool {
        let hosts = self.hosts();
        let Some(&first) = hosts.first() else {
            return true;
        };
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![first];
        seen[first.0 as usize] = true;
        while let Some(v) = stack.pop() {
            for (u, _) in self.neighbors(v) {
                if !seen[u.0 as usize] {
                    seen[u.0 as usize] = true;
                    stack.push(u);
                }
            }
        }
        hosts.iter().all(|h| seen[h.0 as usize])
    }
}

/// A snapshot of a topology's alive links in compressed sparse rows:
/// node `v`'s alive `(neighbor, link)` pairs, in port order, are
/// `pairs[offsets[v]..offsets[v + 1]]`. Walking it is a slice scan, where
/// [`Topology::neighbors`] tests every port's link state; the routing
/// oracle and the all-pairs analyses build one per pass and run every BFS
/// over it. It does not follow later link failures or restorations.
#[derive(Debug, Clone)]
pub struct AliveAdjacency {
    offsets: Vec<u32>,
    pairs: Vec<(NodeId, LinkId)>,
}

impl AliveAdjacency {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of alive links (each appears once at either endpoint).
    pub fn num_alive_links(&self) -> usize {
        self.pairs.len() / 2
    }

    /// Alive neighbors of `v`: `(neighbor, link)`, in port order.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        let v = v.0 as usize;
        &self.pairs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, [NodeId; 3], [LinkId; 3]) {
        let mut t = Topology::new();
        let s1 = t.add_switch("S1");
        let s2 = t.add_switch("S2");
        let s3 = t.add_switch("S3");
        let l12 = t.add_link(s1, s2);
        let l23 = t.add_link(s2, s3);
        let l31 = t.add_link(s3, s1);
        (t, [s1, s2, s3], [l12, l23, l31])
    }

    #[test]
    fn ports_are_insertion_ordered() {
        let (t, [s1, s2, s3], [l12, _, l31]) = triangle();
        assert_eq!(t.ports(s1), &[(s2, l12), (s3, l31)]);
        assert_eq!(t.port_of(s1, l12), 0);
        assert_eq!(t.port_of(s1, l31), 1);
        assert_eq!(t.port_of(s3, l31), 1);
    }

    #[test]
    fn failure_preserves_ports() {
        let (mut t, [s1, _, _], [l12, _, l31]) = triangle();
        t.fail_link(l12);
        assert_eq!(t.port_of(s1, l31), 1);
        assert_eq!(t.neighbors(s1).count(), 1);
        t.restore_link(l12);
        assert_eq!(t.neighbors(s1).count(), 2);
    }

    #[test]
    fn alive_adjacency_matches_neighbors() {
        let (mut t, [s1, s2, s3], [l12, ..]) = triangle();
        t.fail_link(l12);
        let adj = t.alive_adjacency();
        assert_eq!(adj.num_nodes(), 3);
        assert_eq!(adj.num_alive_links(), 2);
        for n in [s1, s2, s3] {
            assert_eq!(adj.neighbors(n), t.neighbors(n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn peer_and_directions() {
        let (t, [s1, s2, _], [l12, ..]) = triangle();
        assert_eq!(t.peer(l12, s1), s2);
        assert_eq!(t.peer(l12, s2), s1);
        let d = t.dir_from(l12, s2);
        assert!(d.reversed);
        assert_eq!(t.dir_src(d), s2);
        assert_eq!(t.dir_dst(d), s1);
        assert_eq!(d.flipped().index(), d.index() ^ 1);
    }

    #[test]
    fn connectivity() {
        let mut t = Topology::new();
        let h1 = t.add_host("H1");
        let h2 = t.add_host("H2");
        let s = t.add_switch("S");
        let a = t.add_link(h1, s);
        t.add_link(h2, s);
        assert!(t.hosts_connected());
        t.fail_link(a);
        assert!(!t.hosts_connected());
    }

    #[test]
    fn lookup_by_name() {
        let (t, [s1, ..], _) = triangle();
        assert_eq!(t.node_by_name("S1"), Some(s1));
        assert_eq!(t.node_by_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut t = Topology::new();
        let s = t.add_switch("S");
        t.add_link(s, s);
    }
}
