//! Topologies of switch nodes, their link tables, and deterministic
//! shortest-path routing.
//!
//! A [`Topology`] is `nodes` identical `QosSwitch` instances plus a
//! directed [`LinkSpec`] table. Routing is breadth-first over the *live*
//! link graph (dead links and partitioned nodes drop out), recomputed by
//! the fabric after every topology fault; ties break on the lowest link
//! index, so two runs with the same seed take identical paths.
//!
//! Builders cover the three shapes the multi-hop experiments use:
//! a linear [`chain`](Topology::chain), a 2-level
//! [`fat_tree`](Topology::fat_tree) (two leaves, two spines, so every
//! leaf pair has two disjoint paths), and a rectangular
//! [`mesh`](Topology::mesh) with one link per direction per edge.
//!
//! Port conventions (radix-8 nodes): transit links use input/output
//! ports 0–3; fabric flows inject at input ports 4–7 and terminate at
//! output ports 4–7, so transit and injection never collide.

use crate::link::{LinkDiscipline, LinkSpec};

/// A set of nodes joined by directed links.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of nodes (each an 8x8 `QosSwitch`).
    pub nodes: usize,
    /// The directed link table; the index into this table is the link's
    /// identity in trace events and fault plans.
    pub links: Vec<LinkSpec>,
}

impl Topology {
    /// A linear chain with `hops` links: `hops + 1` nodes, node `i`
    /// forwarding to node `i + 1` through output port 0 / input port 0.
    ///
    /// # Panics
    ///
    /// Panics when `hops` is zero.
    #[must_use]
    pub fn chain(hops: usize, discipline: LinkDiscipline) -> Self {
        assert!(hops > 0, "a chain needs at least one hop");
        let links = (0..hops)
            .map(|i| LinkSpec::new(i, 0, i + 1, 0).discipline(discipline))
            .collect();
        Topology {
            nodes: hops + 1,
            links,
        }
    }

    /// A 2-level fat tree: leaves 0 and 3, spines 1 and 2, with an
    /// uplink from each leaf to each spine and a downlink from each
    /// spine to the other leaf. Every leaf-to-leaf path has a disjoint
    /// alternative, so a single link kill is always routable-around.
    #[must_use]
    pub fn fat_tree(discipline: LinkDiscipline) -> Self {
        let links = vec![
            // leaf 0 uplinks
            LinkSpec::new(0, 0, 1, 0).discipline(discipline),
            LinkSpec::new(0, 1, 2, 0).discipline(discipline),
            // spine downlinks to leaf 3
            LinkSpec::new(1, 0, 3, 0).discipline(discipline),
            LinkSpec::new(2, 0, 3, 1).discipline(discipline),
            // leaf 3 uplinks (return direction)
            LinkSpec::new(3, 0, 1, 1).discipline(discipline),
            LinkSpec::new(3, 1, 2, 1).discipline(discipline),
            // spine downlinks to leaf 0
            LinkSpec::new(1, 1, 0, 0).discipline(discipline),
            LinkSpec::new(2, 1, 0, 1).discipline(discipline),
        ];
        Topology { nodes: 4, links }
    }

    /// A `rows x cols` mesh with a link in each direction per adjacent
    /// pair. Output/input ports encode the direction (0 = east,
    /// 1 = west, 2 = south, 3 = north), so each node's transit ports
    /// stay below the injection range.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 2 in one axis
    /// (a 1x1 mesh has no links).
    #[must_use]
    pub fn mesh(rows: usize, cols: usize, discipline: LinkDiscipline) -> Self {
        assert!(rows * cols >= 2, "a mesh needs at least two nodes");
        let id = |r: usize, c: usize| r * cols + c;
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                // East/west pair.
                if c + 1 < cols {
                    links.push(LinkSpec::new(id(r, c), 0, id(r, c + 1), 1).discipline(discipline));
                    links.push(LinkSpec::new(id(r, c + 1), 1, id(r, c), 0).discipline(discipline));
                }
                // South/north pair.
                if r + 1 < rows {
                    links.push(LinkSpec::new(id(r, c), 2, id(r + 1, c), 3).discipline(discipline));
                    links.push(LinkSpec::new(id(r + 1, c), 3, id(r, c), 2).discipline(discipline));
                }
            }
        }
        Topology {
            nodes: rows * cols,
            links,
        }
    }

    /// Applies `f` to every link (e.g. to tune latency or queue depth
    /// after building a shape).
    #[must_use]
    pub fn map_links(mut self, f: impl Fn(LinkSpec) -> LinkSpec) -> Self {
        self.links = self.links.into_iter().map(f).collect();
        self
    }
}

/// First-hop routing table: `routes[node][dest]` is the link index of
/// the next hop from `node` toward `dest` (`None` = unreachable).
pub type Routes = Vec<Vec<Option<usize>>>;

/// Computes shortest-path first hops over the live graph.
///
/// `link_up[l]` and `node_up[n]` mask dead links and partitioned nodes.
/// Breadth-first from each destination over reversed edges; within a
/// wave the lowest link index wins, making the table — and therefore
/// every reroute decision — deterministic.
#[must_use]
pub fn compute_routes(topology: &Topology, link_up: &[bool], node_up: &[bool]) -> Routes {
    let n = topology.nodes;
    let mut routes: Routes = vec![vec![None; n]; n];
    for dest in 0..n {
        if !node_up.get(dest).copied().unwrap_or(false) {
            continue;
        }
        let mut dist: Vec<Option<u32>> = vec![None; n];
        dist[dest] = Some(0);
        let mut wave = 0u32;
        let mut settled_any = true;
        while settled_any {
            settled_any = false;
            for (l, link) in topology.links.iter().enumerate() {
                let live = link_up.get(l).copied().unwrap_or(false)
                    && node_up.get(link.src).copied().unwrap_or(false)
                    && node_up.get(link.dst).copied().unwrap_or(false);
                if !live {
                    continue;
                }
                if dist[link.dst] == Some(wave) && dist[link.src].is_none() {
                    dist[link.src] = Some(wave + 1);
                    routes[link.src][dest] = Some(l);
                    settled_any = true;
                }
            }
            wave += 1;
        }
    }
    routes
}

/// The links a packet crosses from `src` to `dest` under `routes`, in
/// order (empty when `src == dest`); `None` when `dest` is unreachable.
///
/// [`compute_routes`] builds one shortest-path tree per destination, so
/// every hop lands one wave closer: a walk that takes its first hop
/// reaches `dest`, and one that cannot fails there.
#[must_use]
pub(crate) fn route_links(
    topology: &Topology,
    routes: &Routes,
    src: usize,
    dest: usize,
) -> Option<Vec<usize>> {
    let mut links = Vec::new();
    let mut node = src;
    while node != dest {
        let l = routes.get(node)?.get(dest).copied().flatten()?;
        debug_assert!(links.len() < topology.nodes, "routes are not a tree");
        links.push(l);
        node = topology.links.get(l)?.dst;
    }
    Some(links)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_up(t: &Topology) -> (Vec<bool>, Vec<bool>) {
        (vec![true; t.links.len()], vec![true; t.nodes])
    }

    #[test]
    fn chain_routes_forward_hop_by_hop() {
        let t = Topology::chain(3, LinkDiscipline::Credit);
        assert_eq!(t.nodes, 4);
        assert_eq!(t.links.len(), 3);
        let (links, nodes) = all_up(&t);
        let routes = compute_routes(&t, &links, &nodes);
        assert_eq!(routes[0][3], Some(0));
        assert_eq!(routes[1][3], Some(1));
        assert_eq!(routes[2][3], Some(2));
        assert_eq!(routes[3][0], None, "chain links are one-directional");
    }

    #[test]
    fn fat_tree_reroutes_around_a_dead_uplink() {
        let t = Topology::fat_tree(LinkDiscipline::Credit);
        let (mut links, nodes) = all_up(&t);
        let routes = compute_routes(&t, &links, &nodes);
        // Healthy: lowest link index wins — leaf 0 goes via spine 1.
        assert_eq!(routes[0][3], Some(0));
        links[0] = false;
        let rerouted = compute_routes(&t, &links, &nodes);
        assert_eq!(rerouted[0][3], Some(1), "second uplink takes over");
    }

    #[test]
    fn mesh_survives_a_partitioned_transit_node() {
        let t = Topology::mesh(2, 2, LinkDiscipline::Credit);
        let (links, mut nodes) = all_up(&t);
        let routes = compute_routes(&t, &links, &nodes);
        // 0 -> 3 goes through node 1 or node 2; both are two hops.
        let first = routes[0][3].expect("mesh is connected");
        let via = t.links[first].dst;
        assert!(via == 1 || via == 2);
        nodes[via] = false;
        let rerouted = compute_routes(&t, &links, &nodes);
        let second = rerouted[0][3].expect("alternate corner survives");
        assert_ne!(t.links[second].dst, via, "route avoids the dead node");
        // Destinations on a dead node are unreachable, not misrouted.
        assert_eq!(rerouted[0][via], None);
    }

    #[test]
    fn routes_replay_identically() {
        let t = Topology::mesh(2, 3, LinkDiscipline::Lossy);
        let (links, nodes) = all_up(&t);
        assert_eq!(
            compute_routes(&t, &links, &nodes),
            compute_routes(&t, &links, &nodes)
        );
    }
}
