//! Route and deadlock validation.
//!
//! Two checks back the deadlock-free reconfiguration story (Sec. II-C):
//!
//! * **Route termination**: walking the routing tables from any source to
//!   any destination terminates at the destination's NI (no loops, no
//!   missing entries).
//! * **Channel-dependency-graph acyclicity** (Dally/Towles): for every path
//!   the tables can produce, consecutive channel holds create dependencies;
//!   the graph over `(channel, VC class)` nodes must be acyclic per virtual
//!   network. Dateline class switches (torus wraps) are modeled exactly as
//!   the simulator applies them.

use crate::geom::{Coord, Grid};
use adaptnoc_sim::ids::{ChannelId, NodeId, PortId, RouterId, Vnet};
use adaptnoc_sim::spec::NetworkSpec;
use std::collections::HashMap;

/// A walked route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePath {
    /// Channels traversed, in order.
    pub channels: Vec<ChannelId>,
    /// Router-to-router hops (= `channels.len()`).
    pub hops: usize,
    /// Sum of channel latencies (a zero-load lower bound without router
    /// pipeline delays).
    pub wire_latency: u32,
}

/// Validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A routing entry is missing.
    NoRoute {
        /// Router with the missing entry.
        router: RouterId,
        /// Destination.
        dst: NodeId,
        /// Virtual network.
        vnet: Vnet,
    },
    /// A routing entry points to a port with no channel and no matching NI.
    BadPort {
        /// Router with the bad entry.
        router: RouterId,
        /// The port.
        port: PortId,
    },
    /// The walk exceeded the hop budget (a routing loop).
    Loop {
        /// Source of the looping route.
        src: NodeId,
        /// Destination of the looping route.
        dst: NodeId,
        /// Virtual network.
        vnet: Vnet,
    },
    /// A VC-class-1 packet would be allocated at a router without a VC
    /// split (the dateline would be ineffective).
    MissingVcSplit {
        /// The offending router.
        router: RouterId,
    },
    /// The channel dependency graph contains a cycle.
    DependencyCycle {
        /// Virtual network with the cycle.
        vnet: Vnet,
        /// One channel on the cycle.
        witness: ChannelId,
    },
    /// A node has no NI.
    NoNi(NodeId),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::NoRoute { router, dst, vnet } => {
                write!(f, "no route at {router} towards {dst} on {vnet}")
            }
            ValidateError::BadPort { router, port } => {
                write!(f, "route at {router} points to unwired port {port}")
            }
            ValidateError::Loop { src, dst, vnet } => {
                write!(f, "routing loop from {src} to {dst} on {vnet}")
            }
            ValidateError::MissingVcSplit { router } => {
                write!(f, "dateline class used at {router} without a VC split")
            }
            ValidateError::DependencyCycle { vnet, witness } => {
                write!(f, "channel dependency cycle on {vnet} through {witness}")
            }
            ValidateError::NoNi(n) => write!(f, "node {n} has no network interface"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Walks the route from `src` to `dst` on `vnet`, mirroring the simulator's
/// per-hop table lookups and VC-class updates.
///
/// # Errors
///
/// Returns [`ValidateError`] on missing entries, unwired ports, or loops.
pub fn walk_route(
    spec: &NetworkSpec,
    vnet: Vnet,
    src: NodeId,
    dst: NodeId,
) -> Result<RoutePath, ValidateError> {
    walk_route_in(spec, &PortChannels::new(spec), vnet, src, dst)
}

/// The channel leaving each `(router, out port)`: a dense per-router-port
/// table, built once per validation and shared by every walk.
struct PortChannels {
    /// `base[r]` is router `r`'s first slot; `base[routers]` the total.
    base: Vec<usize>,
    /// Channel index per slot.
    channel: Vec<Option<u32>>,
}

impl PortChannels {
    fn new(spec: &NetworkSpec) -> Self {
        // A row covers the router's ports and any channel port beyond
        // them, so every channel keeps a slot whatever the spec's state.
        let mut width: Vec<usize> = spec.routers.iter().map(|r| r.n_ports as usize).collect();
        for c in &spec.channels {
            let w = &mut width[c.src.router.index()];
            *w = (*w).max(c.src.port.index() + 1);
        }
        let mut base = Vec::with_capacity(width.len() + 1);
        let mut acc = 0;
        base.push(0);
        for w in width {
            acc += w;
            base.push(acc);
        }
        let mut channel = vec![None; acc];
        // Later channels win a shared port, as map insertion did.
        for (i, c) in spec.channels.iter().enumerate() {
            channel[base[c.src.router.index()] + c.src.port.index()] = Some(i as u32);
        }
        PortChannels { base, channel }
    }

    fn get(&self, router: RouterId, port: PortId) -> Option<usize> {
        let (lo, hi) = (
            *self.base.get(router.index())?,
            *self.base.get(router.index() + 1)?,
        );
        let slot = lo + port.index();
        if slot >= hi {
            return None;
        }
        self.channel[slot].map(|c| c as usize)
    }
}

fn walk_route_in(
    spec: &NetworkSpec,
    ports: &PortChannels,
    vnet: Vnet,
    src: NodeId,
    dst: NodeId,
) -> Result<RoutePath, ValidateError> {
    let src_ni = spec.ni_of(src).ok_or(ValidateError::NoNi(src))?;
    let dst_ni = spec.ni_of(dst).ok_or(ValidateError::NoNi(dst))?;

    let mut cur = src_ni.router;
    let mut path = RoutePath {
        channels: Vec::new(),
        hops: 0,
        wire_latency: 0,
    };
    let budget = spec.routers.len() * 4 + 8;
    loop {
        let port = spec
            .tables
            .lookup(vnet, cur, dst)
            .ok_or(ValidateError::NoRoute {
                router: cur,
                dst,
                vnet,
            })?;
        if cur == dst_ni.router && port == dst_ni.port {
            return Ok(path);
        }
        let Some(ci) = ports.get(cur, port) else {
            return Err(ValidateError::BadPort { router: cur, port });
        };
        let ch = &spec.channels[ci];
        path.channels.push(ChannelId(ci as u32));
        path.hops += 1;
        path.wire_latency += ch.latency as u32;
        cur = ch.dst.router;
        if path.hops > budget {
            return Err(ValidateError::Loop { src, dst, vnet });
        }
    }
}

/// Statistics over a set of validated routes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteStats {
    /// Number of routes walked.
    pub routes: usize,
    /// Total hops.
    pub total_hops: usize,
    /// Maximum hops on any route.
    pub max_hops: usize,
}

impl RouteStats {
    /// Mean hops per route.
    pub fn avg_hops(&self) -> f64 {
        if self.routes == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.routes as f64
        }
    }
}

/// Validates every `(src, dst)` pair on every vnet: routes terminate and the
/// per-vnet channel dependency graphs (over `(channel, class)` nodes) are
/// acyclic.
///
/// # Errors
///
/// Returns the first [`ValidateError`] found. A dependency cycle's witness
/// is deterministic: the graph is searched in ascending `(channel, class)`
/// order.
pub fn check_routes_and_deadlock(
    spec: &NetworkSpec,
    pairs: &[(NodeId, NodeId)],
) -> Result<RouteStats, ValidateError> {
    let ports = PortChannels::new(spec);
    let mut stats = RouteStats::default();
    for v in 0..spec.tables.vnets() as u8 {
        let vnet = Vnet(v);
        let mut deps = DepGraph::new(spec.channels.len());
        for &(src, dst) in pairs {
            if src == dst {
                continue;
            }
            let path = walk_route_in(spec, &ports, vnet, src, dst)?;
            stats.routes += 1;
            stats.total_hops += path.hops;
            stats.max_hops = stats.max_hops.max(path.hops);

            let mut class = 0u8;
            let mut last_dim = adaptnoc_sim::spec::DIM_NONE;
            let mut prev: Option<u32> = None;
            for &ch_id in &path.channels {
                let ch = &spec.channels[ch_id.index()];
                class = ch.class_after(class, last_dim);
                last_dim = ch.dim();
                if class > 0 {
                    // The upstream router allocates the class-restricted VC;
                    // it must have a split configured.
                    let up = ch.src.router;
                    if spec.routers[up.index()].vc_split.is_none() {
                        return Err(ValidateError::MissingVcSplit { router: up });
                    }
                }
                let node = DepGraph::node(ch_id.0, class);
                if let Some(p) = prev {
                    deps.add(p, node);
                }
                prev = Some(node);
            }
        }
        if let Some(witness) = deps.find_cycle() {
            return Err(ValidateError::DependencyCycle {
                vnet,
                witness: ChannelId(witness),
            });
        }
    }
    Ok(stats)
}

/// VC classes a channel-dependency node distinguishes (0, the dateline
/// class 1 and the sticky inter-chip class).
const CLASSES: u32 = adaptnoc_sim::spec::CLASS_INTERCHIP as u32 + 1;

/// Channel-dependency graph over dense `(channel, class)` node indices
/// (`channel * CLASSES + class`).
struct DepGraph {
    nodes: usize,
    /// Dependency edges `(from, to)`, possibly repeated.
    edges: Vec<(u32, u32)>,
}

impl DepGraph {
    fn new(channels: usize) -> Self {
        DepGraph {
            nodes: channels * CLASSES as usize,
            edges: Vec::new(),
        }
    }

    fn node(channel: u32, class: u8) -> u32 {
        debug_assert!((class as u32) < CLASSES, "VC class {class} out of range");
        channel * CLASSES + class as u32
    }

    fn add(&mut self, from: u32, to: u32) {
        self.edges.push((from, to));
    }

    /// The channel of a node on some dependency cycle, if there is one.
    /// An iterative depth-first search starts from nodes in ascending
    /// index order and visits children in ascending order, so the witness
    /// depends only on the graph.
    fn find_cycle(mut self) -> Option<u32> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        // Compressed adjacency: node `n`'s children are
        // `self.edges[start[n]..start[n + 1]]`.
        let mut start = vec![0usize; self.nodes + 1];
        for &(from, _) in &self.edges {
            start[from as usize + 1] += 1;
        }
        for n in 0..self.nodes {
            start[n + 1] += start[n];
        }
        let mut color = vec![Color::White; self.nodes];
        // Frames of (node, next child edge).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.nodes {
            if color[root] != Color::White || start[root] == start[root + 1] {
                continue;
            }
            color[root] = Color::Gray;
            stack.push((root, start[root]));
            while let Some((node, next)) = stack.last_mut() {
                if *next == start[*node + 1] {
                    color[*node] = Color::Black;
                    stack.pop();
                    continue;
                }
                let child = self.edges[*next].1 as usize;
                *next += 1;
                match color[child] {
                    Color::Gray => return Some(child as u32 / CLASSES),
                    Color::Black => {}
                    Color::White => {
                        color[child] = Color::Gray;
                        stack.push((child, start[child]));
                    }
                }
            }
        }
        None
    }
}

/// Per-tile-edge wiring limits for the generalized feasibility check.
///
/// The numbers are *unidirectional channels per tile edge* and mirror the
/// 45 nm metal-stack budget derived in `adaptnoc-power::wiring` (2 high-metal
/// plus 7 intermediate bidirectional 256-bit links per edge = 18 directed
/// channels, of which 4 may ride the high metal layers reserved for
/// adaptable links), extended with a package-substrate SerDes lane budget
/// for the inter-chip links of chiplet fabrics. Keeping the check here lets
/// every generated topology be validated without depending on the power
/// crate; `adaptnoc-power::wiring::analyze_wiring` remains the authoritative
/// physical model and the two are cross-checked in the bench tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WiringLimits {
    /// Max unidirectional channels over any tile edge (all wire classes).
    pub max_channels_per_edge: u32,
    /// Max unidirectional adaptable-link channels over any tile edge
    /// (pinned to the high metal layers).
    pub max_express_channels_per_edge: u32,
    /// Max unidirectional inter-chip channels over any chip-boundary edge
    /// (package SerDes lanes, not on-chip metal).
    pub max_interchip_channels_per_edge: u32,
}

impl WiringLimits {
    /// The paper-calibrated 45 nm budget (see `adaptnoc-power::params`).
    pub fn paper() -> Self {
        WiringLimits {
            max_channels_per_edge: 18,
            max_express_channels_per_edge: 4,
            max_interchip_channels_per_edge: 8,
        }
    }
}

/// Wiring-feasibility report of a spec against [`WiringLimits`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WiringReport {
    /// Max unidirectional channels observed over any tile edge.
    pub max_channels_per_edge: u32,
    /// Max adaptable-link channels observed over any tile edge.
    pub max_express_channels_per_edge: u32,
    /// Max inter-chip channels observed over any chip-boundary edge.
    pub max_interchip_channels_per_edge: u32,
    /// Whether every observed maximum is within the limits.
    pub fits: bool,
}

/// Generalized wiring-budget feasibility check: routes every channel of the
/// spec dimension-ordered (x first, then y) over the tile edges of `grid`
/// and compares per-edge channel counts against `limits`. Concentration NI
/// links count on the edges they cross; inter-chip channels count against
/// the separate substrate-lane limit of the chip edge they cross. This is
/// the check every generated topology (sparse Hamming, chiplet fabrics,
/// custom irregular regions) must pass before it becomes a design point.
pub fn wiring_feasible(spec: &NetworkSpec, grid: &Grid, limits: &WiringLimits) -> WiringReport {
    // Edge id: ('h', x, y) between (x,y)-(x+1,y); ('v', x, y) between
    // (x,y)-(x,y+1).
    let mut all: HashMap<(char, u8, u8), u32> = HashMap::new();
    let mut express: HashMap<(char, u8, u8), u32> = HashMap::new();
    let mut interchip: HashMap<(char, u8, u8), u32> = HashMap::new();

    let mut add_span = |a: Coord, b: Coord, is_express: bool| {
        let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
        for x in x0..x1 {
            let e = ('h', x, a.y);
            *all.entry(e).or_insert(0) += 1;
            if is_express {
                *express.entry(e).or_insert(0) += 1;
            }
        }
        let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
        for y in y0..y1 {
            let e = ('v', b.x, y);
            *all.entry(e).or_insert(0) += 1;
            if is_express {
                *express.entry(e).or_insert(0) += 1;
            }
        }
    };

    for ch in &spec.channels {
        let a = grid.coord(ch.src.router);
        let b = grid.coord(ch.dst.router);
        if ch.kind == adaptnoc_sim::spec::ChannelKind::InterChip {
            let e = if a.y == b.y {
                ('h', a.x.min(b.x), a.y)
            } else {
                ('v', a.x, a.y.min(b.y))
            };
            *interchip.entry(e).or_insert(0) += 1;
            continue;
        }
        add_span(a, b, ch.kind.is_adaptable());
    }
    for ni in &spec.nis {
        if ni.concentration {
            add_span(grid.node_coord(ni.node), grid.coord(ni.router), false);
        }
    }

    let max = |m: &HashMap<(char, u8, u8), u32>| m.values().copied().max().unwrap_or(0);
    let report = WiringReport {
        max_channels_per_edge: max(&all),
        max_express_channels_per_edge: max(&express),
        max_interchip_channels_per_edge: max(&interchip),
        fits: false,
    };
    WiringReport {
        fits: report.max_channels_per_edge <= limits.max_channels_per_edge
            && report.max_express_channels_per_edge <= limits.max_express_channels_per_edge
            && report.max_interchip_channels_per_edge <= limits.max_interchip_channels_per_edge,
        ..report
    }
}

/// All ordered pairs among `nodes`.
pub fn all_pairs(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut v = Vec::with_capacity(nodes.len() * nodes.len());
    for &a in nodes {
        for &b in nodes {
            if a != b {
                v.push((a, b));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::mesh_chip;
    use crate::geom::{Coord, Grid};
    use adaptnoc_sim::config::SimConfig;

    #[test]
    fn mesh_chip_routes_terminate_and_are_deadlock_free() {
        let grid = Grid::new(4, 4);
        let spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
        let stats = check_routes_and_deadlock(&spec, &all_pairs(&nodes)).unwrap();
        assert_eq!(stats.routes, 2 * 16 * 15);
        // Mesh diameter of 4x4 is 6.
        assert_eq!(stats.max_hops, 6);
        assert!((stats.avg_hops() - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn walk_route_reports_hops() {
        let grid = Grid::new(4, 4);
        let spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(3, 3));
        let p = walk_route(&spec, Vnet::REQUEST, a, b).unwrap();
        assert_eq!(p.hops, 6);
        assert_eq!(p.wire_latency, 6);
    }

    #[test]
    fn broken_table_detected_as_no_route() {
        let grid = Grid::new(3, 3);
        let mut spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(2, 2));
        spec.tables
            .clear(Vnet::REQUEST, grid.router(Coord::new(1, 0)), b);
        let err = walk_route(&spec, Vnet::REQUEST, a, b);
        assert!(matches!(err, Err(ValidateError::NoRoute { .. })));
    }

    #[test]
    fn routing_loop_detected() {
        let grid = Grid::new(3, 1);
        let mut spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let a = grid.node(Coord::new(0, 0));
        let b = grid.node(Coord::new(2, 0));
        // Make router 1 bounce traffic back west.
        spec.tables.set(
            Vnet::REQUEST,
            grid.router(Coord::new(1, 0)),
            b,
            adaptnoc_sim::ids::Direction::West.port(),
        );
        let err = walk_route(&spec, Vnet::REQUEST, a, b);
        assert!(matches!(err, Err(ValidateError::Loop { .. })));
    }

    /// A dependency graph over `channels` channels from `(channel,
    /// class)` node pairs.
    fn graph(channels: usize, edges: &[[(u32, u8); 2]]) -> DepGraph {
        let mut g = DepGraph::new(channels);
        for &[(a, ca), (b, cb)] in edges {
            g.add(DepGraph::node(a, ca), DepGraph::node(b, cb));
        }
        g
    }

    #[test]
    fn cycle_finder_detects_simple_cycle() {
        let g = graph(3, &[[(0, 0), (1, 0)], [(1, 0), (2, 0)], [(2, 0), (0, 0)]]);
        // The search starts at channel 0 and closes the cycle there.
        assert_eq!(g.find_cycle(), Some(0));
    }

    #[test]
    fn cycle_finder_accepts_dag() {
        let g = graph(3, &[[(0, 0), (1, 0)], [(0, 0), (2, 0)], [(1, 0), (2, 0)]]);
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn class_split_distinguishes_nodes() {
        // Same channels, different classes: no cycle.
        let g = graph(2, &[[(0, 0), (1, 0)], [(1, 0), (0, 1)], [(0, 1), (1, 1)]]);
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn cyclic_tables_name_a_deterministic_witness() {
        // A 2x2 mesh whose vnet-0 tables send every diagonal pair the
        // clockwise way round (R0 -> R1 -> R3 -> R2 -> R0): four turns that
        // close a channel-dependency cycle.
        use adaptnoc_sim::ids::Direction::{East, North, South, West};
        let grid = Grid::new(2, 2);
        let mut spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
        let r = |x, y| grid.router(Coord::new(x, y));
        let n = |x, y| grid.node(Coord::new(x, y));
        let v = Vnet(0);
        spec.tables.set(v, r(0, 0), n(1, 1), East.port());
        spec.tables.set(v, r(1, 0), n(1, 1), North.port());
        spec.tables.set(v, r(1, 0), n(0, 1), North.port());
        spec.tables.set(v, r(1, 1), n(0, 1), West.port());
        spec.tables.set(v, r(1, 1), n(0, 0), West.port());
        spec.tables.set(v, r(0, 1), n(0, 0), South.port());
        spec.tables.set(v, r(0, 1), n(1, 0), South.port());
        spec.tables.set(v, r(0, 0), n(1, 0), East.port());
        let nodes: Vec<NodeId> = grid.iter().map(|c| grid.node(c)).collect();
        let pairs = all_pairs(&nodes);
        // Every other route is one hop, so only the four turns create
        // dependencies: the search starts on the cycle, at its
        // lowest-numbered channel, and closes the cycle there.
        let ring = |a: Coord, b: Coord| {
            spec.channels
                .iter()
                .position(|c| c.src.router == grid.router(a) && c.dst.router == grid.router(b))
                .expect("mesh neighbours share a channel") as u32
        };
        let cycle = [
            ring(Coord::new(0, 0), Coord::new(1, 0)),
            ring(Coord::new(1, 0), Coord::new(1, 1)),
            ring(Coord::new(1, 1), Coord::new(0, 1)),
            ring(Coord::new(0, 1), Coord::new(0, 0)),
        ];
        let lowest = ChannelId(*cycle.iter().min().unwrap());
        for _ in 0..8 {
            assert_eq!(
                check_routes_and_deadlock(&spec, &pairs),
                Err(ValidateError::DependencyCycle {
                    vnet: v,
                    witness: lowest
                })
            );
        }
    }

    #[test]
    fn all_pairs_excludes_self() {
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let pairs = all_pairs(&nodes);
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|(a, b)| a != b));
    }
}
