//! Routing functions as first-class turn models.
//!
//! The paper implements Power Punch on a 2D mesh with XY routing (§4.1):
//! packets travel the full X offset first, then the full Y offset, and the
//! resulting turn restriction — `Y->X` turns are illegal — is what lets
//! punch signals be merged into narrow codewords. That derivation never
//! actually uses "XY"; it uses *determinism* (one outgoing port per
//! destination) and the *turn model* (which port sequences are legal). This
//! module expresses routing as exactly that contract:
//!
//! * [`RoutingKind`] — the storable turn models: dimension-ordered XY and
//!   YX plus west-first. Each plans a route as one X run and one Y run in
//!   its own order ([`RoutingKind::segments`]) and states which turns it
//!   allows ([`RoutingKind::turn_legal`]);
//! * [`RouteView`] — the `Copy` bundle of substrate + routing that the
//!   punch fabric, codebook enumeration and power managers thread around.
//!   Output ports, punch targets and implied-target checks are derived
//!   here, once, in closed form from the segment schedule (no hop-by-hop
//!   walking).

use crate::direction::Direction;
use crate::error::ConfigError;
use crate::geometry::Mesh;
use crate::topology::Substrate;
use crate::NodeId;

/// The storable routing-function handle: which turn model a configuration
/// or spec routes with. `Copy`/`Eq`/`Hash`, like [`Substrate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingKind {
    /// Dimension-ordered X-then-Y (the paper's routing; forbids `Y->X`).
    #[default]
    Xy,
    /// Dimension-ordered Y-then-X (forbids `X->Y`; transposes the punch
    /// codeword widths).
    Yx,
    /// West-first turn model: all westward travel happens first; turning
    /// *into* West is forbidden.
    WestFirst,
}

impl RoutingKind {
    /// Every supported routing function, in stable order.
    pub const ALL: [RoutingKind; 3] = [RoutingKind::Xy, RoutingKind::Yx, RoutingKind::WestFirst];

    /// Stable tag used in artifact ids, content hashes and CLI parsing.
    /// Never rename a tag: artifact names and baselines depend on them.
    pub fn tag(&self) -> &'static str {
        match self {
            RoutingKind::Xy => "xy",
            RoutingKind::Yx => "yx",
            RoutingKind::WestFirst => "wf",
        }
    }

    /// Parses a [`RoutingKind::tag`] (long CLI spellings included).
    pub fn from_tag(tag: &str) -> Option<RoutingKind> {
        Some(match tag {
            "xy" => RoutingKind::Xy,
            "yx" => RoutingKind::Yx,
            "wf" | "westfirst" | "west-first" => RoutingKind::WestFirst,
            _ => return None,
        })
    }

    /// Human-readable name for errors and help text.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingKind::Xy => "XY",
            RoutingKind::Yx => "YX",
            RoutingKind::WestFirst => "west-first",
        }
    }

    /// Checks that this turn model is deadlock-free on `topo`.
    ///
    /// Turn models break cycles by forbidding turns, which works on the
    /// mesh's acyclic channel graph. A torus closes every row and column
    /// into a ring that no turn restriction can cut, so only
    /// dimension-ordered routing — whose straight rings are handled by the
    /// multi-VC vnet layout — is admitted there.
    ///
    /// # Errors
    ///
    /// [`ConfigError::CyclicRouting`] for a forbidden combination.
    pub fn validate_on(&self, topo: Substrate) -> Result<(), ConfigError> {
        if topo.wraps() && !matches!(self, RoutingKind::Xy | RoutingKind::Yx) {
            return Err(ConfigError::CyclicRouting {
                routing: self.name(),
                topology: topo.kind_name(),
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Splits a signed delta into `(direction, hops)` runs for each axis.
fn axis_runs(dx: i32, dy: i32) -> ((Direction, u16), (Direction, u16)) {
    let x = if dx >= 0 {
        (Direction::East, dx as u16)
    } else {
        (Direction::West, (-dx) as u16)
    };
    let y = if dy >= 0 {
        (Direction::South, dy as u16)
    } else {
        (Direction::North, (-dy) as u16)
    };
    (x, y)
}

impl RoutingKind {
    /// The two straight runs a packet travels from `from` to `to`, in
    /// order: one X run and one Y run, either of which may be zero hops.
    /// Consecutive runs form legal turns under
    /// [`RoutingKind::turn_legal`], and each intermediate router's
    /// remaining route equals `segments(topo, intermediate, to)` (the
    /// prefix property deterministic routing needs).
    #[inline]
    pub fn segments(&self, topo: Substrate, from: NodeId, to: NodeId) -> [(Direction, u16); 2] {
        let (dx, dy) = topo.delta(from, to);
        let (x, y) = axis_runs(dx, dy);
        let x_first = match self {
            RoutingKind::Xy => true,
            RoutingKind::Yx => false,
            // Westward travel first; otherwise Y before East, so the route
            // never turns into West.
            RoutingKind::WestFirst => x.0 == Direction::West,
        };
        if x_first {
            [x, y]
        } else {
            [y, x]
        }
    }

    /// Whether a packet travelling in `incoming` may leave in `outgoing`.
    /// Every model forbids U-turns; XY additionally forbids `Y->X` (the
    /// paper's §4.1 step 3).
    pub fn turn_legal(&self, incoming: Direction, outgoing: Direction) -> bool {
        if outgoing == incoming.opposite() {
            return false; // U-turns are illegal under every model.
        }
        if outgoing == incoming {
            return true; // Continuing straight always is.
        }
        match self {
            RoutingKind::Xy => !(incoming.is_y() && outgoing.is_x()),
            RoutingKind::Yx => !(incoming.is_x() && outgoing.is_y()),
            RoutingKind::WestFirst => outgoing != Direction::West,
        }
    }
}

/// A substrate paired with the routing function that runs on it: the
/// `Copy` bundle everything route-aware stores.
///
/// `From<Mesh>`/`From<Substrate>` default the routing to [`RoutingKind::Xy`]
/// (`PunchFabric::new(mesh, 3)`, …); pass a `(topology, routing)` tuple to
/// pick another turn model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteView {
    /// The substrate routes run over.
    pub topo: Substrate,
    /// The turn model that plans them.
    pub routing: RoutingKind,
}

impl RouteView {
    /// Bundles a substrate with a routing function.
    pub fn new(topo: impl Into<Substrate>, routing: RoutingKind) -> Self {
        RouteView {
            topo: topo.into(),
            routing,
        }
    }

    /// The output direction at `from` for a packet headed to `to`, or
    /// `None` when `from == to` (the packet ejects locally).
    ///
    /// # Examples
    ///
    /// ```
    /// use punchsim_types::{Direction, Mesh, NodeId, RouteView};
    ///
    /// let xy = RouteView::from(Mesh::new(8, 8));
    /// // Packet at R26 headed to R31 travels east first (Figure 4).
    /// assert_eq!(xy.direction(NodeId(26), NodeId(31)), Some(Direction::East));
    /// ```
    #[inline]
    pub fn direction(&self, from: NodeId, to: NodeId) -> Option<Direction> {
        let runs = self.routing.segments(self.topo, from, to);
        runs.into_iter().find(|&(_, n)| n > 0).map(|(dir, _)| dir)
    }

    /// The next router on the route, or `None` when `from == to`.
    #[inline]
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let dir = self.direction(from, to)?;
        Some(
            self.topo
                .neighbor(from, dir)
                .expect("routing directions always point at an existing link"),
        )
    }

    /// The router exactly `hops` hops along the route from `from` to `to`,
    /// or the destination itself when the route is shorter. This is the
    /// paper's *targeted router* rule — the wakeup target is the router
    /// `min(H, dist)` hops ahead (§4.1 step 1) — computed as a closed-form
    /// coordinate jump over the segment schedule, not an O(hops) walk.
    #[inline]
    pub fn router_ahead(&self, from: NodeId, to: NodeId, hops: u16) -> NodeId {
        let mut cur = from;
        let mut left = hops;
        for (dir, n) in self.routing.segments(self.topo, from, to) {
            if left <= n {
                return self.topo.advance(cur, dir, left);
            }
            cur = self.topo.advance(cur, dir, n);
            left -= n;
        }
        cur
    }

    /// Returns `true` if `mid` lies on the route from `from` to `to`
    /// (endpoints included). Used to drop *implied* punch targets
    /// (§4.1 step 4). Closed-form per segment run.
    #[inline]
    pub fn on_path(&self, from: NodeId, to: NodeId, mid: NodeId) -> bool {
        if mid == from {
            return true;
        }
        let mut cur = from;
        for (dir, n) in self.routing.segments(self.topo, from, to) {
            if let Some(k) = self.topo.steps_between(cur, mid, dir) {
                if k <= n {
                    return true;
                }
            }
            cur = self.topo.advance(cur, dir, n);
        }
        false
    }
}

impl From<Mesh> for RouteView {
    fn from(m: Mesh) -> Self {
        RouteView::new(m, RoutingKind::Xy)
    }
}

impl From<Substrate> for RouteView {
    fn from(t: Substrate) -> Self {
        RouteView::new(t, RoutingKind::Xy)
    }
}

impl<T: Into<Substrate>> From<(T, RoutingKind)> for RouteView {
    fn from((t, r): (T, RoutingKind)) -> Self {
        RouteView::new(t, r)
    }
}

/// The route from `from` to `to` under `view` as an iterator of
/// intermediate routers and the destination (the source is not yielded).
///
/// # Examples
///
/// ```
/// use punchsim_types::{routing::route_path, Mesh, NodeId};
///
/// // XY on the paper's mesh: east along the row, then south.
/// let hops: Vec<_> = route_path(Mesh::new(8, 8), NodeId(26), NodeId(36)).collect();
/// assert_eq!(hops, vec![NodeId(27), NodeId(28), NodeId(36)]);
/// ```
pub fn route_path(
    view: impl Into<RouteView>,
    from: NodeId,
    to: NodeId,
) -> impl Iterator<Item = NodeId> {
    let view = view.into();
    std::iter::successors(view.next_hop(from, to), move |&at| view.next_hop(at, to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Torus;

    fn mesh8() -> Substrate {
        Mesh::new(8, 8).into()
    }

    /// XY routing on the paper's 8x8 mesh.
    fn xy8() -> RouteView {
        mesh8().into()
    }

    #[test]
    fn x_before_y() {
        // R26 -> R29 goes straight east; R26 -> R36 goes east then south.
        let m = mesh8();
        let p: Vec<_> = route_path(m, NodeId(26), NodeId(29)).collect();
        assert_eq!(p, vec![NodeId(27), NodeId(28), NodeId(29)]);
        let p: Vec<_> = route_path(m, NodeId(26), NodeId(36)).collect();
        assert_eq!(p, vec![NodeId(27), NodeId(28), NodeId(36)]);
    }

    #[test]
    fn path_length_equals_distance() {
        let m = mesh8();
        for a in m.iter_nodes() {
            for b in m.iter_nodes() {
                assert_eq!(route_path(m, a, b).count(), m.distance(a, b) as usize);
            }
        }
    }

    #[test]
    fn router_ahead_respects_min_rule() {
        let v = xy8();
        // Paper §4.1: packet with source R0, destination R7, currently at R3:
        // the targeted router for a 3-hop punch is R6.
        assert_eq!(v.router_ahead(NodeId(3), NodeId(7), 3), NodeId(6));
        // Closer than H hops: the destination itself is the target.
        assert_eq!(v.router_ahead(NodeId(5), NodeId(7), 3), NodeId(7));
        assert_eq!(v.router_ahead(NodeId(7), NodeId(7), 3), NodeId(7));
    }

    #[test]
    fn paper_example_r26_to_r31_targets_r29() {
        // §4.1 step 1: "a packet currently at R26 with destination R31 knows
        // precisely that the targeted router is R29".
        assert_eq!(xy8().router_ahead(NodeId(26), NodeId(31), 3), NodeId(29));
    }

    #[test]
    fn on_path_examples() {
        let v = xy8();
        // R27 and R28 are along the path from R26 to R29 (§4.1 step 2).
        assert!(v.on_path(NodeId(26), NodeId(29), NodeId(27)));
        assert!(v.on_path(NodeId(26), NodeId(29), NodeId(28)));
        assert!(!v.on_path(NodeId(26), NodeId(29), NodeId(35)));
        // R29 is along the path from R27 to R21 (§4.1 step 4).
        assert!(v.on_path(NodeId(27), NodeId(21), NodeId(29)));
        // Endpoints count.
        assert!(v.on_path(NodeId(26), NodeId(29), NodeId(26)));
        assert!(v.on_path(NodeId(26), NodeId(29), NodeId(29)));
    }

    #[test]
    fn on_path_matches_enumeration() {
        let m = Substrate::from(Mesh::new(5, 5));
        let v = RouteView::from(m);
        for a in m.iter_nodes() {
            for b in m.iter_nodes() {
                let path: Vec<_> = std::iter::once(a).chain(route_path(m, a, b)).collect();
                for c in m.iter_nodes() {
                    assert_eq!(v.on_path(a, b, c), path.contains(&c), "a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn turn_legality() {
        use Direction::*;
        let xy = RoutingKind::Xy;
        // Paper §4.1 step 3: "Y+ to X+ turns are illegal".
        assert!(!xy.turn_legal(South, East));
        assert!(!xy.turn_legal(North, West));
        assert!(xy.turn_legal(East, South));
        assert!(xy.turn_legal(East, North));
        assert!(xy.turn_legal(East, East));
        assert!(!xy.turn_legal(East, West)); // U-turn
    }

    #[test]
    fn yx_transposes_xy() {
        let m = mesh8();
        let v = RouteView::new(m, RoutingKind::Yx);
        // R26 -> R36: YX goes south first (26 -> 34 -> 35 -> 36).
        let p: Vec<_> = route_path(v, NodeId(26), NodeId(36)).collect();
        assert_eq!(p, vec![NodeId(34), NodeId(35), NodeId(36)]);
        // YX forbids X->Y instead of Y->X.
        use Direction::*;
        assert!(!v.routing.turn_legal(East, South));
        assert!(v.routing.turn_legal(South, East));
    }

    /// Every routing kind, on every substrate it admits: the planned
    /// segments form a minimal, turn-legal, prefix-consistent route.
    #[test]
    fn all_kinds_plan_minimal_legal_routes() {
        let topos: Vec<Substrate> = vec![
            Mesh::new(5, 4).into(),
            Mesh::new(4, 5).into(),
            Torus::new(5, 4).into(),
        ];
        for topo in topos {
            for kind in RoutingKind::ALL {
                if kind.validate_on(topo).is_err() {
                    continue;
                }
                for a in topo.iter_nodes() {
                    for b in topo.iter_nodes() {
                        let v = RouteView::new(topo, kind);
                        // Walk the route hop by hop, checking legality.
                        let mut cur = a;
                        let mut hops = 0u16;
                        let mut prev: Option<Direction> = None;
                        while cur != b {
                            let d = v.direction(cur, b).expect("route not done");
                            if let Some(p) = prev {
                                assert!(
                                    kind.turn_legal(p, d),
                                    "{kind:?} on {topo}: illegal {p}->{d} at {cur} ({a}->{b})"
                                );
                            }
                            // on_path sees every router the walk visits.
                            assert!(v.on_path(a, b, cur), "{kind:?} {a}->{b} misses {cur}");
                            cur = v.next_hop(cur, b).unwrap();
                            prev = Some(d);
                            hops += 1;
                            assert!(hops <= topo.distance(a, b), "{kind:?} {a}->{b} detours");
                        }
                        assert_eq!(hops, topo.distance(a, b), "{kind:?} {a}->{b} not minimal");
                        assert!(v.on_path(a, b, b));
                    }
                }
            }
        }
    }

    /// The closed-form `router_ahead` equals the hop-by-hop walk it
    /// replaced, for every kind, pair and horizon.
    #[test]
    fn router_ahead_matches_hop_walk() {
        let topos: Vec<Substrate> = vec![Mesh::new(5, 4).into(), Torus::new(4, 4).into()];
        for topo in topos {
            for kind in RoutingKind::ALL {
                if kind.validate_on(topo).is_err() {
                    continue;
                }
                let v = RouteView::new(topo, kind);
                for a in topo.iter_nodes() {
                    for b in topo.iter_nodes() {
                        for h in 0..=5u16 {
                            let mut cur = a;
                            for _ in 0..h {
                                match v.next_hop(cur, b) {
                                    Some(n) => cur = n,
                                    None => break,
                                }
                            }
                            assert_eq!(
                                v.router_ahead(a, b, h),
                                cur,
                                "{kind:?} on {topo}: {a}->{b} h={h}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn torus_routes_through_wrap_links() {
        let t: Substrate = Torus::new(8, 8).into();
        let v = RouteView::new(t, RoutingKind::Xy);
        // R0 -> R7 is one westward wrap hop, not seven east.
        assert_eq!(v.direction(NodeId(0), NodeId(7)), Some(Direction::West));
        assert_eq!(v.next_hop(NodeId(0), NodeId(7)), Some(NodeId(7)));
        assert_eq!(t.distance(NodeId(0), NodeId(63)), 2);
        // Targeted-router rule across a wrap: 3 hops ahead of R0 toward
        // R61 (3 west on the row ring).
        assert_eq!(v.router_ahead(NodeId(0), NodeId(61), 3), NodeId(5));
    }

    #[test]
    fn cyclic_combinations_are_rejected() {
        let torus: Substrate = Torus::new(4, 4).into();
        let mesh: Substrate = Mesh::new(4, 4).into();
        assert!(matches!(
            RoutingKind::WestFirst.validate_on(torus),
            Err(ConfigError::CyclicRouting { .. })
        ));
        assert!(RoutingKind::WestFirst.validate_on(mesh).is_ok());
        assert!(RoutingKind::Xy.validate_on(torus).is_ok());
        assert!(RoutingKind::Yx.validate_on(torus).is_ok());
    }

    #[test]
    fn routing_tags_roundtrip() {
        for kind in RoutingKind::ALL {
            assert_eq!(RoutingKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(
            RoutingKind::from_tag("westfirst"),
            Some(RoutingKind::WestFirst)
        );
        assert_eq!(RoutingKind::from_tag("bogus"), None);
        assert_eq!(RoutingKind::default(), RoutingKind::Xy);
    }
}
