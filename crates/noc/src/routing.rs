//! Deterministic X-Y dimension-ordered routing.
//!
//! X-Y routing first corrects the horizontal (X) offset, then the vertical
//! (Y) offset. It is deadlock-free on a mesh and is the norm in commercial
//! parts (Tilera, Xeon Phi), as the paper notes.

use crate::error::RouteError;
use crate::faults::{link_exists, FaultState};
use crate::topology::{Coord, Mesh, NodeId};
use std::collections::VecDeque;

/// One of the four mesh link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards larger x.
    East,
    /// Towards smaller x.
    West,
    /// Towards smaller y.
    North,
    /// Towards larger y.
    South,
}

/// A directed link leaving node `from` in direction `dir`.
///
/// Links are the unit of contention in the network model: each direction of
/// each physical channel arbitrates independently (full-duplex links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Source node of the directed link.
    pub from: NodeId,
    /// Direction of travel.
    pub dir: Direction,
}

impl Link {
    /// Dense index of this link, for per-link state arrays:
    /// `node_index * 4 + direction`.
    pub fn index(self) -> usize {
        let d = match self.dir {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
        };
        self.from.index() * 4 + d
    }

    /// Total number of directed-link slots on `mesh` (including boundary
    /// slots that no route ever uses; keeping the array dense is simpler
    /// and cheap).
    pub fn slot_count(mesh: Mesh) -> usize {
        mesh.node_count() * 4
    }
}

/// The ordered list of directed links a message takes from `src` to `dst`
/// under X-Y routing on a **torus**: each dimension is corrected in the
/// shorter wrap direction, using the edge-wrap links. Ties (exactly half
/// way) go the positive direction for determinism.
pub fn route_xy_torus(mesh: Mesh, src: NodeId, dst: NodeId) -> Vec<Link> {
    let w = mesh.width() as i32;
    let h = mesh.height() as i32;
    let s = mesh.coord_of(src);
    let d = mesh.coord_of(dst);
    let mut links = Vec::new();
    let mut cur = s;

    // Horizontal: pick the shorter wrap direction.
    let dx = d.x as i32 - cur.x as i32;
    let steps_east = dx.rem_euclid(w);
    let east = steps_east <= w - steps_east;
    let hsteps = if east { steps_east } else { w - steps_east };
    for _ in 0..hsteps {
        let dir = if east { Direction::East } else { Direction::West };
        links.push(Link { from: mesh.node_at(cur.x, cur.y), dir });
        cur.x = if east { (cur.x + 1) % mesh.width() } else { (cur.x + mesh.width() - 1) % mesh.width() };
    }
    // Vertical.
    let dy = d.y as i32 - cur.y as i32;
    let steps_south = dy.rem_euclid(h);
    let south = steps_south <= h - steps_south;
    let vsteps = if south { steps_south } else { h - steps_south };
    for _ in 0..vsteps {
        let dir = if south { Direction::South } else { Direction::North };
        links.push(Link { from: mesh.node_at(cur.x, cur.y), dir });
        cur.y = if south { (cur.y + 1) % mesh.height() } else { (cur.y + mesh.height() - 1) % mesh.height() };
    }
    links
}

/// The ordered list of directed links a message takes from `src` to `dst`
/// under X-Y routing. Empty when `src == dst`.
pub fn route_xy(mesh: Mesh, src: NodeId, dst: NodeId) -> Vec<Link> {
    let s = mesh.coord_of(src);
    let d = mesh.coord_of(dst);
    let mut links = Vec::with_capacity(s.manhattan(d) as usize);
    let mut cur = s;
    while cur.x != d.x {
        let dir = if d.x > cur.x { Direction::East } else { Direction::West };
        links.push(Link { from: mesh.node_at(cur.x, cur.y), dir });
        cur.x = if d.x > cur.x { cur.x + 1 } else { cur.x - 1 };
    }
    while cur.y != d.y {
        let dir = if d.y > cur.y { Direction::South } else { Direction::North };
        links.push(Link { from: mesh.node_at(cur.x, cur.y), dir });
        cur.y = if d.y > cur.y { cur.y + 1 } else { cur.y - 1 };
    }
    links
}

/// Fault-aware routing on a **mesh**: takes the plain X-Y route when every
/// link and intermediate router on it is alive, otherwise falls back to a
/// deterministic breadth-first detour over the surviving subgraph
/// (neighbors explored in fixed E, W, N, S order, so the same fault state
/// always yields the same detour). Returns
/// [`RouteError::Unreachable`] when no surviving path exists — never a
/// route to the wrong node.
pub fn route_faulty(
    mesh: Mesh,
    src: NodeId,
    dst: NodeId,
    faults: &FaultState,
) -> Result<Vec<Link>, RouteError> {
    route_faulty_inner(mesh, src, dst, faults, false)
}

/// Fault-aware routing on a **torus**: like [`route_faulty`] but the fast
/// path is wrap-aware X-Y and the detour search may use wrap links.
pub fn route_faulty_torus(
    mesh: Mesh,
    src: NodeId,
    dst: NodeId,
    faults: &FaultState,
) -> Result<Vec<Link>, RouteError> {
    route_faulty_inner(mesh, src, dst, faults, true)
}

fn route_faulty_inner(
    mesh: Mesh,
    src: NodeId,
    dst: NodeId,
    faults: &FaultState,
    torus: bool,
) -> Result<Vec<Link>, RouteError> {
    let unreachable = RouteError::Unreachable { from: src, to: dst };
    if !faults.router_alive(src) || !faults.router_alive(dst) {
        return Err(unreachable);
    }
    if src == dst {
        return Ok(Vec::new());
    }

    // Fast path: the dimension-ordered route, when fully intact. Every
    // link must be alive, as must every intermediate router (each link's
    // source after the first; src and dst are already checked).
    let xy = if torus { route_xy_torus(mesh, src, dst) } else { route_xy(mesh, src, dst) };
    let intact = xy
        .iter()
        .enumerate()
        .all(|(i, l)| faults.link_alive(*l) && (i == 0 || faults.router_alive(l.from)));
    if intact {
        return Ok(xy);
    }

    // Detour: BFS over the alive subgraph. Fixed direction order keeps the
    // result deterministic; BFS keeps it minimal-hop on the survivors.
    let n = mesh.node_count();
    let mut prev: Vec<Option<Link>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[src.index()] = true;
    let mut queue = VecDeque::from([src]);
    'search: while let Some(u) = queue.pop_front() {
        for dir in [Direction::East, Direction::West, Direction::North, Direction::South] {
            let link = Link { from: u, dir };
            if !torus && !link_exists(mesh, link) {
                continue;
            }
            let tc = link_target_torus(mesh, link);
            let v = mesh.node_at(tc.x, tc.y);
            if seen[v.index()] || !faults.link_alive(link) || !faults.router_alive(v) {
                continue;
            }
            seen[v.index()] = true;
            prev[v.index()] = Some(link);
            if v == dst {
                break 'search;
            }
            queue.push_back(v);
        }
    }
    if !seen[dst.index()] {
        return Err(unreachable);
    }
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let link = prev[cur.index()].expect("BFS predecessor chain reaches src");
        cur = link.from;
        links.push(link);
    }
    links.reverse();
    Ok(links)
}

/// The coordinate reached after traversing `link` (mesh semantics: no
/// wrap; see [`link_target_torus`] for wraparound links).
pub fn link_target(mesh: Mesh, link: Link) -> Coord {
    let c = mesh.coord_of(link.from);
    match link.dir {
        Direction::East => Coord::new(c.x + 1, c.y),
        Direction::West => Coord::new(c.x - 1, c.y),
        Direction::North => Coord::new(c.x, c.y - 1),
        Direction::South => Coord::new(c.x, c.y + 1),
    }
}

/// The coordinate reached after traversing `link` with torus wraparound.
pub fn link_target_torus(mesh: Mesh, link: Link) -> Coord {
    let c = mesh.coord_of(link.from);
    let (w, h) = (mesh.width(), mesh.height());
    match link.dir {
        Direction::East => Coord::new((c.x + 1) % w, c.y),
        Direction::West => Coord::new((c.x + w - 1) % w, c.y),
        Direction::North => Coord::new(c.x, (c.y + h - 1) % h),
        Direction::South => Coord::new(c.x, (c.y + 1) % h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_length_equals_manhattan_distance() {
        let m = Mesh::try_new(6, 6).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                assert_eq!(route_xy(m, a, b).len() as u32, m.distance(a, b));
            }
        }
    }

    #[test]
    fn route_is_x_then_y() {
        let m = Mesh::try_new(6, 6).unwrap();
        let route = route_xy(m, m.node_at(0, 0), m.node_at(3, 2));
        let dirs: Vec<_> = route.iter().map(|l| l.dir).collect();
        assert_eq!(
            dirs,
            vec![
                Direction::East,
                Direction::East,
                Direction::East,
                Direction::South,
                Direction::South
            ]
        );
    }

    #[test]
    fn route_is_contiguous_and_reaches_destination() {
        let m = Mesh::try_new(5, 7).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                let route = route_xy(m, a, b);
                let mut cur = m.coord_of(a);
                for link in &route {
                    assert_eq!(m.coord_of(link.from), cur, "route not contiguous");
                    cur = link_target(m, *link);
                }
                assert_eq!(cur, m.coord_of(b), "route did not reach dst");
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let m = Mesh::try_new(4, 4).unwrap();
        assert!(route_xy(m, m.node_at(2, 2), m.node_at(2, 2)).is_empty());
    }

    #[test]
    fn torus_route_length_equals_torus_distance() {
        let m = Mesh::try_new(6, 6).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                assert_eq!(
                    route_xy_torus(m, a, b).len() as u32,
                    m.torus_distance(a, b),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn torus_route_is_contiguous_and_reaches_destination() {
        let m = Mesh::try_new(5, 7).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                let route = route_xy_torus(m, a, b);
                let mut cur = m.coord_of(a);
                for link in &route {
                    assert_eq!(m.coord_of(link.from), cur, "route not contiguous");
                    cur = link_target_torus(m, *link);
                }
                assert_eq!(cur, m.coord_of(b), "route did not reach dst");
            }
        }
    }

    #[test]
    fn torus_uses_wrap_for_far_pairs() {
        let m = Mesh::try_new(6, 6).unwrap();
        // (0,0) -> (5,0): one West wrap hop instead of five East hops.
        let route = route_xy_torus(m, m.node_at(0, 0), m.node_at(5, 0));
        assert_eq!(route.len(), 1);
        assert_eq!(route[0].dir, Direction::West);
    }

    #[test]
    fn faulty_route_matches_xy_when_clean() {
        let m = Mesh::try_new(6, 6).unwrap();
        let clean = crate::faults::FaultState::none(m, 4);
        for a in m.nodes() {
            for b in m.nodes() {
                assert_eq!(route_faulty(m, a, b, &clean).unwrap(), route_xy(m, a, b));
            }
        }
    }

    #[test]
    fn faulty_route_detours_around_dead_link() {
        use crate::faults::FaultPlan;
        let m = Mesh::try_new(6, 6).unwrap();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        let cut = Link { from: m.node_at(1, 0), dir: Direction::East };
        let state = FaultPlan::new(m, 4).dead_link(cut).state_at(0);
        let route = route_faulty(m, src, dst, &state).unwrap();
        // Detour exists, avoids the cut channel, and still arrives.
        assert!(route.iter().all(|l| state.link_alive(*l)));
        let mut cur = m.coord_of(src);
        for l in &route {
            assert_eq!(m.coord_of(l.from), cur, "route not contiguous");
            cur = link_target(m, *l);
        }
        assert_eq!(cur, m.coord_of(dst));
        assert_eq!(route.len(), 5, "minimal detour is 2 extra hops");
        // Determinism: same state, same route.
        assert_eq!(route, route_faulty(m, src, dst, &state).unwrap());
    }

    #[test]
    fn faulty_route_avoids_dead_router() {
        use crate::faults::FaultPlan;
        let m = Mesh::try_new(6, 6).unwrap();
        let dead = m.node_at(2, 0);
        let state = FaultPlan::new(m, 4).dead_router(dead).state_at(0);
        let route = route_faulty(m, m.node_at(0, 0), m.node_at(5, 0), &state).unwrap();
        for l in &route {
            assert_ne!(l.from, dead, "route passes through dead router");
            let t = link_target(m, *l);
            assert_ne!(m.node_at(t.x, t.y), dead, "route enters dead router");
        }
        // Endpoints on dead routers are unreachable by definition.
        assert!(route_faulty(m, dead, m.node_at(5, 5), &state).is_err());
        assert!(route_faulty(m, m.node_at(5, 5), dead, &state).is_err());
    }

    #[test]
    fn disconnection_reports_unreachable() {
        use crate::faults::FaultPlan;
        let m = Mesh::try_new(2, 2).unwrap();
        // Cut both channels out of (0,0).
        let state = FaultPlan::new(m, 1)
            .dead_link(Link { from: m.node_at(0, 0), dir: Direction::East })
            .dead_link(Link { from: m.node_at(0, 0), dir: Direction::South })
            .state_at(0);
        let err = route_faulty(m, m.node_at(0, 0), m.node_at(1, 1), &state).unwrap_err();
        assert_eq!(
            err,
            crate::error::RouteError::Unreachable { from: m.node_at(0, 0), to: m.node_at(1, 1) }
        );
    }

    #[test]
    fn torus_faulty_route_uses_wrap_detour() {
        use crate::faults::FaultPlan;
        let m = Mesh::try_new(6, 6).unwrap();
        let src = m.node_at(0, 0);
        let dst = m.node_at(1, 0);
        let cut = Link { from: src, dir: Direction::East };
        let state = FaultPlan::new(m, 4).dead_link(cut).state_at(0);
        let mesh_route = route_faulty(m, src, dst, &state).unwrap();
        let torus_route = route_faulty_torus(m, src, dst, &state).unwrap();
        // The torus detour may wrap; both must avoid the cut and arrive.
        for (route, wrap) in [(&mesh_route, false), (&torus_route, true)] {
            assert!(route.iter().all(|l| state.link_alive(*l)));
            let mut cur = m.coord_of(src);
            for l in route.iter() {
                cur = if wrap { link_target_torus(m, *l) } else { link_target(m, *l) };
            }
            assert_eq!(cur, m.coord_of(dst));
        }
        assert_eq!(mesh_route.len(), 3);
    }

    #[test]
    fn link_indices_are_unique_and_in_range() {
        let m = Mesh::try_new(6, 6).unwrap();
        let mut seen = std::collections::HashSet::new();
        for n in m.nodes() {
            for dir in [Direction::East, Direction::West, Direction::North, Direction::South] {
                let l = Link { from: n, dir };
                assert!(l.index() < Link::slot_count(m));
                assert!(seen.insert(l.index()));
            }
        }
    }
}
