//! Fine-grained placement: iteration set → concrete core within its region.
//!
//! Once a set has a region, §3.9 of the paper assigns it to a core in that
//! region *randomly*, constrained to keep per-core loads balanced; it also
//! reports that letting the OS pick (we model it as least-loaded-first) is
//! ~2 % better, and round-robin is the obvious third option.

use locmap_noc::{LocmapError, NodeId, RegionGrid, RegionId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Within-region core selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Random core among the region's least-loaded cores (paper default).
    Random {
        /// RNG seed (placement is deterministic given the seed).
        seed: u64,
    },
    /// Cycle through the region's cores in node order.
    RoundRobin,
    /// Always the least-loaded core, ties to the lowest node id — a proxy
    /// for the paper's "let the OS schedule within the region" option.
    LeastLoaded,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy::Random { seed: 0x5eed }
    }
}

/// Maps each iteration set (with its assigned region) to a core.
///
/// All policies maintain the paper's constraint that per-core loads within
/// a region stay balanced (max − min ≤ 1).
///
/// # Panics
///
/// Panics if a region has no cores (cannot happen for a valid
/// [`RegionGrid`]).
pub fn place_in_regions(
    assignment: &[RegionId],
    regions: &RegionGrid,
    policy: PlacementPolicy,
) -> Vec<NodeId> {
    place_on_cores(assignment, regions, policy, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Degraded-mode placement: like [`place_in_regions`], but only cores whose
/// `alive` flag (indexed by [`NodeId::index`]) is true may receive work.
///
/// Returns [`LocmapError::EmptyRegion`] if any set is assigned to a region
/// with no surviving core — callers are expected to have evacuated such
/// regions during balancing.
pub fn place_in_regions_masked(
    assignment: &[RegionId],
    regions: &RegionGrid,
    policy: PlacementPolicy,
    alive: &[bool],
) -> Result<Vec<NodeId>, LocmapError> {
    place_on_cores(assignment, regions, policy, Some(alive))
}

fn place_on_cores(
    assignment: &[RegionId],
    regions: &RegionGrid,
    policy: PlacementPolicy,
    alive: Option<&[bool]>,
) -> Result<Vec<NodeId>, LocmapError> {
    let nregions = regions.region_count();
    let cores: Vec<Vec<NodeId>> = regions
        .regions()
        .map(|r| {
            let mut nodes = regions.nodes_in(r);
            if let Some(alive) = alive {
                nodes.retain(|n| alive[n.index()]);
            }
            nodes
        })
        .collect();
    let mut loads: Vec<Vec<usize>> = cores.iter().map(|c| vec![0usize; c.len()]).collect();
    let mut rr_next = vec![0usize; nregions];
    let mut rng = match policy {
        PlacementPolicy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
        _ => None,
    };

    assignment
        .iter()
        .map(|&r| {
            let ri = r.index();
            let region_cores = &cores[ri];
            if region_cores.is_empty() {
                return Err(LocmapError::EmptyRegion(ri));
            }
            let l = &mut loads[ri];
            let idx = match policy {
                PlacementPolicy::Random { .. } => {
                    // Among least-loaded cores, pick one at random: random
                    // placement under the load-balance constraint.
                    let min = *l.iter().min().expect("non-empty region");
                    let candidates: Vec<usize> =
                        (0..l.len()).filter(|&i| l[i] == min).collect();
                    let rng = rng.as_mut().expect("random policy has rng");
                    candidates[rng.gen_range(0..candidates.len())]
                }
                PlacementPolicy::RoundRobin => {
                    let i = rr_next[ri] % region_cores.len();
                    rr_next[ri] += 1;
                    i
                }
                PlacementPolicy::LeastLoaded => {
                    let min = *l.iter().min().expect("non-empty region");
                    (0..l.len()).find(|&i| l[i] == min).expect("some core has min load")
                }
            };
            l[idx] += 1;
            Ok(region_cores[idx])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_noc::Mesh;

    fn grid() -> RegionGrid {
        RegionGrid::paper_default(Mesh::try_new(6, 6).unwrap())
    }

    fn loads_of(placement: &[NodeId], regions: &RegionGrid, r: RegionId) -> Vec<usize> {
        regions
            .nodes_in(r)
            .iter()
            .map(|&n| placement.iter().filter(|&&p| p == n).count())
            .collect()
    }

    #[test]
    fn placed_cores_belong_to_assigned_regions() {
        let g = grid();
        let assignment: Vec<RegionId> = (0..45).map(|i| RegionId(i % 9)).collect();
        for policy in [
            PlacementPolicy::Random { seed: 1 },
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
        ] {
            let placement = place_in_regions(&assignment, &g, policy);
            for (s, &core) in placement.iter().enumerate() {
                assert_eq!(g.region_of(core), assignment[s], "{policy:?}");
            }
        }
    }

    #[test]
    fn loads_within_region_stay_balanced() {
        let g = grid();
        // 41 sets all in R5 (4 cores): loads must be 10/10/10/11 in some
        // order under every policy.
        let assignment = vec![RegionId(4); 41];
        for policy in [
            PlacementPolicy::Random { seed: 7 },
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
        ] {
            let placement = place_in_regions(&assignment, &g, policy);
            let mut loads = loads_of(&placement, &g, RegionId(4));
            loads.sort_unstable();
            assert_eq!(loads, vec![10, 10, 10, 11], "{policy:?}");
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = grid();
        let assignment = vec![RegionId(2); 20];
        let p1 = place_in_regions(&assignment, &g, PlacementPolicy::Random { seed: 42 });
        let p2 = place_in_regions(&assignment, &g, PlacementPolicy::Random { seed: 42 });
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = grid();
        let assignment = vec![RegionId(2); 20];
        let p1 = place_in_regions(&assignment, &g, PlacementPolicy::Random { seed: 1 });
        let p2 = place_in_regions(&assignment, &g, PlacementPolicy::Random { seed: 2 });
        assert_ne!(p1, p2, "20 random placements should differ across seeds");
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let g = grid();
        let assignment = vec![RegionId(0); 8];
        let placement = place_in_regions(&assignment, &g, PlacementPolicy::RoundRobin);
        let cores = g.nodes_in(RegionId(0));
        assert_eq!(&placement[..4], &cores[..]);
        assert_eq!(&placement[4..], &cores[..]);
    }

    #[test]
    fn masked_placement_avoids_dead_cores() {
        let g = grid();
        let mut alive = vec![true; 36];
        // Kill the first two cores of R1 (top-left region).
        let r1 = g.nodes_in(RegionId(0));
        alive[r1[0].index()] = false;
        alive[r1[1].index()] = false;
        let assignment = vec![RegionId(0); 12];
        for policy in [
            PlacementPolicy::Random { seed: 3 },
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
        ] {
            let placement = place_in_regions_masked(&assignment, &g, policy, &alive).unwrap();
            for &core in &placement {
                assert!(alive[core.index()], "{policy:?} placed work on dead core {core:?}");
                assert_eq!(g.region_of(core), RegionId(0));
            }
            // The two survivors split the 12 sets evenly.
            let mut loads = loads_of(&placement, &g, RegionId(0));
            loads.sort_unstable();
            assert_eq!(loads, vec![0, 0, 6, 6], "{policy:?}");
        }
    }

    #[test]
    fn masked_placement_rejects_fully_dead_region() {
        let g = grid();
        let mut alive = vec![true; 36];
        for n in g.nodes_in(RegionId(0)) {
            alive[n.index()] = false;
        }
        let assignment = vec![RegionId(0); 4];
        let err = place_in_regions_masked(&assignment, &g, PlacementPolicy::default(), &alive)
            .unwrap_err();
        assert!(err.to_string().contains("R1"), "{err}");
    }

    #[test]
    fn masked_all_alive_matches_unmasked() {
        let g = grid();
        let assignment: Vec<RegionId> = (0..45).map(|i| RegionId(i % 9)).collect();
        let policy = PlacementPolicy::Random { seed: 9 };
        let p1 = place_in_regions(&assignment, &g, policy);
        let p2 = place_in_regions_masked(&assignment, &g, policy, &[true; 36]).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn single_core_regions_trivial() {
        let g = RegionGrid::try_new(Mesh::try_new(6, 6).unwrap(), 6, 6).unwrap();
        let assignment: Vec<RegionId> = (0..36).map(RegionId).collect();
        let placement = place_in_regions(&assignment, &g, PlacementPolicy::default());
        for (s, &core) in placement.iter().enumerate() {
            assert_eq!(core.index(), g.nodes_in(assignment[s])[0].index());
        }
    }
}
