//! Location-aware load balancing across regions (Algorithm 1, lines 15–24).
//!
//! After affinity-driven assignment some regions hold more iteration sets
//! than others. The balancer computes the target average, identifies donor
//! (surplus) and receiver (deficit) regions, orders donor/receiver pairs by
//! physical proximity, and transfers iteration sets along the shortest
//! pairs first — so a set displaced for balance still lands *near* its
//! preferred region.

use locmap_noc::{RegionGrid, RegionId};

/// Summary of a balancing pass (the paper's Table 3 reports the fraction
/// of iteration sets moved per benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BalanceReport {
    /// Iteration sets moved to another region.
    pub moved: usize,
    /// Total iteration sets.
    pub total: usize,
}

impl BalanceReport {
    /// Fraction of sets moved, in [0, 1].
    pub fn fraction_moved(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.moved as f64 / self.total as f64
        }
    }
}

/// Balances `assignment` (region of each iteration set) in place.
///
/// `cost(set, region)` estimates the affinity error of placing `set` in
/// `region`; when a donor must give up sets, it gives up those with the
/// lowest cost at the receiver (least affinity damage).
///
/// Returns how many sets moved.
pub fn balance_regions(
    assignment: &mut [RegionId],
    regions: &RegionGrid,
    cost: &dyn Fn(usize, RegionId) -> f64,
) -> BalanceReport {
    let alive = vec![true; regions.region_count()];
    balance_regions_masked(assignment, regions, cost, &alive)
}

/// Degraded-mode balancing: like [`balance_regions`], but regions whose
/// `alive` flag is false take part only as donors with a target of zero —
/// every set they hold is evacuated and no set is ever moved *into* them.
/// The per-region targets are computed over the alive regions alone.
///
/// With an all-true mask this is exactly [`balance_regions`]. With an
/// all-false mask there is nowhere to put anything; sets stay put (the
/// caller is expected to reject such fault states long before balancing).
pub fn balance_regions_masked(
    assignment: &mut [RegionId],
    regions: &RegionGrid,
    cost: &dyn Fn(usize, RegionId) -> f64,
    alive: &[bool],
) -> BalanceReport {
    let nregions = regions.region_count();
    assert_eq!(alive.len(), nregions, "alive mask length must match region count");
    let total = assignment.len();
    let alive_count = alive.iter().filter(|&&a| a).count();
    if alive_count == 0 || total == 0 {
        return BalanceReport { moved: 0, total };
    }

    let mut counts = vec![0usize; nregions];
    for r in assignment.iter() {
        counts[r.index()] += 1;
    }

    // Targets: every alive region ends at floor(avg) or ceil(avg) over the
    // alive count; dead regions end at zero. Donors shed down to `hi` (or
    // 0 when dead); receivers fill to `lo` first (round 1), then up to
    // `hi` if surplus remains (round 2).
    let lo = total / alive_count;
    let hi = lo + usize::from(!total.is_multiple_of(alive_count));
    let donor_targets: Vec<usize> = alive.iter().map(|&a| if a { hi } else { 0 }).collect();

    let mut moved = 0usize;
    for need in [lo, hi] {
        let need_targets: Vec<usize> = alive.iter().map(|&a| if a { need } else { 0 }).collect();
        moved +=
            transfer_round(assignment, regions, cost, &mut counts, &donor_targets, &need_targets);
    }
    BalanceReport { moved, total }
}

/// One pass of donor→receiver transfers: donors are regions above
/// `donor_target`, receivers below `need_target`; pairs are served in
/// ascending centroid-distance order. Returns the number of sets moved.
fn transfer_round(
    assignment: &mut [RegionId],
    regions: &RegionGrid,
    cost: &dyn Fn(usize, RegionId) -> f64,
    counts: &mut [usize],
    donor_targets: &[usize],
    need_targets: &[usize],
) -> usize {
    let mut surplus: Vec<usize> =
        counts.iter().zip(donor_targets).map(|(&c, &t)| c.saturating_sub(t)).collect();
    let mut need: Vec<usize> =
        counts.iter().zip(need_targets).map(|(&c, &t)| t.saturating_sub(c)).collect();

    // NBGH: all donor/receiver pairs ordered by centroid distance, closest
    // first, with deterministic tie-breaking on region ids.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for (a, _) in surplus.iter().enumerate().filter(|&(_, &s)| s > 0) {
        for (b, _) in need.iter().enumerate().filter(|&(b, &n)| n > 0 && b != a) {
            let d = regions.region_distance(RegionId(a as u16), RegionId(b as u16));
            pairs.push((d, a, b));
        }
    }
    // total_cmp rather than partial_cmp: a NaN distance (impossible today,
    // but cost models are pluggable) must not panic mid-balance.
    pairs.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

    let mut moved = 0usize;
    for (_, a, b) in pairs {
        if surplus[a] == 0 || need[b] == 0 {
            continue;
        }
        let k = surplus[a].min(need[b]);
        // Pick the k sets in region a that are cheapest to host in b.
        let mut candidates: Vec<(f64, usize)> = assignment
            .iter()
            .enumerate()
            .filter(|(_, r)| r.index() == a)
            .map(|(s, _)| (cost(s, RegionId(b as u16)), s))
            .collect();
        candidates.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        for &(_, s) in candidates.iter().take(k) {
            assignment[s] = RegionId(b as u16);
        }
        surplus[a] -= k;
        need[b] -= k;
        counts[a] -= k;
        counts[b] += k;
        moved += k;
    }
    moved
}

/// Per-region iteration-set counts for an assignment (reporting helper).
pub fn region_loads(assignment: &[RegionId], nregions: usize) -> Vec<usize> {
    let mut counts = vec![0usize; nregions];
    for r in assignment {
        counts[r.index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_noc::Mesh;

    fn grid() -> RegionGrid {
        RegionGrid::paper_default(Mesh::try_new(6, 6).unwrap())
    }

    fn uniform_cost(_s: usize, _r: RegionId) -> f64 {
        0.0
    }

    #[test]
    fn already_balanced_moves_nothing() {
        let g = grid();
        let mut a: Vec<RegionId> = (0..18).map(|i| RegionId(i % 9)).collect();
        let before = a.clone();
        let rep = balance_regions(&mut a, &g, &uniform_cost);
        assert_eq!(rep.moved, 0);
        assert_eq!(a, before);
    }

    #[test]
    fn all_in_one_region_spreads_out() {
        let g = grid();
        let mut a = vec![RegionId(4); 90]; // all 90 sets in R5
        let rep = balance_regions(&mut a, &g, &uniform_cost);
        let loads = region_loads(&a, 9);
        assert_eq!(loads, vec![10; 9]);
        assert_eq!(rep.moved, 80);
        assert!((rep.fraction_moved() - 80.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn counts_end_within_one_of_average() {
        let g = grid();
        // 100 sets, 9 regions: final loads must all be 11 or 12.
        let mut a = vec![RegionId(0); 100];
        balance_regions(&mut a, &g, &uniform_cost);
        let loads = region_loads(&a, 9);
        assert_eq!(loads.iter().sum::<usize>(), 100);
        assert!(loads.iter().all(|&c| c == 11 || c == 12), "{loads:?}");
    }

    #[test]
    fn nearest_receiver_served_first() {
        let g = grid();
        // 20 sets in R5 (center), nothing anywhere else, but cap the
        // receivers: with 20 sets over 9 regions targets are 2/3.
        let mut a = vec![RegionId(4); 20];
        balance_regions(&mut a, &g, &uniform_cost);
        let loads = region_loads(&a, 9);
        // R5's immediate neighbors (R2, R4, R6, R8) are distance 2 away;
        // corners are distance 4. The center keeps its max allowance and
        // neighbors fill before corners.
        assert!(loads[4] >= loads[0], "{loads:?}");
        assert!(loads[1] >= loads[0], "{loads:?}");
        assert_eq!(loads.iter().sum::<usize>(), 20);
    }

    #[test]
    fn cheapest_sets_move() {
        let g = grid();
        // Sets 0..10 in R1; cost of hosting set s anywhere else is s (so
        // low-numbered sets are the cheapest to move).
        let mut a = vec![RegionId(0); 10];
        let cost = |s: usize, _r: RegionId| s as f64;
        balance_regions(&mut a, &g, &cost);
        // 10 sets, 9 regions: targets 1/2; R1 keeps 2, donates 8. The two
        // kept sets must be the most expensive to move: 8 and 9.
        let kept: Vec<usize> =
            a.iter().enumerate().filter(|(_, r)| r.index() == 0).map(|(s, _)| s).collect();
        assert_eq!(kept, vec![8, 9]);
    }

    #[test]
    fn empty_assignment_is_fine() {
        let g = grid();
        let mut a: Vec<RegionId> = Vec::new();
        let rep = balance_regions(&mut a, &g, &uniform_cost);
        assert_eq!(rep.total, 0);
        assert_eq!(rep.fraction_moved(), 0.0);
    }

    #[test]
    fn fewer_sets_than_regions() {
        let g = grid();
        let mut a = vec![RegionId(0); 3];
        balance_regions(&mut a, &g, &uniform_cost);
        let loads = region_loads(&a, 9);
        assert!(loads.iter().all(|&c| c <= 1), "{loads:?}");
        assert_eq!(loads.iter().sum::<usize>(), 3);
    }

    #[test]
    fn deterministic() {
        let g = grid();
        let mut a1 = vec![RegionId(4); 50];
        let mut a2 = vec![RegionId(4); 50];
        balance_regions(&mut a1, &g, &uniform_cost);
        balance_regions(&mut a2, &g, &uniform_cost);
        assert_eq!(a1, a2);
    }

    #[test]
    fn masked_all_alive_matches_unmasked() {
        let g = grid();
        let mut a1 = vec![RegionId(4); 50];
        let mut a2 = a1.clone();
        balance_regions(&mut a1, &g, &uniform_cost);
        balance_regions_masked(&mut a2, &g, &uniform_cost, &[true; 9]);
        assert_eq!(a1, a2);
    }

    #[test]
    fn masked_evacuates_dead_regions() {
        let g = grid();
        // 90 sets all in R5; R5 and R1 are dead.
        let mut a = vec![RegionId(4); 90];
        let mut alive = [true; 9];
        alive[4] = false;
        alive[0] = false;
        let rep = balance_regions_masked(&mut a, &g, &uniform_cost, &alive);
        let loads = region_loads(&a, 9);
        assert_eq!(loads[4], 0, "{loads:?}");
        assert_eq!(loads[0], 0, "{loads:?}");
        // 90 sets over 7 alive regions: 12 or 13 each.
        assert!(
            loads.iter().enumerate().filter(|(r, _)| alive[*r]).all(|(_, &c)| c == 12 || c == 13),
            "{loads:?}"
        );
        assert_eq!(rep.moved, 90);
    }

    #[test]
    fn masked_never_fills_a_dead_region() {
        let g = grid();
        // Start balanced over all 9; kill R9 — its sets must leave and
        // nothing may flow back in.
        let mut a: Vec<RegionId> = (0..90).map(|i| RegionId(i % 9)).collect();
        let mut alive = [true; 9];
        alive[8] = false;
        balance_regions_masked(&mut a, &g, &uniform_cost, &alive);
        let loads = region_loads(&a, 9);
        assert_eq!(loads[8], 0, "{loads:?}");
        assert_eq!(loads.iter().sum::<usize>(), 90);
    }

    #[test]
    fn masked_all_dead_is_a_no_op() {
        let g = grid();
        let mut a = vec![RegionId(4); 10];
        let before = a.clone();
        let rep = balance_regions_masked(&mut a, &g, &uniform_cost, &[false; 9]);
        assert_eq!(rep.moved, 0);
        assert_eq!(a, before);
    }
}
