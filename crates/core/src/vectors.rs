//! Affinity vectors and the η difference metric, plus the
//! platform-derived MAC and CAC vectors.

use crate::platform::Platform;
use locmap_noc::{FaultState, LocmapError, RegionId};
use std::fmt;

/// A non-negative affinity (weight) vector, e.g. over MCs or regions.
///
/// The paper's vectors sum to at most 1 (CME-refined MAI/CAI leave out the
/// weight of accesses that never reach the relevant level), so no
/// normalization invariant is enforced beyond non-negativity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AffinityVec(pub Vec<f64>);

impl AffinityVec {
    /// The zero vector of length `m`.
    pub fn zeros(m: usize) -> Self {
        AffinityVec(vec![0.0; m])
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the weights.
    pub fn mass(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Scales so weights sum to 1 (no-op on the zero vector).
    pub fn normalized(mut self) -> Self {
        let m = self.mass();
        if m > 0.0 {
            self.0.iter_mut().for_each(|w| *w /= m);
        }
        self
    }

    /// The paper's difference (error) between two affinity vectors:
    /// `η(δ, δ') = Σ_k |δ_k − δ'_k| / m`. Lower means more similar.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eta(&self, other: &AffinityVec) -> f64 {
        self.eta_with(other, EtaMetric::L1)
    }

    /// η under an alternative metric (ablation of the design choice).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eta_with(&self, other: &AffinityVec, metric: EtaMetric) -> f64 {
        assert_eq!(self.len(), other.len(), "affinity vectors must have equal length");
        let m = self.len() as f64;
        match metric {
            EtaMetric::L1 => {
                self.0.iter().zip(&other.0).map(|(a, b)| (a - b).abs()).sum::<f64>() / m
            }
            EtaMetric::L2 => {
                (self.0.iter().zip(&other.0).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / m)
                    .sqrt()
            }
            EtaMetric::Cosine => {
                let dot: f64 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
                let na: f64 = self.0.iter().map(|a| a * a).sum::<f64>().sqrt();
                let nb: f64 = other.0.iter().map(|b| b * b).sum::<f64>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    1.0 - dot / (na * nb)
                }
            }
        }
    }
}

impl fmt::Display for AffinityVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:.3}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for AffinityVec {
    fn from(v: Vec<f64>) -> Self {
        AffinityVec(v)
    }
}

/// The vector-difference metric used inside η. The paper uses [`L1`];
/// the others exist for the DESIGN.md ablation.
///
/// [`L1`]: EtaMetric::L1
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EtaMetric {
    /// Mean absolute difference (paper §3.4).
    #[default]
    L1,
    /// Root-mean-square difference.
    L2,
    /// Cosine distance (1 − cosine similarity).
    Cosine,
}

/// How MAC weights are derived from region↔MC distances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MacPolicy {
    /// Equal weight over the set of *nearest* MCs (ties split evenly) —
    /// reproduces Figure 6a exactly on the default platform.
    #[default]
    NearestSet,
    /// Weight proportional to `1 / (distance + 1)` — the "finer-granular"
    /// alternative from the paper's §3.9 discussion.
    InverseDistance,
}

/// The per-region memory-affinity-of-cores vectors (Figure 6a).
#[derive(Debug, Clone, PartialEq)]
pub struct Mac {
    vectors: Vec<AffinityVec>,
}

impl Mac {
    /// Computes MAC for every region of `platform` under `policy`.
    pub fn compute(platform: &Platform, policy: MacPolicy) -> Self {
        let alive = vec![true; platform.mc_count()];
        Self::compute_masked(platform, policy, &alive)
            .expect("all-alive MAC computation cannot fail")
    }

    /// Computes MAC over the *surviving* memory controllers of a degraded
    /// machine: dead MCs get zero weight and the nearest-set / inverse-
    /// distance shares are taken over the alive set only, so η comparisons
    /// steer iteration sets towards regions close to controllers that can
    /// still serve them. Pass the *effective* fault state
    /// ([`FaultState::effective`]) so MCs on dead routers count as dead.
    pub fn compute_degraded(
        platform: &Platform,
        policy: MacPolicy,
        state: &FaultState,
    ) -> Result<Self, LocmapError> {
        let alive: Vec<bool> = (0..platform.mc_count()).map(|k| state.mc_alive(k)).collect();
        Self::compute_masked(platform, policy, &alive)
    }

    fn compute_masked(
        platform: &Platform,
        policy: MacPolicy,
        alive: &[bool],
    ) -> Result<Self, LocmapError> {
        let m = platform.mc_count();
        assert_eq!(alive.len(), m, "alive mask length must match MC count");
        if !alive.iter().any(|&a| a) {
            return Err(LocmapError::FaultConflict("all memory controllers dead".into()));
        }
        let vectors = platform
            .regions
            .regions()
            .map(|r| {
                let (cx, cy) = platform.regions.centroid(r);
                let dists: Vec<f64> = platform
                    .mc_coords
                    .iter()
                    .map(|mc| (cx - mc.x as f64).abs() + (cy - mc.y as f64).abs())
                    .collect();
                let mut w = vec![0.0; m];
                match policy {
                    MacPolicy::NearestSet => {
                        let dmin = dists
                            .iter()
                            .enumerate()
                            .filter(|&(k, _)| alive[k])
                            .map(|(_, &d)| d)
                            .fold(f64::INFINITY, f64::min);
                        let nearest: Vec<usize> = dists
                            .iter()
                            .enumerate()
                            .filter(|&(k, &d)| alive[k] && d <= dmin + 1e-6)
                            .map(|(k, _)| k)
                            .collect();
                        let share = 1.0 / nearest.len() as f64;
                        for k in nearest {
                            w[k] = share;
                        }
                    }
                    MacPolicy::InverseDistance => {
                        let raw: Vec<f64> = dists
                            .iter()
                            .enumerate()
                            .map(|(k, d)| if alive[k] { 1.0 / (d + 1.0) } else { 0.0 })
                            .collect();
                        let total: f64 = raw.iter().sum();
                        for (k, r) in raw.into_iter().enumerate() {
                            w[k] = r / total;
                        }
                    }
                }
                AffinityVec(w)
            })
            .collect();
        Ok(Mac { vectors })
    }

    /// The MAC vector of region `r`.
    pub fn of(&self, r: RegionId) -> &AffinityVec {
        &self.vectors[r.index()]
    }

    /// All MAC vectors, region order.
    pub fn vectors(&self) -> &[AffinityVec] {
        &self.vectors
    }
}

/// How CAC weights are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacPolicy {
    /// Weight a region's cores give their own region's banks (paper: 0.5);
    /// the remainder is split evenly across immediate neighbor regions.
    pub self_weight: f64,
}

impl Default for CacPolicy {
    fn default() -> Self {
        CacPolicy { self_weight: 0.5 }
    }
}

/// The per-region cache-affinity-of-cores vectors (Figure 6c).
#[derive(Debug, Clone, PartialEq)]
pub struct Cac {
    vectors: Vec<AffinityVec>,
}

impl Cac {
    /// Computes CAC for every region of `platform` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.self_weight` is outside `[0, 1]`.
    pub fn compute(platform: &Platform, policy: CacPolicy) -> Self {
        assert!((0.0..=1.0).contains(&policy.self_weight), "self_weight must be in [0,1]");
        let n = platform.region_count();
        let vectors = platform
            .regions
            .regions()
            .map(|r| {
                let mut w = vec![0.0; n];
                let neighbors = platform.regions.neighbors(r);
                if neighbors.is_empty() {
                    w[r.index()] = 1.0;
                } else {
                    w[r.index()] = policy.self_weight;
                    let share = (1.0 - policy.self_weight) / neighbors.len() as f64;
                    for nb in neighbors {
                        w[nb.index()] = share;
                    }
                }
                AffinityVec(w)
            })
            .collect();
        Cac { vectors }
    }

    /// The CAC vector of region `r`.
    pub fn of(&self, r: RegionId) -> &AffinityVec {
        &self.vectors[r.index()]
    }

    /// All CAC vectors, region order.
    pub fn vectors(&self) -> &[AffinityVec] {
        &self.vectors
    }

    /// Computes CAC over the *surviving* LLC banks of a degraded machine:
    /// each target region's weight is scaled by the fraction of its banks
    /// still alive (a region that lost half its banks caches half as much
    /// nearby data) and the row is renormalized. A region whose banks all
    /// died gets zero weight; if that empties a row, the row's weight
    /// moves to the nearest region (by centroid) that still has banks.
    /// Pass the *effective* fault state so banks on dead routers count as
    /// dead.
    pub fn compute_degraded(
        platform: &Platform,
        policy: CacPolicy,
        state: &FaultState,
    ) -> Result<Self, LocmapError> {
        let base = Self::compute(platform, policy);
        let regions = &platform.regions;
        let n = platform.region_count();
        let alive_frac: Vec<f64> = regions
            .regions()
            .map(|r| {
                let nodes = regions.nodes_in(r);
                let alive = nodes.iter().filter(|&&node| state.bank_alive(node)).count();
                alive as f64 / nodes.len() as f64
            })
            .collect();
        if alive_frac.iter().all(|&f| f == 0.0) {
            return Err(LocmapError::FaultConflict("all LLC banks dead".into()));
        }
        if alive_frac.iter().all(|&f| f == 1.0) {
            // No bank faults: return the base table bit-for-bit so a clean
            // degraded compiler reproduces the fault-free mapping exactly
            // (renormalizing by a mass of ~1.0 would inject FP noise).
            return Ok(base);
        }
        let vectors = regions
            .regions()
            .map(|r| {
                let mut w: Vec<f64> =
                    base.of(r).0.iter().zip(&alive_frac).map(|(x, f)| x * f).collect();
                let mass: f64 = w.iter().sum();
                if mass > 0.0 {
                    w.iter_mut().for_each(|x| *x /= mass);
                } else {
                    // Everything this region would cache into is dead: fall
                    // back to the nearest region with surviving banks.
                    let (cx, cy) = regions.centroid(r);
                    let mut best = 0usize;
                    let mut best_dist = f64::INFINITY;
                    for q in regions.regions() {
                        if alive_frac[q.index()] == 0.0 {
                            continue;
                        }
                        let (qx, qy) = regions.centroid(q);
                        let d = (cx - qx).abs() + (cy - qy).abs();
                        if d < best_dist {
                            best_dist = d;
                            best = q.index();
                        }
                    }
                    w = vec![0.0; n];
                    w[best] = 1.0;
                }
                AffinityVec(w)
            })
            .collect();
        Ok(Cac { vectors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn vec_close(a: &AffinityVec, b: &[f64]) -> bool {
        a.len() == b.len() && a.0.iter().zip(b).all(|(x, y)| close(*x, *y))
    }

    #[test]
    fn eta_matches_paper_table2_column1() {
        // MAI = (0.5, 0.25, 0.25, 0) against the Figure 6a MACs.
        //
        // Note: the paper's printed Table 2 contains arithmetic typos (the
        // R8 row lists five terms for a four-MC system, and the R2 term
        // "0.75" is inconsistent with the Figure 6a MAC of (0.5,0.5,0,0)).
        // The values below are recomputed exactly from the Figure 6a
        // vectors: R2 and R5 tie at the minimum 0.125, and the paper's
        // chosen winner R5 attains the paper's printed minimum value.
        let mai = AffinityVec(vec![0.5, 0.25, 0.25, 0.0]);
        let mac = Mac::compute(&Platform::paper_default(), MacPolicy::NearestSet);
        let expected = [0.25, 0.125, 0.375, 0.25, 0.125, 0.25, 0.5, 0.375, 0.375];
        let etas: Vec<f64> = (0..9).map(|r| mai.eta(mac.of(RegionId(r)))).collect();
        for (r, (&e, &x)) in etas.iter().zip(&expected).enumerate() {
            assert!(close(e, x), "R{} eta {} != {}", r + 1, e, x);
        }
        assert!(close(etas[4], 0.125), "R5 attains the paper's minimum");
    }

    #[test]
    fn eta_matches_paper_table2_column3() {
        // Refined MAI = (0, 0.25, 0.25, 0) (§4): the paper concludes "R5
        // and R6 are the most suitable regions", which exact recomputation
        // confirms (both at 0.125).
        let mai = AffinityVec(vec![0.0, 0.25, 0.25, 0.0]);
        let mac = Mac::compute(&Platform::paper_default(), MacPolicy::NearestSet);
        let etas: Vec<f64> = (0..9).map(|r| mai.eta(mac.of(RegionId(r)))).collect();
        assert!(close(etas[4], 0.125), "R5 eta {}", etas[4]);
        assert!(close(etas[5], 0.125), "R6 eta {}", etas[5]);
        let min = etas.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(close(min, 0.125));
        for (r, &e) in etas.iter().enumerate() {
            if r != 4 && r != 5 {
                assert!(e > 0.125 + 1e-9, "R{} unexpectedly minimal", r + 1);
            }
        }
    }

    #[test]
    fn eta_matches_paper_table2_column2() {
        // MAI = (0, 0, 0.5, 0.5): paper says R8 wins with error 0.
        let mai = AffinityVec(vec![0.0, 0.0, 0.5, 0.5]);
        let mac = Mac::compute(&Platform::paper_default(), MacPolicy::NearestSet);
        let eta8 = mai.eta(mac.of(RegionId(7)));
        assert!(close(eta8, 0.0), "R8 eta = {eta8}");
        for r in 0..9 {
            if r != 7 {
                assert!(mai.eta(mac.of(RegionId(r))) > 0.0);
            }
        }
    }

    #[test]
    fn mac_vectors_match_figure_6a() {
        let mac = Mac::compute(&Platform::paper_default(), MacPolicy::NearestSet);
        // MC order: MC1=TL, MC2=TR, MC3=BR, MC4=BL.
        assert!(vec_close(mac.of(RegionId(0)), &[1.0, 0.0, 0.0, 0.0])); // R1
        assert!(vec_close(mac.of(RegionId(1)), &[0.5, 0.5, 0.0, 0.0])); // R2
        assert!(vec_close(mac.of(RegionId(2)), &[0.0, 1.0, 0.0, 0.0])); // R3
        assert!(vec_close(mac.of(RegionId(3)), &[0.5, 0.0, 0.0, 0.5])); // R4
        assert!(vec_close(mac.of(RegionId(4)), &[0.25, 0.25, 0.25, 0.25])); // R5
        assert!(vec_close(mac.of(RegionId(5)), &[0.0, 0.5, 0.5, 0.0])); // R6
        assert!(vec_close(mac.of(RegionId(6)), &[0.0, 0.0, 0.0, 1.0])); // R7
        assert!(vec_close(mac.of(RegionId(7)), &[0.0, 0.0, 0.5, 0.5])); // R8
        assert!(vec_close(mac.of(RegionId(8)), &[0.0, 0.0, 1.0, 0.0])); // R9
    }

    #[test]
    fn cac_vectors_match_figure_6c() {
        let cac = Cac::compute(&Platform::paper_default(), CacPolicy::default());
        // R1: self 0.5, neighbors R2 and R4 get 0.25 each.
        assert!(vec_close(
            cac.of(RegionId(0)),
            &[0.5, 0.25, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0]
        ));
        // R2: self 0.5, neighbors R1, R3, R5 get 1/6 each.
        let r2 = cac.of(RegionId(1));
        assert!(close(r2.0[1], 0.5));
        assert!(close(r2.0[0], 1.0 / 6.0));
        assert!(close(r2.0[2], 1.0 / 6.0));
        assert!(close(r2.0[4], 1.0 / 6.0));
        // R5: self 0.5, four neighbors get 0.125 each.
        let r5 = cac.of(RegionId(4));
        assert!(close(r5.0[4], 0.5));
        for k in [1, 3, 5, 7] {
            assert!(close(r5.0[k], 0.125));
        }
        assert!(close(r5.0[0], 0.0));
    }

    #[test]
    fn cac_mass_is_one() {
        let cac = Cac::compute(&Platform::paper_default(), CacPolicy::default());
        for v in cac.vectors() {
            assert!(close(v.mass(), 1.0));
        }
    }

    #[test]
    fn mac_inverse_distance_is_normalized_and_ordered() {
        let mac = Mac::compute(&Platform::paper_default(), MacPolicy::InverseDistance);
        let r1 = mac.of(RegionId(0));
        assert!(close(r1.mass(), 1.0));
        // R1 is closest to MC1 (top-left).
        assert!(r1.0[0] > r1.0[1]);
        assert!(r1.0[0] > r1.0[2]);
        assert!(r1.0[0] > r1.0[3]);
    }

    #[test]
    fn eta_metrics_agree_on_identity() {
        let v = AffinityVec(vec![0.2, 0.3, 0.5]);
        for m in [EtaMetric::L1, EtaMetric::L2, EtaMetric::Cosine] {
            assert!(close(v.eta_with(&v, m), 0.0), "{m:?}");
        }
    }

    #[test]
    fn normalized_sums_to_one() {
        let v = AffinityVec(vec![1.0, 3.0]).normalized();
        assert!(vec_close(&v, &[0.25, 0.75]));
        // Zero vector stays zero.
        assert!(vec_close(&AffinityVec::zeros(3).normalized(), &[0.0, 0.0, 0.0]));
    }

    #[test]
    #[should_panic]
    fn eta_length_mismatch_panics() {
        AffinityVec(vec![1.0]).eta(&AffinityVec(vec![1.0, 0.0]));
    }

    #[test]
    fn degraded_mac_excludes_dead_mcs() {
        use locmap_noc::FaultPlan;
        let p = Platform::paper_default();
        let state = FaultPlan::new(p.mesh, p.mc_count()).dead_mc(0).state_at(0);
        let mac = Mac::compute_degraded(&p, MacPolicy::NearestSet, &state).unwrap();
        for r in 0..9 {
            assert!(close(mac.of(RegionId(r)).0[0], 0.0), "R{} weights dead MC0", r + 1);
            assert!(close(mac.of(RegionId(r)).mass(), 1.0));
        }
        // R1 (top-left) now leans on the two adjacent corners MC2/MC4.
        let r1 = mac.of(RegionId(0));
        assert!(close(r1.0[1], 0.5) && close(r1.0[3], 0.5), "{r1}");
        // A clean state reproduces the nominal MAC.
        let clean = FaultPlan::new(p.mesh, p.mc_count()).state_at(0);
        assert_eq!(
            Mac::compute_degraded(&p, MacPolicy::NearestSet, &clean).unwrap().vectors(),
            Mac::compute(&p, MacPolicy::NearestSet).vectors()
        );
    }

    #[test]
    fn degraded_mac_errors_when_no_mc_survives() {
        use locmap_noc::FaultState;
        let p = Platform::paper_default();
        let mut state = FaultState::none(p.mesh, p.mc_count());
        for node in p.mesh.nodes() {
            state.kill_router(node);
        }
        let state = state.effective(&p.mc_coords);
        assert!(Mac::compute_degraded(&p, MacPolicy::NearestSet, &state).is_err());
    }

    #[test]
    fn degraded_cac_shifts_weight_off_dead_banks() {
        use locmap_noc::FaultPlan;
        let p = Platform::paper_default();
        // Kill every bank in R1 (nodes (0,0),(1,0),(0,1),(1,1)).
        let mut plan = FaultPlan::new(p.mesh, p.mc_count());
        for (x, y) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            plan = plan.dead_bank(p.mesh.node_at(x, y));
        }
        let cac = Cac::compute_degraded(&p, CacPolicy::default(), &plan.state_at(0)).unwrap();
        for r in 0..9 {
            let v = cac.of(RegionId(r));
            assert!(close(v.0[0], 0.0), "R{} still caches into dead R1: {v}", r + 1);
            assert!(close(v.mass(), 1.0), "R{} mass {}", r + 1, v.mass());
        }
        // R1's own row folds entirely into surviving neighbors.
        let r1 = cac.of(RegionId(0));
        assert!(r1.0[1] > 0.0 && r1.0[3] > 0.0);
    }

    #[test]
    fn single_region_cac_is_self_only() {
        use locmap_noc::{Mesh, RegionGrid};
        let mesh = Mesh::try_new(4, 4).unwrap();
        let mut p = Platform::paper_default();
        p.mesh = mesh;
        p.regions = RegionGrid::try_new(mesh, 1, 1).unwrap();
        let cac = Cac::compute(&p, CacPolicy::default());
        assert!(vec_close(cac.of(RegionId(0)), &[1.0]));
    }
}
