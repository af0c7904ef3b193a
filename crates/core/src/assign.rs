//! Iteration-set → region assignment (the core of Algorithms 1 and 2).

use crate::vectors::{AffinityVec, Cac, EtaMetric, Mac};
use locmap_noc::RegionId;

/// How the α weight (cache affinity vs. memory affinity) is chosen for
/// the shared-LLC objective `η = α·ηc + (1−α)·ηm`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum AlphaPolicy {
    /// Per-set α from the hit model: the estimated LLC-hit fraction of the
    /// set's network-visible accesses (the paper's scheme, §4).
    #[default]
    FromHits,
    /// A fixed α for every set (ablation: 0 = memory-only, 1 = cache-only,
    /// 0.5 = the unweighted Algorithm 2 pseudocode).
    Fixed(f64),
}

/// Assigns each iteration set to the region whose MAC is most similar to
/// the set's MAI (Algorithm 1, lines 8–14; private LLCs).
///
/// Ties break to the lowest region id, making assignment deterministic.
///
/// # Panics
///
/// Panics if `mac` is empty.
pub fn assign_private(mai: &[AffinityVec], mac: &Mac, metric: EtaMetric) -> Vec<RegionId> {
    assert!(!mac.vectors().is_empty(), "no regions to assign to");
    mai.iter()
        .map(|v| {
            let mut best = RegionId(0);
            let mut best_eta = f64::INFINITY;
            for (a, macv) in mac.vectors().iter().enumerate() {
                let e = v.eta_with(macv, metric);
                if e < best_eta {
                    best_eta = e;
                    best = RegionId(a as u16);
                }
            }
            best
        })
        .collect()
}

/// Assigns each iteration set to the region minimizing
/// `α·η(CAI, CAC) + (1−α)·η(MAI, MAC)` (Algorithm 2; shared LLCs).
///
/// `alphas[k]` is the α weight for set `k`.
///
/// # Panics
///
/// Panics if the slices disagree on the number of sets or `mac`/`cac`
/// disagree on the number of regions.
pub fn assign_shared(
    mai: &[AffinityVec],
    cai: &[AffinityVec],
    mac: &Mac,
    cac: &Cac,
    alphas: &[f64],
    metric: EtaMetric,
) -> Vec<RegionId> {
    assert_eq!(mai.len(), cai.len(), "MAI/CAI set counts differ");
    assert_eq!(mai.len(), alphas.len(), "alpha count differs");
    assert_eq!(mac.vectors().len(), cac.vectors().len(), "region counts differ");
    mai.iter()
        .zip(cai)
        .zip(alphas)
        .map(|((mv, cv), &alpha)| {
            let mut best = RegionId(0);
            let mut best_eta = f64::INFINITY;
            for a in 0..mac.vectors().len() {
                let r = RegionId(a as u16);
                let eta_m = mv.eta_with(mac.of(r), metric);
                let eta_c = cv.eta_with(cac.of(r), metric);
                let e = alpha * eta_c + (1.0 - alpha) * eta_m;
                if e < best_eta {
                    best_eta = e;
                    best = r;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::vectors::{CacPolicy, MacPolicy};

    fn mac_cac() -> (Mac, Cac) {
        let p = Platform::paper_default();
        (Mac::compute(&p, MacPolicy::NearestSet), Cac::compute(&p, CacPolicy::default()))
    }

    #[test]
    fn paper_examples_pick_minimum_regions() {
        let (mac, _) = mac_cac();
        let mai = vec![
            // Table 2 col 1: exact recomputation ties R2 and R5 at 0.125
            // (the paper's printed table has typos; see vectors.rs tests).
            // Deterministic tie-break picks the lower id, R2.
            AffinityVec(vec![0.5, 0.25, 0.25, 0.0]),
            // Table 2 col 2 → R8 uniquely (error 0), as the paper states.
            AffinityVec(vec![0.0, 0.0, 0.5, 0.5]),
        ];
        let a = assign_private(&mai, &mac, EtaMetric::L1);
        assert_eq!(a[1], RegionId(7));
        let eta_r2 = mai[0].eta(mac.of(RegionId(1)));
        let eta_r5 = mai[0].eta(mac.of(RegionId(4)));
        assert!((eta_r2 - eta_r5).abs() < 1e-12, "R2 and R5 tie");
        assert_eq!(a[0], RegionId(1));
    }

    #[test]
    fn pure_single_mc_affinity_picks_corner_region() {
        let (mac, _) = mac_cac();
        // All traffic to MC1 (top-left): R1 is the perfect region.
        let mai = vec![AffinityVec(vec![1.0, 0.0, 0.0, 0.0])];
        assert_eq!(assign_private(&mai, &mac, EtaMetric::L1), vec![RegionId(0)]);
        // MC3 (bottom-right) → R9.
        let mai = vec![AffinityVec(vec![0.0, 0.0, 1.0, 0.0])];
        assert_eq!(assign_private(&mai, &mac, EtaMetric::L1), vec![RegionId(8)]);
    }

    #[test]
    fn shared_alpha_one_follows_cache_affinity() {
        let (mac, cac) = mac_cac();
        // All hits home in region R3's banks; memory affinity points the
        // other way (MC4, bottom-left). With α = 1 cache wins.
        let mai = vec![AffinityVec(vec![0.0, 0.0, 0.0, 1.0])];
        let mut cai_w = vec![0.0; 9];
        cai_w[2] = 1.0;
        let cai = vec![AffinityVec(cai_w)];
        let a = assign_shared(&mai, &cai, &mac, &cac, &[1.0], EtaMetric::L1);
        assert_eq!(a, vec![RegionId(2)]);
    }

    #[test]
    fn shared_alpha_zero_follows_memory_affinity() {
        let (mac, cac) = mac_cac();
        let mai = vec![AffinityVec(vec![0.0, 0.0, 0.0, 1.0])]; // MC4 → R7
        let mut cai_w = vec![0.0; 9];
        cai_w[2] = 1.0;
        let cai = vec![AffinityVec(cai_w)];
        let a = assign_shared(&mai, &cai, &mac, &cac, &[0.0], EtaMetric::L1);
        assert_eq!(a, vec![RegionId(6)]);
    }

    #[test]
    fn ties_break_deterministically() {
        let (mac, _) = mac_cac();
        // Uniform MAI is closest to R5 but several regions may tie under
        // some metrics; the function must be deterministic across calls.
        let mai = vec![AffinityVec(vec![0.25, 0.25, 0.25, 0.25]); 3];
        let a1 = assign_private(&mai, &mac, EtaMetric::L1);
        let a2 = assign_private(&mai, &mac, EtaMetric::L1);
        assert_eq!(a1, a2);
        assert_eq!(a1[0], RegionId(4), "uniform MAI matches R5 exactly");
    }

    #[test]
    fn alternative_metrics_still_pick_perfect_match() {
        let (mac, _) = mac_cac();
        let mai = vec![AffinityVec(vec![1.0, 0.0, 0.0, 0.0])];
        for m in [EtaMetric::L1, EtaMetric::L2, EtaMetric::Cosine] {
            assert_eq!(assign_private(&mai, &mac, m), vec![RegionId(0)], "{m:?}");
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_alpha_count_panics() {
        let (mac, cac) = mac_cac();
        let mai = vec![AffinityVec::zeros(4)];
        let cai = vec![AffinityVec::zeros(9)];
        assign_shared(&mai, &cai, &mac, &cac, &[], EtaMetric::L1);
    }
}
