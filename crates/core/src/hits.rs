//! Hit/miss knowledge sources for affinity computation.
//!
//! MAI and CAI need, per (iteration set, reference), the probability that
//! an access (a) stays in the private L1 (invisible to the network),
//! (b) hits the LLC (contributes to CAI), or (c) misses to memory
//! (contributes to MAI). Three sources provide this knowledge:
//!
//! * [`CmeModel`] — compile-time estimation (regular applications);
//! * [`MeasuredRates`] — runtime measurement from the inspector phase
//!   (irregular applications) or from an oracle run (Figure 15);
//! * [`AllMissModel`] — no estimation at all: every reference is assumed to
//!   reach memory, the unrefined MAI of §3.2 / Table 1 column 2.

use locmap_cme::CmeEstimate;

/// A source of per-(set, reference) hit probabilities.
pub trait HitModel {
    /// Probability the access is served by the private L1 (never enters
    /// the network).
    fn l1_hit(&self, set: usize, r: usize) -> f64;

    /// Probability the access hits in the LLC, *given* it reached the LLC.
    fn llc_hit(&self, set: usize, r: usize) -> f64;

    /// The α weight for `set`: the LLC-hit fraction of its network-visible
    /// accesses over `nrefs` references (§4: "since we now know that two of
    /// the accesses are hits and the remaining two are misses, we set α to
    /// 0.5").
    fn alpha(&self, set: usize, nrefs: usize) -> f64 {
        if nrefs == 0 {
            return 0.5;
        }
        let mut weight = 0.0;
        let mut hits = 0.0;
        for r in 0..nrefs {
            let reach = 1.0 - self.l1_hit(set, r);
            weight += reach;
            hits += reach * self.llc_hit(set, r);
        }
        if weight == 0.0 {
            0.5
        } else {
            hits / weight
        }
    }
}

/// Assume every access misses everywhere: the unrefined §3.2 MAI, used
/// when CME is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllMissModel;

impl HitModel for AllMissModel {
    fn l1_hit(&self, _set: usize, _r: usize) -> f64 {
        0.0
    }

    fn llc_hit(&self, _set: usize, _r: usize) -> f64 {
        0.0
    }
}

/// Compile-time CME estimates (regular applications).
#[derive(Debug, Clone)]
pub struct CmeModel {
    estimate: CmeEstimate,
}

impl CmeModel {
    /// Wraps a CME estimate.
    pub fn new(estimate: CmeEstimate) -> Self {
        CmeModel { estimate }
    }

    /// The wrapped estimate.
    pub fn estimate(&self) -> &CmeEstimate {
        &self.estimate
    }
}

impl HitModel for CmeModel {
    fn l1_hit(&self, set: usize, r: usize) -> f64 {
        self.estimate.l1_hit_probability(set, r)
    }

    fn llc_hit(&self, set: usize, r: usize) -> f64 {
        self.estimate.hit_probability(set, r)
    }
}

/// Measured per-(set, reference) rates, produced by the inspector phase at
/// runtime (or by an oracle simulation for the optimality study).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasuredRates {
    /// `l1[set][r]` = measured L1 hit rate.
    pub l1: Vec<Vec<f64>>,
    /// `llc[set][r]` = measured LLC hit rate among LLC-reaching accesses.
    pub llc: Vec<Vec<f64>>,
}

impl MeasuredRates {
    /// Creates a table for `sets` sets × `refs` references, all zero.
    pub fn zeroed(sets: usize, refs: usize) -> Self {
        MeasuredRates { l1: vec![vec![0.0; refs]; sets], llc: vec![vec![0.0; refs]; sets] }
    }
}

impl HitModel for MeasuredRates {
    fn l1_hit(&self, set: usize, r: usize) -> f64 {
        self.l1[set][r]
    }

    fn llc_hit(&self, set: usize, r: usize) -> f64 {
        self.llc[set][r]
    }
}

/// Perfect knowledge (Figure 15): measured rates labeled as oracle
/// provenance — identical numerics to [`MeasuredRates`], distinct type so
/// experiment code cannot confuse inspector output with oracle output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleModel(pub MeasuredRates);

impl HitModel for OracleModel {
    fn l1_hit(&self, set: usize, r: usize) -> f64 {
        self.0.l1_hit(set, r)
    }

    fn llc_hit(&self, set: usize, r: usize) -> f64 {
        self.0.llc_hit(set, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_miss_alpha_is_zero() {
        // Everything misses: cache affinity carries no weight.
        assert_eq!(AllMissModel.alpha(0, 4), 0.0);
    }

    #[test]
    fn alpha_half_when_two_of_four_hit() {
        // The paper's §4 example: B and C hit, A and D miss ⇒ α = 0.5.
        let mut m = MeasuredRates::zeroed(1, 4);
        m.llc[0][1] = 1.0;
        m.llc[0][2] = 1.0;
        assert!((m.alpha(0, 4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alpha_quarter_when_one_of_four_hits() {
        // "If only one of these four requests were estimated to be a cache
        // hit, the α parameter would be set to 0.25."
        let mut m = MeasuredRates::zeroed(1, 4);
        m.llc[0][1] = 1.0;
        assert!((m.alpha(0, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn l1_hits_are_excluded_from_alpha() {
        let mut m = MeasuredRates::zeroed(1, 2);
        // Ref 0 always stays in L1; ref 1 always hits LLC.
        m.l1[0][0] = 1.0;
        m.llc[0][1] = 1.0;
        assert!((m.alpha(0, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_alpha_is_half() {
        let m = MeasuredRates::zeroed(1, 0);
        assert_eq!(m.alpha(0, 0), 0.5);
        let mut all_l1 = MeasuredRates::zeroed(1, 2);
        all_l1.l1[0][0] = 1.0;
        all_l1.l1[0][1] = 1.0;
        assert_eq!(all_l1.alpha(0, 2), 0.5);
    }
}
