//! Physical-address interleaving across memory controllers and LLC banks.
//!
//! The paper (§2, "Handling LLC Misses" and "Default Data Mapping") uses:
//!
//! * **memory banks / MCs**: round-robin at *page* (memory row, 2 KB)
//!   granularity — bits just above the page offset select the MC;
//! * **LLC banks**: round-robin at *cache-line* (64 B) granularity — bits
//!   just above the line offset select the bank.
//!
//! Figure 11 sweeps the other (mem, cache) granularity combinations, and
//! the KNL experiments (Figures 16–17) exercise cluster modes that
//! constrain which banks/MCs an address may hash to. All of those policies
//! are variants of [`AddrMap`].
//!
//! Per the paper's OS trick (§4), virtual-to-physical translation preserves
//! the MC and LLC bits, so we model physical addresses directly.

use locmap_noc::McId;
use std::fmt;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The cache-line index (address divided by line size).
    pub fn line(self, line_bytes: u64) -> u64 {
        self.0 / line_bytes
    }

    /// The page index (address divided by page size).
    pub fn page(self, page_bytes: u64) -> u64 {
        self.0 / page_bytes
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Distribution granularity for round-robin interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interleave {
    /// Consecutive pages go to consecutive targets.
    Page,
    /// Consecutive cache lines go to consecutive targets.
    Line,
}

/// KNL-style cluster modes (Figures 16–17).
///
/// These modes constrain the *pairing* between the LLC bank that homes an
/// address and the MC that owns it, by hashing within virtual chip
/// quadrants. They model the `all-to-all`, `quadrant` and `SNC-4` modes of
/// Intel Knights Landing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterMode {
    /// Addresses hash uniformly over all banks and all MCs, independently.
    AllToAll,
    /// The chip is divided into 4 quadrants; an address's LLC bank and MC
    /// are guaranteed to be in the same quadrant (optimizes bank→MC
    /// traffic, not core→bank traffic).
    Quadrant,
    /// Each quadrant is a separate NUMA domain: an address's bank and MC
    /// are both in the quadrant that owns its page (pages are assigned to
    /// quadrants round-robin here, standing in for NUMA first-touch).
    Snc4,
}

/// Parameters of the address-mapping policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrMapConfig {
    /// Page size in bytes (Table 4 default: 2 KB, the DRAM row size).
    pub page_bytes: u64,
    /// LLC line size in bytes (64 B).
    pub line_bytes: u64,
    /// Number of memory controllers.
    pub mc_count: u16,
    /// Number of LLC banks (= number of nodes for a banked S-NUCA LLC).
    pub llc_banks: u16,
    /// Interleaving granularity across MCs.
    pub mem_interleave: Interleave,
    /// Interleaving granularity across LLC banks.
    pub llc_interleave: Interleave,
    /// Cluster mode (None = unconstrained, the 6x6 default platform).
    pub cluster: Option<ClusterMode>,
}

impl AddrMapConfig {
    /// The paper's default: 2 KB pages round-robin over 4 MCs, 64 B lines
    /// round-robin over `llc_banks` banks, no cluster constraint.
    pub fn paper_default(llc_banks: u16) -> Self {
        AddrMapConfig {
            page_bytes: 2048,
            line_bytes: 64,
            mc_count: 4,
            llc_banks,
            mem_interleave: Interleave::Page,
            llc_interleave: Interleave::Line,
            cluster: None,
        }
    }
}

/// Maps physical addresses to their home LLC bank and owning MC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrMap {
    cfg: AddrMapConfig,
}

impl AddrMap {
    /// Creates an address map from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any count or size is zero, or if sizes are not powers of
    /// two (hardware address decoding slices bit fields).
    pub fn new(cfg: AddrMapConfig) -> Self {
        assert!(cfg.mc_count > 0 && cfg.llc_banks > 0, "need at least one MC and bank");
        assert!(cfg.page_bytes.is_power_of_two(), "page size must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.page_bytes >= cfg.line_bytes, "page smaller than line");
        if cfg.cluster.is_some() {
            assert!(cfg.mc_count.is_multiple_of(4), "cluster modes assume 4 quadrants of MCs");
            assert!(cfg.llc_banks.is_multiple_of(4), "cluster modes assume 4 quadrants of banks");
        }
        AddrMap { cfg }
    }

    /// The configuration used by this map.
    pub fn config(&self) -> AddrMapConfig {
        self.cfg
    }

    /// The unit index used for interleaving at granularity `g`.
    fn unit(&self, addr: PhysAddr, g: Interleave) -> u64 {
        match g {
            Interleave::Page => addr.page(self.cfg.page_bytes),
            Interleave::Line => addr.line(self.cfg.line_bytes),
        }
    }

    /// A cheap avalanche hash so that "uniform hashing" cluster modes do not
    /// correlate with array strides.
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }

    /// The memory controller owning `addr` (the target of an LLC miss).
    pub fn mc_of(&self, addr: PhysAddr) -> McId {
        let m = self.cfg.mc_count as u64;
        match self.cfg.cluster {
            None => McId((self.unit(addr, self.cfg.mem_interleave) % m) as u16),
            Some(ClusterMode::AllToAll) => {
                McId((Self::mix(self.unit(addr, self.cfg.mem_interleave)) % m) as u16)
            }
            Some(ClusterMode::Quadrant) | Some(ClusterMode::Snc4) => {
                // One MC per quadrant group: quadrant q owns MCs congruent
                // to q mod 4. Pick the quadrant first, then an MC inside it.
                let q = self.quadrant_of(addr);
                let per_q = m / 4;
                let inner = Self::mix(self.unit(addr, self.cfg.mem_interleave) >> 2) % per_q;
                McId((q * per_q + inner) as u16)
            }
        }
    }

    /// The LLC bank homing `addr`'s cache line in a shared (S-NUCA) LLC.
    pub fn llc_bank_of(&self, addr: PhysAddr) -> u16 {
        let b = self.cfg.llc_banks as u64;
        match self.cfg.cluster {
            None => (self.unit(addr, self.cfg.llc_interleave) % b) as u16,
            Some(ClusterMode::AllToAll) => {
                (Self::mix(self.unit(addr, self.cfg.llc_interleave)) % b) as u16
            }
            Some(ClusterMode::Quadrant) | Some(ClusterMode::Snc4) => {
                // Bank constrained to the quadrant that owns the address.
                let q = self.quadrant_of(addr);
                let per_q = b / 4;
                let inner = Self::mix(self.unit(addr, self.cfg.llc_interleave)) % per_q;
                (q * per_q + inner) as u16
            }
        }
    }

    /// The quadrant (0..4) owning `addr` under a cluster mode.
    ///
    /// Quadrant assignment is at page granularity: for `Quadrant` mode this
    /// stands in for the hardware's hashed directory; for `Snc4` it stands
    /// in for NUMA page placement.
    pub fn quadrant_of(&self, addr: PhysAddr) -> u64 {
        match self.cfg.cluster {
            Some(ClusterMode::Snc4) => addr.page(self.cfg.page_bytes) % 4,
            _ => Self::mix(addr.page(self.cfg.page_bytes)) % 4,
        }
    }

    /// DRAM bank within the owning MC (used by the DRAM timing model). Banks
    /// are selected by the page bits above the MC-select bits, so
    /// consecutive pages on the same MC fall in different banks.
    pub fn dram_bank_of(&self, addr: PhysAddr, banks_per_mc: u16) -> u16 {
        let unit = self.unit(addr, self.cfg.mem_interleave);
        ((unit / self.cfg.mc_count as u64) % banks_per_mc as u64) as u16
    }

    /// The DRAM row (page) index, for row-buffer hit detection.
    pub fn dram_row_of(&self, addr: PhysAddr) -> u64 {
        addr.page(self.cfg.page_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddrMap {
        AddrMap::new(AddrMapConfig::paper_default(36))
    }

    #[test]
    fn pages_round_robin_over_mcs() {
        let m = map();
        // Consecutive 2 KB pages hit MC0, MC1, MC2, MC3, MC0, ...
        for p in 0..16u64 {
            assert_eq!(m.mc_of(PhysAddr(p * 2048)).index(), (p % 4) as usize);
            // All addresses within one page share the MC.
            assert_eq!(m.mc_of(PhysAddr(p * 2048 + 2047)), m.mc_of(PhysAddr(p * 2048)));
        }
    }

    #[test]
    fn lines_round_robin_over_banks() {
        let m = map();
        for l in 0..100u64 {
            assert_eq!(m.llc_bank_of(PhysAddr(l * 64)) as u64, l % 36);
            assert_eq!(m.llc_bank_of(PhysAddr(l * 64 + 63)), m.llc_bank_of(PhysAddr(l * 64)));
        }
    }

    #[test]
    fn line_granularity_mc_interleave() {
        let cfg = AddrMapConfig {
            mem_interleave: Interleave::Line,
            ..AddrMapConfig::paper_default(36)
        };
        let m = AddrMap::new(cfg);
        for l in 0..16u64 {
            assert_eq!(m.mc_of(PhysAddr(l * 64)).index(), (l % 4) as usize);
        }
    }

    #[test]
    fn page_granularity_llc_interleave() {
        let cfg = AddrMapConfig {
            llc_interleave: Interleave::Page,
            ..AddrMapConfig::paper_default(36)
        };
        let m = AddrMap::new(cfg);
        // All lines of a page share a bank.
        let base = 5 * 2048;
        let b = m.llc_bank_of(PhysAddr(base));
        for off in (0..2048).step_by(64) {
            assert_eq!(m.llc_bank_of(PhysAddr(base + off)), b);
        }
    }

    #[test]
    fn quadrant_mode_colocates_bank_and_mc() {
        let cfg = AddrMapConfig {
            cluster: Some(ClusterMode::Quadrant),
            ..AddrMapConfig::paper_default(36)
        };
        let m = AddrMap::new(cfg);
        for p in 0..256u64 {
            let a = PhysAddr(p * 2048 + 64);
            let q = m.quadrant_of(a);
            let bank = m.llc_bank_of(a) as u64;
            let mc = m.mc_of(a).index() as u64;
            assert_eq!(bank / 9, q, "bank {bank} not in quadrant {q}");
            assert_eq!(mc, q, "mc {mc} not in quadrant {q}");
        }
    }

    #[test]
    fn snc4_partitions_pages_deterministically() {
        let cfg = AddrMapConfig {
            cluster: Some(ClusterMode::Snc4),
            ..AddrMapConfig::paper_default(36)
        };
        let m = AddrMap::new(cfg);
        for p in 0..16u64 {
            assert_eq!(m.quadrant_of(PhysAddr(p * 2048)), p % 4);
        }
    }

    #[test]
    fn all_to_all_spreads_over_all_targets() {
        let cfg = AddrMapConfig {
            cluster: Some(ClusterMode::AllToAll),
            ..AddrMapConfig::paper_default(36)
        };
        let m = AddrMap::new(cfg);
        let mut bank_seen = [false; 36];
        let mut mc_seen = [false; 4];
        for l in 0..4096u64 {
            bank_seen[m.llc_bank_of(PhysAddr(l * 64)) as usize] = true;
            mc_seen[m.mc_of(PhysAddr(l * 2048)).index()] = true;
        }
        assert!(bank_seen.iter().all(|&b| b), "some bank never hashed to");
        assert!(mc_seen.iter().all(|&b| b), "some MC never hashed to");
    }

    #[test]
    fn dram_bank_varies_across_same_mc_pages() {
        let m = map();
        // Pages 0, 4, 8, ... all live on MC0 but should use rotating banks.
        let b0 = m.dram_bank_of(PhysAddr(0), 8);
        let b1 = m.dram_bank_of(PhysAddr(4 * 2048), 8);
        let b2 = m.dram_bank_of(PhysAddr(8 * 2048), 8);
        assert_ne!(b0, b1);
        assert_ne!(b1, b2);
    }

    #[test]
    fn eight_kb_pages_supported() {
        let cfg = AddrMapConfig { page_bytes: 8192, ..AddrMapConfig::paper_default(36) };
        let m = AddrMap::new(cfg);
        assert_eq!(m.mc_of(PhysAddr(0)), m.mc_of(PhysAddr(8191)));
        assert_ne!(m.mc_of(PhysAddr(0)), m.mc_of(PhysAddr(8192)));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_page_rejected() {
        AddrMap::new(AddrMapConfig { page_bytes: 3000, ..AddrMapConfig::paper_default(36) });
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn quadrant_mode_uses_every_quadrant() {
        let cfg = AddrMapConfig { cluster: Some(ClusterMode::Quadrant), ..AddrMapConfig::paper_default(36) };
        let m = AddrMap::new(cfg);
        let mut seen = [false; 4];
        for p in 0..512u64 {
            seen[m.quadrant_of(PhysAddr(p * 2048)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn mixed_page_sizes_change_mc_boundaries() {
        let small = AddrMap::new(AddrMapConfig::paper_default(36));
        let big = AddrMap::new(AddrMapConfig { page_bytes: 8192, ..AddrMapConfig::paper_default(36) });
        // Within an 8 KB page the big map never changes MCs; the small map
        // rotates through all four.
        let mcs_small: std::collections::HashSet<u16> =
            (0..4u64).map(|k| small.mc_of(PhysAddr(k * 2048)).0).collect();
        let mcs_big: std::collections::HashSet<u16> =
            (0..4u64).map(|k| big.mc_of(PhysAddr(k * 2048)).0).collect();
        assert_eq!(mcs_small.len(), 4);
        assert_eq!(mcs_big.len(), 1);
    }

    #[test]
    #[should_panic]
    fn cluster_mode_requires_divisible_banks() {
        AddrMap::new(AddrMapConfig {
            cluster: Some(ClusterMode::Quadrant),
            llc_banks: 35,
            ..AddrMapConfig::paper_default(35)
        });
    }

    #[test]
    fn line_and_page_helpers() {
        let a = PhysAddr(2048 + 65);
        assert_eq!(a.line(64), 33);
        assert_eq!(a.page(2048), 1);
    }
}
