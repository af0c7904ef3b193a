//! A Knights-Landing-like platform for the Figures 16–17 experiments.
//!
//! The paper validates its approach on an Intel KNL: a 2D-mesh manycore
//! with three *cluster modes* (all-to-all, quadrant, SNC-4) that constrain
//! how addresses hash to cache slices and memory. We model KNL as a 36-tile
//! mesh whose address map implements the three modes; what the experiment
//! measures — how computation mapping interacts with address-locality
//! modes — is a property of those maps, not of KNL's exact core counts.

use locmap_core::{LlcOrg, Platform};
use locmap_mem::{AddrMap, AddrMapConfig, ClusterMode, Interleave};
use locmap_noc::{McPlacement, Mesh, RegionGrid};

/// KNL cluster mode (§5, "Results with Intel KNL").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnlMode {
    /// Addresses hash uniformly over all tiles' cache slices and all MCs.
    AllToAll,
    /// Address's cache slice and MC are kept in the same chip quadrant.
    Quadrant,
    /// Each quadrant is a separate NUMA domain (sub-NUMA clustering).
    Snc4,
}

impl KnlMode {
    fn cluster(self) -> ClusterMode {
        match self {
            KnlMode::AllToAll => ClusterMode::AllToAll,
            KnlMode::Quadrant => ClusterMode::Quadrant,
            KnlMode::Snc4 => ClusterMode::Snc4,
        }
    }
}

/// Builds the KNL-like platform in the given cluster mode: a 6×6 tile mesh
/// with shared (distributed) LLC, 4 MCs at the edge midpoints, and the
/// mode's address hashing.
pub fn knl_platform(mode: KnlMode) -> Platform {
    let mesh = Mesh::try_new(6, 6).unwrap();
    let cfg = AddrMapConfig {
        page_bytes: 4096,
        line_bytes: 64,
        mc_count: 4,
        llc_banks: mesh.node_count() as u16,
        mem_interleave: Interleave::Page,
        llc_interleave: Interleave::Line,
        cluster: Some(mode.cluster()),
    };
    Platform {
        mesh,
        regions: RegionGrid::paper_default(mesh),
        mc_coords: McPlacement::EdgeMidpoints.coords(mesh),
        addr_map: AddrMap::new(cfg),
        llc: LlcOrg::SharedSNuca,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_mem::PhysAddr;

    #[test]
    fn all_modes_build() {
        for m in [KnlMode::AllToAll, KnlMode::Quadrant, KnlMode::Snc4] {
            let p = knl_platform(m);
            assert_eq!(p.mesh.node_count(), 36);
            assert_eq!(p.mc_count(), 4);
        }
    }

    #[test]
    fn quadrant_mode_constrains_bank_to_mc_quadrant() {
        let p = knl_platform(KnlMode::Quadrant);
        for pg in 0..64u64 {
            let a = PhysAddr(pg * 4096 + 128);
            let bank = p.addr_map.llc_bank_of(a) as u64;
            let mc = p.addr_map.mc_of(a).index() as u64;
            assert_eq!(bank / 9, mc, "bank {bank} not colocated with MC {mc}");
        }
    }

    #[test]
    fn all_to_all_spreads_banks() {
        let p = knl_platform(KnlMode::AllToAll);
        let mut seen = [false; 36];
        for l in 0..4096u64 {
            seen[p.addr_map.llc_bank_of(PhysAddr(l * 64)) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 30);
    }
}
