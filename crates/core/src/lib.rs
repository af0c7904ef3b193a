//! Location-aware computation-to-core mapping — the primary contribution of
//! *"Enhancing Computation-to-Core Assignment with Physical Location
//! Information"* (PLDI 2018).
//!
//! Given a parallel loop nest, a mesh platform description, and hit/miss
//! estimates (from [`locmap_cme`] at compile time or from the runtime
//! inspector), this crate:
//!
//! 1. computes the four affinity vectors — **MAI** (memory affinity of
//!    iterations), **MAC** (memory affinity of cores), **CAI** (cache
//!    affinity of iterations), **CAC** (cache affinity of cores);
//! 2. assigns every iteration set to the region minimizing the affinity
//!    error `η = α·ηc + (1−α)·ηm` (Algorithms 1 and 2 of the paper);
//! 3. rebalances load across regions in a location-aware way (donors ship
//!    surplus iteration sets to the *nearest* receivers);
//! 4. places each set on a concrete core inside its region.
//!
//! # Example
//!
//! ```
//! use locmap_core::{Platform, MappingOptions, Compiler};
//! use locmap_loopir::{Program, LoopNest, AffineExpr, Access, DataEnv};
//!
//! // for i in 0..4096 { A[i] = B[i] + C[i] + D[i] }  (Figure 5)
//! let mut p = Program::new("fig5");
//! let n = 4096;
//! let a = p.add_array("A", 8, n);
//! let b = p.add_array("B", 8, n);
//! let c = p.add_array("C", 8, n);
//! let d = p.add_array("D", 8, n);
//! let mut nest = LoopNest::rectangular("main", &[n as i64]);
//! nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
//! nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
//! nest.add_ref(c, AffineExpr::var(0, 1), Access::Read);
//! nest.add_ref(d, AffineExpr::var(0, 1), Access::Read);
//! let id = p.add_nest(nest);
//!
//! let platform = Platform::paper_default();
//! let compiler = Compiler::builder(platform).build().unwrap();
//! let mapping = compiler.map_nest(&p, id, &DataEnv::new());
//! assert_eq!(mapping.assignment.len(), mapping.sets.len());
//! ```
//!
//! For many nests at once, wrap the compiler in a [`MappingSession`]: it
//! fans requests over worker threads and memoizes repeated kernels while
//! guaranteeing bit-identical results to the serial path.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
mod affinity;
mod assign;
mod balance;
pub mod cache;
mod compiler;
mod emit;
mod hits;
mod inspector;
mod placement;
mod platform;
pub mod resilience;
mod session;
mod vectors;

pub use admission::{
    AdmissionConfig, AdmissionQueue, BreakerConfig, BreakerState, CircuitBreaker, Priority,
    QualityLevel, TryMapError,
};
pub use affinity::{
    compute_cai, compute_cai_ctl, compute_cai_reaching, compute_cai_reaching_ctl, compute_mai,
    compute_mai_ctl, mean_eta, AffinityInputs,
};
pub use assign::{assign_private, assign_shared, AlphaPolicy};
pub use balance::{balance_regions, balance_regions_masked, region_loads, BalanceReport};
pub use cache::CacheStats;
pub use compiler::{
    Compiler, CompilerBuilder, MapRequest, MappingOptions, NestMapping, SharedObjective,
};
pub use emit::{emit_openmp, emit_schedule_json};
pub use hits::{AllMissModel, CmeModel, HitModel, MeasuredRates, OracleModel};
pub use inspector::{Inspector, InspectorCostModel, InspectorReport};
pub use resilience::{
    DegradationLevel, FaultClass, MigrationModel, QuarantineConfig, RecoveryAction,
    RecoveryEvent, ResilienceController, ResilienceSummary, RetryPolicy,
};
pub use placement::{place_in_regions, place_in_regions_masked, PlacementPolicy};
pub use platform::{LlcOrg, Platform};
pub use session::{
    AdmitTicket, MapResponse, MappingSession, MappingSessionBuilder, ServedMapping, SessionStats,
};
pub use vectors::{AffinityVec, EtaMetric, Mac, MacPolicy, Cac, CacPolicy};

/// One-line import for the common mapping workflow.
///
/// Re-exports the types nearly every example and integration test needs:
/// the platform and its mesh/region geometry, the compiler and session
/// entry points with their builders, the program-construction types from
/// [`locmap_loopir`], and the error/fault types from [`locmap_noc`].
/// Simulation types live in `locmap_sim::prelude`, which includes this one
/// (this crate cannot re-export them — the dependency points the other
/// way).
pub mod prelude {
    pub use crate::admission::{AdmissionConfig, Priority, QualityLevel, TryMapError};
    pub use crate::compiler::{Compiler, CompilerBuilder, MapRequest, MappingOptions, NestMapping};
    pub use crate::platform::{LlcOrg, Platform};
    pub use crate::session::{
        MapResponse, MappingSession, MappingSessionBuilder, ServedMapping, SessionStats,
    };
    pub use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest, NestId, Program};
    pub use locmap_noc::{
        Budget, CancelToken, FaultPlan, FaultState, LocmapError, Mesh, NodeId, RegionGrid,
        RegionId, RunControl,
    };
}
