//! Simulation results and derived metrics.

use locmap_core::{AffinityVec, MeasuredRates, ResilienceSummary};
use locmap_mem::{CacheStats, DramStats};
use locmap_noc::NetworkStats;

/// The outcome of executing one mapped nest.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Execution time in cycles: the barrier time (max over cores) of the
    /// nest, plus any overhead cycles charged by the caller.
    pub cycles: u64,
    /// NoC statistics; `network.avg_latency()` is the paper's on-chip
    /// network latency metric.
    pub network: NetworkStats,
    /// Aggregate L1 statistics (all cores).
    pub l1: CacheStats,
    /// Aggregate LLC statistics (all banks).
    pub l2: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Observed per-(set, ref) hit rates — what the inspector measures and
    /// what oracle (perfect-knowledge) mapping consumes.
    pub measured: MeasuredRates,
    /// Observed MAI per set (true per-access MC attribution of misses).
    pub observed_mai: Vec<AffinityVec>,
    /// Observed CAI per set (true per-access region attribution of hits).
    pub observed_cai: Vec<AffinityVec>,
    /// Number of coherence invalidation messages generated.
    pub invalidations: u64,
    /// What online resilience did during the run: faults seen, retries,
    /// remaps, MTTR, migration cost and the degradation level. `None` for
    /// plain runs; filled in by the heal driver
    /// (`locmap_bench::heal`) when a run recovered from mid-run faults.
    pub resilience: Option<ResilienceSummary>,
}

impl RunResult {
    /// Percentage improvement of `opt` over `base` in execution time:
    /// positive = faster.
    pub fn exec_improvement_pct(base: &RunResult, opt: &RunResult) -> f64 {
        if base.cycles == 0 {
            return 0.0;
        }
        100.0 * (base.cycles as f64 - opt.cycles as f64) / base.cycles as f64
    }

    /// Percentage reduction in average on-chip network latency.
    pub fn net_latency_reduction_pct(base: &RunResult, opt: &RunResult) -> f64 {
        let b = base.network.avg_latency();
        if b == 0.0 {
            return 0.0;
        }
        100.0 * (b - opt.network.avg_latency()) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        let base = RunResult { cycles: 1000, ..RunResult::default() };
        let opt = RunResult { cycles: 900, ..RunResult::default() };
        assert!((RunResult::exec_improvement_pct(&base, &opt) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_baselines_are_zero() {
        let z = RunResult::default();
        assert_eq!(RunResult::exec_improvement_pct(&z, &z), 0.0);
        assert_eq!(RunResult::net_latency_reduction_pct(&z, &z), 0.0);
    }

    #[test]
    fn latency_reduction_uses_averages() {
        let mut base = RunResult::default();
        base.network.messages = 10;
        base.network.total_latency = 1000; // avg 100
        let mut opt = RunResult::default();
        opt.network.messages = 20;
        opt.network.total_latency = 1000; // avg 50
        assert!((RunResult::net_latency_reduction_pct(&base, &opt) - 50.0).abs() < 1e-12);
    }
}
