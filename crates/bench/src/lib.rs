//! Experiment harness for the PLDI'18 reproduction.
//!
//! [`evaluate`] runs one benchmark under one [`Scheme`] on one platform and
//! returns the metrics every figure is built from: on-chip network latency,
//! execution time, runtime overhead, MAI/CAI estimation error, and the
//! fraction of iteration sets moved by load balancing. The `fig*`/`table*`
//! binaries in `src/bin` are thin loops over this function that print the
//! paper's rows and series.
//!
//! Execution-time accounting mirrors the paper's methodology: applications
//! run an outer timing loop (`Workload::timing_iters`); pass 1 runs cold
//! (and, for irregular codes, under the default mapping while the
//! *inspector* profiles it), the remaining passes run warm under the final
//! mapping; inspector overhead cycles are charged in full.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod heal;
pub mod overload;
pub mod resilience;

use locmap_baselines::{hardware_placement, optimize_layout};
use locmap_core::{
    mean_eta, Compiler, Inspector, InspectorCostModel, MapRequest, MappingOptions, NestMapping,
    OracleModel, Platform,
};
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_noc::RunControl;
use locmap_sim::{RunResult, SimConfig, Simulator};
use locmap_workloads::Workload;

/// Which mapping scheme to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's baseline: round-robin iteration sets, location-blind.
    Default,
    /// The paper's contribution ("LA"): compile-time mapping for regular
    /// nests, inspector–executor for irregular ones.
    LocationAware,
    /// Figure 2 / ideal network: default mapping on a zero-latency NoC.
    IdealNetwork,
    /// Figure 15: perfect MAI/CAI/hit knowledge (measured rates, zero
    /// estimation noise, no inspector overhead).
    Oracle,
    /// Figure 14: Das et al. HPCA'13 hardware placement (memory-intensive
    /// sets near MCs, destination-blind).
    Hardware,
    /// Figure 13 "DO": Ding et al. PLDI'15 data-layout optimization with
    /// the default computation mapping.
    LayoutOnly,
    /// Figure 13 "LA+DO": layout optimization first, then location-aware
    /// mapping.
    LayoutPlusLa,
}

/// The metrics of one (benchmark, scheme) evaluation.
#[derive(Debug, Clone, Default)]
pub struct AppOutcome {
    /// Benchmark name.
    pub name: String,
    /// Baseline (default mapping) execution cycles over the timing loop.
    pub base_cycles: u64,
    /// Scheme execution cycles (including any runtime overhead).
    pub opt_cycles: u64,
    /// Baseline average on-chip network latency (warm pass).
    pub base_latency: f64,
    /// Scheme average on-chip network latency (warm pass).
    pub opt_latency: f64,
    /// Inspector overhead in cycles (0 for compile-time schemes).
    pub overhead_cycles: u64,
    /// Mean η between predicted and observed (normalized) MAI.
    pub mai_error: f64,
    /// Mean η between predicted and observed (normalized) CAI.
    pub cai_error: f64,
    /// Fraction of iteration sets moved by load balancing.
    pub frac_moved: f64,
}

impl AppOutcome {
    /// % reduction in on-chip network latency (positive = better).
    pub fn net_reduction_pct(&self) -> f64 {
        if self.base_latency == 0.0 {
            0.0
        } else {
            100.0 * (self.base_latency - self.opt_latency) / self.base_latency
        }
    }

    /// % reduction in execution time (positive = better).
    pub fn exec_improvement_pct(&self) -> f64 {
        if self.base_cycles == 0 {
            0.0
        } else {
            100.0 * (self.base_cycles as f64 - self.opt_cycles as f64) / self.base_cycles as f64
        }
    }

    /// Runtime overhead as % of the scheme's execution time (Figures
    /// 7c/8c).
    pub fn overhead_pct(&self) -> f64 {
        if self.opt_cycles == 0 {
            0.0
        } else {
            100.0 * self.overhead_cycles as f64 / self.opt_cycles as f64
        }
    }
}

/// One experiment configuration: platform + simulator timing + mapping
/// options.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Platform description handed to both the compiler and the simulator.
    pub platform: Platform,
    /// Simulator timing.
    pub sim: SimConfig,
    /// Mapping-pass options.
    pub opts: MappingOptions,
}

impl Experiment {
    /// The paper's default platform/simulator/options with the given LLC
    /// organization. The compiler's CME cache model is kept consistent
    /// with the simulator's (scaled) hierarchy.
    pub fn paper_default(llc: locmap_core::LlcOrg) -> Self {
        let sim = SimConfig::default();
        let platform = Platform::paper_default_with(llc);
        let opts = Self::opts_for_platform(sim, &platform);
        Experiment { platform, sim, opts }
    }

    /// Mapping options whose CME cache model matches `sim`'s hierarchy on
    /// `platform`: for private LLCs a thread's misses are filtered by one
    /// local bank; for shared S-NUCA the whole distributed LLC caches its
    /// data, so the CME models the aggregate capacity. Affinity analysis
    /// samples every 2nd iteration and CME symbolically executes half of
    /// them — the statistical mode of the paper's CME variant.
    pub fn opts_for_platform(sim: SimConfig, platform: &Platform) -> MappingOptions {
        let mut opts = MappingOptions::default();
        opts.cme.l1 = sim.l1;
        let llc_bytes = match platform.llc {
            locmap_core::LlcOrg::Private => sim.l2_bank.size_bytes,
            locmap_core::LlcOrg::SharedSNuca => {
                sim.l2_bank.size_bytes * platform.mesh.node_count() as u64
            }
        };
        opts.cme = opts.cme.with_llc_bytes(llc_bytes.next_power_of_two());
        opts.cme.sample_rate = 0.5;
        opts.analysis_sample_stride = 2;
        opts
    }

    /// Mapping options for `sim` on the default 6×6 shared-LLC platform.
    pub fn opts_for(sim: SimConfig) -> MappingOptions {
        Self::opts_for_platform(sim, &Platform::paper_default())
    }

    /// Replaces the simulator config, keeping CME consistent.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self.opts = Self::opts_for_platform(sim, &self.platform);
        self
    }
}

/// Per-nest mapping plus accumulated inspector overhead.
#[derive(Debug)]
struct SchedulePlan {
    mappings: Vec<NestMapping>,
    overhead: u64,
}

fn all_nests(program: &Program) -> Vec<NestId> {
    program.nest_ids().collect()
}

/// Runs every nest of `program` once (one timing-loop pass); returns total
/// barrier cycles and the merged run results per nest.
fn run_pass(
    sim: &mut Simulator,
    program: &Program,
    mappings: &[NestMapping],
    data: &DataEnv,
) -> (u64, Vec<RunResult>) {
    let mut cycles = 0;
    let mut results = Vec::with_capacity(mappings.len());
    for m in mappings {
        let r = sim.run_nest(program, m, data);
        cycles += r.cycles;
        results.push(r);
    }
    (cycles, results)
}

fn warm_latency(results: &[RunResult]) -> f64 {
    let (lat, msgs) = results.iter().fold((0u64, 0u64), |(l, m), r| {
        (l + r.network.total_latency, m + r.network.messages)
    });
    if msgs == 0 {
        0.0
    } else {
        lat as f64 / msgs as f64
    }
}

/// Builds the scheme's mapping plan for `program`, profiling with
/// `profile_results` (the default-mapping pass) where runtime knowledge is
/// needed.
fn plan(
    scheme: Scheme,
    compiler: &Compiler,
    program: &Program,
    data: &DataEnv,
    defaults: &[NestMapping],
    profile: &[RunResult],
) -> SchedulePlan {
    let nests = all_nests(program);
    match scheme {
        Scheme::Default | Scheme::IdealNetwork | Scheme::LayoutOnly => SchedulePlan {
            mappings: nests.iter().map(|&n| compiler.default_mapping(program, n)).collect(),
            overhead: 0,
        },
        Scheme::LocationAware | Scheme::LayoutPlusLa => {
            let inspector = Inspector::new(compiler, InspectorCostModel::default());
            let mut overhead = 0;
            // The compile-time pass must not see runtime index-array
            // contents — that is exactly the knowledge gap the
            // inspector–executor exists to close.
            let compile_time_view = DataEnv::new();
            let mappings = nests
                .iter()
                .map(|&nid| {
                    let m = compiler.map_nest(program, nid, &compile_time_view);
                    if m.needs_inspector {
                        let rep =
                            inspector.run(program, nid, data, &profile[nid.0 as usize].measured);
                        overhead += rep.overhead_cycles;
                        rep.mapping
                    } else {
                        m
                    }
                })
                .collect();
            SchedulePlan { mappings, overhead }
        }
        Scheme::Oracle => SchedulePlan {
            mappings: nests
                .iter()
                .map(|&nid| {
                    let oracle = OracleModel(profile[nid.0 as usize].measured.clone());
                    let req = MapRequest { program, nest: nid, data };
                    compiler
                        .map(&req, Some(&oracle), &RunControl::unlimited())
                        .expect("an unlimited RunControl never aborts")
                })
                .collect(),
            overhead: 0,
        },
        Scheme::Hardware => SchedulePlan {
            mappings: nests
                .iter()
                .map(|&nid| {
                    let d = &defaults[nid.0 as usize];
                    let prof = &profile[nid.0 as usize];
                    // Intensity = observed per-set miss (MAI) mass.
                    let intensity: Vec<f64> =
                        prof.observed_mai.iter().map(|v| v.mass()).collect();
                    hardware_placement(compiler.platform(), nid, &d.sets, &intensity)
                })
                .collect(),
            overhead: 0,
        },
    }
}

/// Evaluates `workload` under `scheme` in `exp`, returning both baseline
/// and scheme metrics.
pub fn evaluate(workload: &Workload, exp: &Experiment, scheme: Scheme) -> AppOutcome {
    let data = workload.data.clone();
    let timing = workload.timing_iters.max(1) as u64;

    // The baseline always runs the *original* program under the default
    // mapping; layout schemes additionally build a re-laid copy that only
    // the scheme side executes (DO changes data placement, not the
    // baseline the paper compares against).
    let base_program = workload.program.clone();
    let mut program = workload.program.clone();
    if matches!(scheme, Scheme::LayoutOnly | Scheme::LayoutPlusLa) {
        optimize_layout(&mut program, &exp.platform, &data, 8);
    }

    let compiler = Compiler::builder(exp.platform.clone()).options(exp.opts).build().unwrap();
    let nests = all_nests(&program);
    let defaults: Vec<NestMapping> =
        nests.iter().map(|&n| compiler.default_mapping(&program, n)).collect();

    // ---- Baseline: cold + (T-1) warm passes under the default mapping.
    let mut base_sim = Simulator::builder(exp.platform.clone()).config(exp.sim).build().unwrap();
    let (base_cold, base_cold_res) = run_pass(&mut base_sim, &base_program, &defaults, &data);
    let (base_warm, base_warm_res) = if timing > 1 {
        run_pass(&mut base_sim, &base_program, &defaults, &data)
    } else {
        (base_cold, base_cold_res.clone())
    };
    let base_cycles = base_cold + (timing - 1) * base_warm;
    let base_latency = warm_latency(&base_warm_res);

    // Profiling (what the inspector observes during timing iteration 1)
    // must see the layout the executor will run on: for layout schemes
    // that is the re-laid program, so profile it separately.
    let layout_profile = if matches!(scheme, Scheme::LayoutOnly | Scheme::LayoutPlusLa) {
        let mut sim = Simulator::builder(exp.platform.clone()).config(exp.sim).build().unwrap();
        Some(run_pass(&mut sim, &program, &defaults, &data).1)
    } else {
        None
    };
    let profile = layout_profile.as_ref().unwrap_or(&base_cold_res);

    // ---- Scheme.
    let sim_cfg = if scheme == Scheme::IdealNetwork { SimConfig { noc: locmap_noc::NocConfig::ideal(), ..exp.sim } } else { exp.sim };
    let plan = plan(scheme, &compiler, &program, &data, &defaults, profile);

    let mut opt_sim = Simulator::builder(exp.platform.clone()).config(sim_cfg).build().unwrap();
    // Pass 1: irregular nests execute the default mapping while the
    // inspector observes; regular nests already run optimized.
    let uses_inspector = matches!(scheme, Scheme::LocationAware | Scheme::LayoutPlusLa)
        && nests.iter().any(|&nid| program.nest(nid).is_irregular());
    let pass1: Vec<&NestMapping> = nests
        .iter()
        .map(|&nid| {
            let i = nid.0 as usize;
            if program.nest(nid).is_irregular()
                && matches!(scheme, Scheme::LocationAware | Scheme::LayoutPlusLa)
            {
                &defaults[i]
            } else {
                &plan.mappings[i]
            }
        })
        .collect();
    let mut opt_cold = 0;
    for m in &pass1 {
        opt_cold += opt_sim.run_nest(&program, m, &data).cycles;
    }

    // When the mapping switches after pass 1 (inspector schemes), the
    // caches hold data placed for the *default* mapping: run one rewarm
    // pass, then measure steady state. Execution accounting charges the
    // rewarm as a real timing iteration (its cost is genuinely paid);
    // latency metrics come from the steady-state pass of both schemes so
    // the comparison is symmetric.
    let rewarm = if uses_inspector && timing > 1 {
        Some(run_pass(&mut opt_sim, &program, &plan.mappings, &data))
    } else {
        None
    };
    let (opt_warm, opt_warm_res) = if timing > 1 {
        run_pass(&mut opt_sim, &program, &plan.mappings, &data)
    } else {
        // Single-pass programs: the scheme pass *is* the measurement; run
        // on a fresh machine for metric collection.
        let mut sim = Simulator::builder(exp.platform.clone()).config(sim_cfg).build().unwrap();
        run_pass(&mut sim, &program, &plan.mappings, &data)
    };
    let opt_cycles = if timing > 1 {
        match &rewarm {
            Some((rewarm_cycles, _)) => {
                // pass1 (default, profiled) + rewarm pass + steady passes.
                let steady = timing.saturating_sub(2);
                opt_cold + rewarm_cycles + steady * opt_warm + plan.overhead
            }
            None => opt_cold + (timing - 1) * opt_warm + plan.overhead,
        }
    } else {
        opt_warm + plan.overhead
    };
    let opt_latency = warm_latency(&opt_warm_res);

    // ---- Estimation-error metrics (predicted vs observed affinity).
    let mut mai_err_sum = 0.0;
    let mut cai_err_sum = 0.0;
    let mut err_nests = 0usize;
    let mut moved = 0usize;
    let mut total_sets = 0usize;
    for (i, m) in plan.mappings.iter().enumerate() {
        moved += m.balance.moved;
        total_sets += m.balance.total;
        if m.mai.is_empty() {
            continue;
        }
        let obs = &opt_warm_res[i];
        let pred_mai: Vec<_> = m.mai.iter().map(|v| v.clone().normalized()).collect();
        let obs_mai: Vec<_> = obs.observed_mai.iter().map(|v| v.clone().normalized()).collect();
        if pred_mai.len() == obs_mai.len() {
            mai_err_sum += mean_eta(&pred_mai, &obs_mai);
            if !m.cai.is_empty() {
                let pred_cai: Vec<_> = m.cai.iter().map(|v| v.clone().normalized()).collect();
                let obs_cai: Vec<_> =
                    obs.observed_cai.iter().map(|v| v.clone().normalized()).collect();
                cai_err_sum += mean_eta(&pred_cai, &obs_cai);
            }
            err_nests += 1;
        }
    }

    AppOutcome {
        name: workload.name.to_string(),
        base_cycles,
        opt_cycles,
        base_latency,
        opt_latency,
        overhead_cycles: plan.overhead,
        mai_error: if err_nests == 0 { 0.0 } else { mai_err_sum / err_nests as f64 },
        cai_error: if err_nests == 0 { 0.0 } else { cai_err_sum / err_nests as f64 },
        frac_moved: if total_sets == 0 { 0.0 } else { moved as f64 / total_sets as f64 },
    }
}

/// Builds the benchmark set a harness binary should run: all 21 by
/// default, or the comma-separated subset named in `LOCMAP_APPS` (useful
/// for the parameter sweeps, which multiply every benchmark by many
/// configurations).
pub fn selected_apps(scale: locmap_workloads::Scale) -> Vec<Workload> {
    match std::env::var("LOCMAP_APPS") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(|n| locmap_workloads::build(n.trim(), scale))
            .collect(),
        _ => locmap_workloads::build_all(scale),
    }
}

/// Geometric mean of positive values (the paper's aggregate). Non-positive
/// entries are clamped to 0.1 so a single outlier cannot zero the mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|&v| v.max(0.1).ln()).sum();
    (s / values.len() as f64).exp()
}

/// Formats a header + row table to stdout (shared by the harness bins).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::LlcOrg;
    use locmap_workloads::{build, Scale};

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    /// A workload hand-built so that location-awareness must pay off even
    /// at test scale: each iteration block streams one page-aligned chunk
    /// (every access a fresh cache line), so every set has a single-MC MAI
    /// and the default round-robin mapping scatters them maximally.
    fn structured_stream() -> Workload {
        use locmap_loopir::{Access, AffineExpr, LoopNest, Program};
        let mut p = Program::new("structured");
        let elems = 1u64 << 18; // 2 MiB, 1024 pages
        let a = p.add_array("A", 8, elems);
        // Stride-8 (64 B): one access per line, maximal traffic.
        let n = (elems / 8) as i64;
        let mut nest = LoopNest::rectangular("scan", &[n]).work(24);
        nest.add_ref(a, AffineExpr::var(0, 8), Access::Read);
        p.add_nest(nest);
        Workload {
            name: "structured",
            program: p,
            data: locmap_loopir::DataEnv::new(),
            irregular: false,
            timing_iters: 1,
            table3: locmap_workloads::Table3Info::default(),
        }
    }

    #[test]
    fn evaluate_structured_location_aware_beats_default_private() {
        let w = structured_stream();
        let exp = Experiment::paper_default(LlcOrg::Private);
        let out = evaluate(&w, &exp, Scheme::LocationAware);
        assert!(out.base_cycles > 0 && out.opt_cycles > 0);
        assert!(
            out.net_reduction_pct() > 10.0,
            "expected >10% latency reduction, got {:.2}% (base {:.1}, opt {:.1})",
            out.net_reduction_pct(),
            out.base_latency,
            out.opt_latency
        );
        assert!(out.exec_improvement_pct() > 0.0);
    }

    #[test]
    fn evaluate_mxm_pipeline_mechanics() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let out = evaluate(&w, &exp, Scheme::LocationAware);
        assert!(out.base_cycles > 0 && out.opt_cycles > 0);
        assert!(out.base_latency > 0.0 && out.opt_latency > 0.0);
        assert_eq!(out.overhead_cycles, 0, "regular app needs no inspector");
        assert!(out.frac_moved <= 1.0);
    }

    #[test]
    fn evaluate_irregular_charges_overhead() {
        let w = build("moldyn", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::SharedSNuca);
        let out = evaluate(&w, &exp, Scheme::LocationAware);
        assert!(out.overhead_cycles > 0, "inspector must cost something");
        assert!(out.overhead_pct() < 50.0, "overhead {}% absurd", out.overhead_pct());
    }

    #[test]
    fn ideal_network_is_upper_bound() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let la = evaluate(&w, &exp, Scheme::LocationAware);
        let ideal = evaluate(&w, &exp, Scheme::IdealNetwork);
        assert!(
            ideal.exec_improvement_pct() >= la.exec_improvement_pct() - 1.0,
            "ideal {:.2}% vs LA {:.2}%",
            ideal.exec_improvement_pct(),
            la.exec_improvement_pct()
        );
    }
}
