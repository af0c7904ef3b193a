//! Resilience experiments: how much performance survives component death.
//!
//! [`evaluate_resilience`] runs one workload three ways and reports the
//! comparison the `locmap faults` subcommand and the `resilience` binary
//! print:
//!
//! 1. **fault-free** — the location-aware mapping on a healthy machine
//!    (the reference everything degrades from);
//! 2. **degraded-aware** — a compiler built with
//!    [`CompilerBuilder::faults`](locmap_core::CompilerBuilder::faults)
//!    maps around the faults (affinity folded onto redirect targets, dead
//!    regions evacuated, only surviving cores placed) and runs on the
//!    faulted simulator; irregular nests go through the bounded
//!    re-inspection loop ([`Inspector::run_with_retry`]);
//! 3. **fault-oblivious** — round-robin over the surviving cores (the OS
//!    never schedules onto a dead core, but the deal is location-blind),
//!    on the same faulted simulator.
//!
//! All three arms use the same methodology: one warm-up/profiling pass
//! under the arm's default mapping, then one measurement pass under the
//! arm's final mapping; reported cycles include inspector overhead.

use crate::heal::{heal_run, HealConfig, HealError};
use crate::Experiment;
use locmap_core::{
    Compiler, Inspector, InspectorCostModel, NestMapping, ResilienceSummary, RetryPolicy,
};
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_noc::{FaultPlan, FaultState, LocmapError};
use locmap_sim::Simulator;
use locmap_workloads::Workload;

/// Metrics of one arm (mapping scheme × machine state).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmOutcome {
    /// Measurement-pass execution cycles plus inspector overhead.
    pub cycles: u64,
    /// Average on-chip network latency of the measurement pass.
    pub latency: f64,
    /// Inspector overhead charged into `cycles` (0 for oblivious arms).
    pub overhead_cycles: u64,
    /// Re-inspection rounds the retry loop needed.
    pub retries: u32,
    /// Fraction of iteration sets moved by (masked) load balancing.
    pub frac_moved: f64,
}

/// The three-way comparison for one workload under one fault state.
#[derive(Debug, Clone)]
pub struct ResilienceOutcome {
    /// Benchmark name.
    pub name: String,
    /// Dead (links, routers, MCs, banks) in the injected state.
    pub dead: (usize, usize, usize, usize),
    /// Location-aware mapping on the healthy machine.
    pub fault_free: ArmOutcome,
    /// Degraded-aware mapping on the faulted machine.
    pub aware: ArmOutcome,
    /// Surviving-core round-robin on the faulted machine.
    pub oblivious: ArmOutcome,
}

impl ResilienceOutcome {
    /// Execution-time cost of the faults under degraded-aware mapping, as
    /// % over fault-free (positive = slower).
    pub fn degradation_pct(&self) -> f64 {
        if self.fault_free.cycles == 0 {
            return 0.0;
        }
        100.0 * (self.aware.cycles as f64 - self.fault_free.cycles as f64)
            / self.fault_free.cycles as f64
    }

    /// Net-latency reduction of degraded-aware over fault-oblivious
    /// mapping on the same faulted machine (positive = aware is better).
    pub fn aware_net_gain_pct(&self) -> f64 {
        if self.oblivious.latency == 0.0 {
            return 0.0;
        }
        100.0 * (self.oblivious.latency - self.aware.latency) / self.oblivious.latency
    }

    /// Execution-time reduction of degraded-aware over fault-oblivious
    /// mapping (positive = aware is better).
    pub fn aware_exec_gain_pct(&self) -> f64 {
        if self.oblivious.cycles == 0 {
            return 0.0;
        }
        100.0 * (self.oblivious.cycles as f64 - self.aware.cycles as f64)
            / self.oblivious.cycles as f64
    }
}

fn nest_ids(program: &Program) -> Vec<NestId> {
    program.nest_ids().collect()
}

/// Runs one arm: profile pass under `compiler`'s default mapping, then the
/// measurement pass under `aware ? map_nest : default` mappings.
fn run_arm(
    workload: &Workload,
    exp: &Experiment,
    compiler: &Compiler,
    faults: Option<&FaultState>,
    aware: bool,
    retry: RetryPolicy,
) -> Result<ArmOutcome, LocmapError> {
    let program = &workload.program;
    let data = &workload.data;
    let nests = nest_ids(program);

    let mut sim = Simulator::builder(exp.platform.clone()).config(exp.sim).build().unwrap();
    if let Some(f) = faults {
        sim.set_faults(f)?;
    }

    let defaults: Vec<NestMapping> =
        nests.iter().map(|&n| compiler.default_mapping(program, n)).collect();
    let mut profile = Vec::with_capacity(defaults.len());
    for m in &defaults {
        profile.push(sim.try_run_nest(program, m, data)?);
    }

    let mut overhead = 0u64;
    let mut retries = 0u32;
    let mappings: Vec<NestMapping> = if aware {
        let inspector = Inspector::new(compiler, InspectorCostModel::default());
        // Compile time must not see runtime index-array contents.
        let compile_view = DataEnv::new();
        let mut out = Vec::with_capacity(nests.len());
        for &nid in &nests {
            let m = compiler.map_nest(program, nid, &compile_view);
            if !m.needs_inspector {
                out.push(m);
                continue;
            }
            let measured = &profile[nid.0 as usize].measured;
            let rep = match faults {
                // Healthy machine: predictions hold, no retry loop needed.
                None => inspector.run(program, nid, data, measured),
                // Faulted machine: re-inspect (bounded) when the rates
                // observed while executing the mapping drift from the
                // profiled ones.
                Some(f) => inspector.run_with_retry(
                    program,
                    nid,
                    data,
                    measured,
                    |candidate| {
                        let mut probe = Simulator::builder(exp.platform.clone()).config(exp.sim).build().unwrap();
                        probe.set_faults(f).expect("state validated by the outer sim");
                        probe
                            .try_run_nest(program, candidate, data)
                            .expect("degraded mappings only use surviving cores")
                            .measured
                    },
                    retry,
                ),
            };
            overhead += rep.overhead_cycles;
            retries += rep.retries;
            out.push(rep.mapping);
        }
        out
    } else {
        defaults
    };

    let (mut moved, mut total_sets) = (0usize, 0usize);
    for m in &mappings {
        moved += m.balance.moved;
        total_sets += m.balance.total;
    }

    let (mut cycles, mut lat, mut msgs) = (0u64, 0u64, 0u64);
    for m in &mappings {
        let r = sim.try_run_nest(program, m, data)?;
        cycles += r.cycles;
        lat += r.network.total_latency;
        msgs += r.network.messages;
    }

    Ok(ArmOutcome {
        cycles: cycles + overhead,
        latency: if msgs == 0 { 0.0 } else { lat as f64 / msgs as f64 },
        overhead_cycles: overhead,
        retries,
        frac_moved: if total_sets == 0 { 0.0 } else { moved as f64 / total_sets as f64 },
    })
}

/// Runs the three-way resilience comparison for `workload` under `state`.
///
/// Returns a typed error — never panics — when the fault state is not
/// survivable (machine partitioned, all MCs dead, no core left, …); the
/// checks are the same ones [`Simulator::set_faults`] and
/// [`CompilerBuilder::build`](locmap_core::CompilerBuilder::build) perform.
pub fn evaluate_resilience(
    workload: &Workload,
    exp: &Experiment,
    state: &FaultState,
) -> Result<ResilienceOutcome, LocmapError> {
    let retry = RetryPolicy::default();

    let clean = Compiler::builder(exp.platform.clone()).options(exp.opts).build().unwrap();
    let fault_free = run_arm(workload, exp, &clean, None, true, retry)?;

    let degraded = Compiler::builder(exp.platform.clone()).options(exp.opts).faults(state).build()?;
    let aware = run_arm(workload, exp, &degraded, Some(state), true, retry)?;
    let oblivious = run_arm(workload, exp, &degraded, Some(state), false, retry)?;

    Ok(ResilienceOutcome {
        name: workload.name.to_string(),
        dead: state.effective(&exp.platform.mc_coords).dead_counts(),
        fault_free,
        aware,
        oblivious,
    })
}

/// The online arm: a fault timeline unfolds *mid-run* and the self-healing
/// driver recovers, compared against an oracle that knew the final fault
/// state upfront and mapped around it from cycle 0.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Benchmark name.
    pub name: String,
    /// Absolute finish time of the healed online run (execution plus every
    /// backoff, remap and migration charge).
    pub online_cycles: u64,
    /// Finish time of the oracle arm: the degraded-aware mapping for the
    /// plan's final state, running under it from the start.
    pub oracle_cycles: u64,
    /// What recovery did during the online run (faults, retries, remaps,
    /// MTTR, overhead, degradation rung).
    pub resilience: ResilienceSummary,
}

impl OnlineOutcome {
    /// Online finish time as a multiple of the oracle's (1.0 = free
    /// recovery; the repo's acceptance bar is ≤ 2.0 on the standard
    /// degraded arms).
    pub fn overhead_ratio(&self) -> f64 {
        if self.oracle_cycles == 0 {
            return 0.0;
        }
        self.online_cycles as f64 / self.oracle_cycles as f64
    }
}

/// One cold pass of every nest under `compiler`'s location-aware mappings
/// on a machine already in `state` — the oracle the online arm is judged
/// against. Cold-for-cold with [`heal_run`], which also starts on a cold
/// machine.
fn oracle_arm(
    workload: &Workload,
    exp: &Experiment,
    state: &FaultState,
) -> Result<u64, LocmapError> {
    let program = &workload.program;
    let data = &workload.data;
    let compiler =
        Compiler::builder(exp.platform.clone()).options(exp.opts).faults(state).build()?;
    let mut sim = Simulator::builder(exp.platform.clone()).config(exp.sim).build().unwrap();
    sim.set_faults(state)?;
    let mut cycles = 0u64;
    for nid in nest_ids(program) {
        let m = compiler.map_nest(program, nid, data);
        cycles += sim.try_run_nest(program, &m, data)?.cycles;
    }
    Ok(cycles)
}

/// Runs the online-vs-oracle comparison for `workload` under `plan`.
///
/// The online arm executes with [`heal_run`] — faults arrive when the
/// timeline says so, and the resilience controller retries, quarantines
/// and remaps its way to completion. The oracle arm is given the plan's
/// `final_state()` at compile time and never pays a recovery cycle. The
/// gap between the two is the price of *not knowing the future*: MTTR and
/// recovery overhead, which the returned summary itemizes.
pub fn evaluate_online(
    workload: &Workload,
    exp: &Experiment,
    plan: &FaultPlan,
) -> Result<OnlineOutcome, HealError> {
    let final_state = plan.final_state();
    let oracle_cycles = oracle_arm(workload, exp, &final_state).map_err(HealError::Mapping)?;
    let healed = heal_run(workload, exp, plan, &HealConfig::default())?;
    Ok(OnlineOutcome {
        name: workload.name.to_string(),
        online_cycles: healed.result.cycles,
        oracle_cycles,
        resilience: healed.summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::LlcOrg;
    use locmap_noc::{FaultCounts, NodeId};
    use locmap_workloads::{build, Scale};

    #[test]
    fn dead_mc_scenario_aware_beats_oblivious_on_latency() {
        // The acceptance scenario: mxm, private LLC, one dead MC, seed 7.
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let state = FaultPlan::random(
            7,
            exp.platform.mesh,
            exp.platform.mc_coords.len(),
            FaultCounts { mcs: 1, ..FaultCounts::default() },
        )
        .final_state();
        let out = evaluate_resilience(&w, &exp, &state).unwrap();
        assert_eq!(out.dead.2, 1, "exactly one MC dead");
        assert!(out.fault_free.cycles > 0 && out.aware.cycles > 0 && out.oblivious.cycles > 0);
        assert!(
            out.aware_net_gain_pct() > 0.0,
            "aware ({:.2}) must beat oblivious ({:.2}) net latency",
            out.aware.latency,
            out.oblivious.latency
        );
    }

    #[test]
    fn clean_state_shows_no_degradation() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let state =
            FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len()).final_state();
        let out = evaluate_resilience(&w, &exp, &state).unwrap();
        assert_eq!(out.dead, (0, 0, 0, 0));
        assert_eq!(out.fault_free.cycles, out.aware.cycles);
        assert!((out.degradation_pct()).abs() < 1e-9);
    }

    #[test]
    fn dead_router_run_is_deterministic() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::SharedSNuca);
        let state = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len())
            .dead_router(NodeId(14))
            .final_state();
        let a = evaluate_resilience(&w, &exp, &state).unwrap();
        let b = evaluate_resilience(&w, &exp, &state).unwrap();
        assert_eq!(a.aware.cycles, b.aware.cycles);
        assert_eq!(a.oblivious.cycles, b.oblivious.cycles);
        assert_eq!(a.aware.latency, b.aware.latency);
    }

    #[test]
    fn irregular_workload_reports_retry_counters() {
        let w = build("moldyn", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::SharedSNuca);
        let state = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len())
            .dead_mc(0)
            .dead_bank(NodeId(8))
            .final_state();
        let out = evaluate_resilience(&w, &exp, &state).unwrap();
        assert!(out.aware.overhead_cycles > 0, "inspector must cost something");
        assert!(out.aware.retries <= RetryPolicy::default().max_retries);
        assert_eq!(out.oblivious.retries, 0);
    }

    /// The acceptance bar for the online arm: on the three standard
    /// degraded arms (dead MC, dead router, dead links), a fault arriving
    /// mid-run must be healed at a total cost of no more than 2× the
    /// oracle that knew the fault upfront — with the MTTR reported.
    #[test]
    fn online_recovery_within_2x_of_oracle_on_standard_arms() {
        use locmap_noc::{Direction, FaultComponent, FaultEvent, Link};
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let empty = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len());
        let mid = crate::heal::heal_run(&w, &exp, &empty, &Default::default())
            .unwrap()
            .result
            .cycles
            / 2;
        let mesh = exp.platform.mesh;
        let arms: Vec<(&str, Vec<FaultComponent>)> = vec![
            ("dead-mc", vec![FaultComponent::Mc(1)]),
            ("dead-router", vec![FaultComponent::Router(mesh.node_at(3, 3))]),
            (
                "dead-links",
                vec![
                    FaultComponent::Link(Link { from: mesh.node_at(2, 2), dir: Direction::East }),
                    FaultComponent::Link(Link { from: mesh.node_at(3, 1), dir: Direction::North }),
                ],
            ),
        ];
        for (name, components) in arms {
            let mut plan = FaultPlan::new(mesh, exp.platform.mc_coords.len());
            for c in components {
                plan.push(FaultEvent { component: c, inject_at: mid, repair_at: None }).unwrap();
            }
            let out = evaluate_online(&w, &exp, &plan).unwrap();
            assert!(out.online_cycles > 0 && out.oracle_cycles > 0);
            assert!(
                out.overhead_ratio() <= 2.0,
                "{name}: online {} vs oracle {} = {:.2}x exceeds the 2x bar",
                out.online_cycles,
                out.oracle_cycles,
                out.overhead_ratio()
            );
            if out.resilience.faults_seen > 0 {
                assert!(out.resilience.mttr_cycles > 0.0, "{name}: MTTR must be reported");
                assert!(out.resilience.recovery_overhead_cycles > 0, "{name}");
            }
        }
    }

    #[test]
    fn unsurvivable_state_is_a_typed_error() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let mcs = exp.platform.mc_coords.len();
        let mut plan = FaultPlan::new(exp.platform.mesh, mcs);
        for k in 0..mcs {
            plan = plan.dead_mc(k);
        }
        let state = plan.final_state();
        let err = evaluate_resilience(&w, &exp, &state);
        assert!(err.is_err());
    }
}
