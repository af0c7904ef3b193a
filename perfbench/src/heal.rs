//! The healing activity: `evaluate_online` — a healed run against an
//! oracle that knew the faults — over seeded fault timelines.

use crate::probe::Probe;
use crate::stats::{fastest, mean};
use crate::stream::derive_seed;
use crate::trace::Tracer;
use locmap_bench::heal::{heal_run, HealConfig};
use locmap_bench::resilience::{evaluate_online, OnlineOutcome};
use locmap_bench::Experiment;
use locmap_core::{Compiler, LlcOrg};
use locmap_noc::{FaultCounts, FaultPlan, LocmapError};
use locmap_sim::{RunResult, Simulator};
use locmap_workloads::{build, Scale, Workload};
use std::time::Instant;

/// Applications healed: a butterfly code (fft) and a stencil (swim), the
/// two of the mix whose healed runs are short enough to repeat.
const APPS: [&str; 2] = ["fft", "swim"];

/// The repository's bar for healing: a healed run finishes within this
/// multiple of the oracle when faults persist.
const ORACLE_BAR: f64 = 2.0;

/// Consecutive plans that cover each application with each timeline once.
const BLOCK: usize = 2 * APPS.len();

/// What one healing activity runs.
#[derive(Debug, Clone, Copy)]
pub struct HealSpec {
    /// LLC organization of the paper's 6×6 platform.
    pub llc: LlcOrg,
    /// Input scale of both applications.
    pub scale: f64,
    /// Seed of the fault plans.
    pub seed: u64,
    /// Distinct fault plans, a multiple of [`BLOCK`]: they alternate the
    /// application and, every two plans, transient and persistent
    /// timelines.
    pub plans: usize,
}

/// One seeded fault plan.
#[derive(Debug)]
struct Case {
    app: usize,
    transient: bool,
    plan: FaultPlan,
}

/// Inputs built before timing starts.
#[derive(Debug)]
pub struct HealInputs {
    exp: Experiment,
    apps: Vec<Workload>,
    cases: Vec<Case>,
}

/// Builds both applications and the seeded plans. Each timeline spans the
/// application's fault-free healed run, as `locmap heal` sizes it, so
/// faults land mid-execution. Returns the inputs and the seconds spent
/// building workloads.
pub fn setup(spec: HealSpec) -> Result<(HealInputs, f64), String> {
    if spec.plans == 0 || !spec.plans.is_multiple_of(BLOCK) {
        return Err(format!("plans must be a positive multiple of {BLOCK}"));
    }
    let t = Instant::now();
    let apps: Vec<Workload> = APPS
        .iter()
        .map(|a| build(a, Scale::new(spec.scale)))
        .collect();
    let build_s = t.elapsed().as_secs_f64();
    let exp = Experiment::paper_default(spec.llc);
    let mesh = exp.platform.mesh;
    let mcs = exp.platform.mc_coords.len();
    let mut horizons = Vec::new();
    for w in &apps {
        let clean = heal_run(w, &exp, &FaultPlan::new(mesh, mcs), &HealConfig::default())
            .map_err(|e| format!("fault-free healed run of {}: {e}", w.name))?;
        horizons.push(clean.result.cycles);
    }
    let counts = FaultCounts {
        links: 1,
        routers: 1,
        mcs: 0,
        banks: 0,
    };
    let mut cases = Vec::with_capacity(spec.plans);
    for i in 0..spec.plans {
        let app = i % APPS.len();
        let transient = (i / APPS.len()).is_multiple_of(2);
        // A draw that cuts a router off at some point of the timeline is
        // drawn again: the repository defines a partitioned mesh as
        // unsurvivable, so no healer could finish it.
        let plan = (0u64..)
            .map(|k| {
                let seed = derive_seed(spec.seed, (k << 32) | i as u64);
                FaultPlan::random_timed(seed, mesh, mcs, counts, horizons[app], transient)
            })
            .find(stays_connected)
            .expect("some draw leaves the mesh connected");
        plan.validate()
            .map_err(|e| format!("fault plan {i}: {e}"))?;
        cases.push(Case {
            app,
            transient,
            plan,
        });
    }
    Ok((HealInputs { exp, apps, cases }, build_s))
}

/// Whether every state of `plan`'s timeline leaves each alive router able
/// to reach every other over surviving links.
fn stays_connected(plan: &FaultPlan) -> bool {
    plan.change_cycles()
        .into_iter()
        .all(|c| plan.state_at(c).check_connected(false).is_ok())
}

/// What the healing activity measured.
#[derive(Debug, Default)]
pub struct HealReport {
    /// Host seconds of each untraced `evaluate_online` call, per plan.
    pub plan_s: Vec<Vec<f64>>,
    /// Untraced `evaluate_online` calls made; the next call heals plan
    /// `calls % plans`.
    pub calls: u64,
    /// Healed / oracle cycles of each distinct plan.
    pub ratios: Vec<f64>,
    /// Host seconds of the untraced first round.
    pub first_round_s: f64,
    /// Host seconds of the traced replay of the first round.
    pub traced_round_s: f64,
    /// Calls made (and replays, in the traced run).
    pub attempted: u64,
    /// Calls that errored, missed the oracle bar, or did not repeat.
    pub failed: u64,
    /// The first outcome of each plan.
    first: Vec<Option<OnlineOutcome>>,
}

impl HealReport {
    /// Complete rounds over the plans.
    pub fn rounds(&self) -> usize {
        match self.plan_s.len() {
            0 => 0,
            n => self.calls as usize / n,
        }
    }

    /// Host seconds per call: the mean over the plans of each plan's
    /// fastest call. A median over plans would sit between the fft and the
    /// swim calls and jump from one group to the other.
    pub fn heal_s(&self) -> f64 {
        mean(&self.plan_s.iter().map(|v| fastest(v)).collect::<Vec<_>>())
    }

    /// Mean healed / oracle cycles over the distinct plans.
    pub fn overhead_ratio(&self) -> f64 {
        mean(&self.ratios)
    }
}

fn same(a: &OnlineOutcome, b: &OnlineOutcome) -> bool {
    a.online_cycles == b.online_cycles
        && a.oracle_cycles == b.oracle_cycles
        && format!("{:?}", a.resilience) == format!("{:?}", b.resilience)
}

/// Heals the next plan, cycling through the plans; repeats must reproduce
/// the first outcome. In the traced run the first round over the plans is
/// replayed with spans: the oracle arm through the public compiler and
/// simulator calls, the healed arm as one `heal_run` call.
pub fn step(inputs: &HealInputs, rep: &mut HealReport, probe: &mut Probe) {
    let n = inputs.cases.len();
    if rep.first.is_empty() {
        rep.first = vec![None; n];
        rep.plan_s = vec![Vec::new(); n];
    }
    let i = rep.calls as usize % n;
    let case = &inputs.cases[i];
    let w = &inputs.apps[case.app];
    let t = Instant::now();
    let res = evaluate_online(w, &inputs.exp, &case.plan);
    let dt = t.elapsed().as_secs_f64();
    let first = rep.first[i].is_none();
    rep.plan_s[i].push(dt);
    rep.calls += 1;
    rep.attempted += 1;
    let ok = match &res {
        Err(e) => {
            eprintln!("error: healed run {i} of {}: {e}", w.name);
            false
        }
        Ok(o) => {
            let within = case.transient || o.overhead_ratio() <= ORACLE_BAR;
            if !within {
                eprintln!(
                    "error: plan {i} of {} healed at {:.3}x the oracle",
                    w.name,
                    o.overhead_ratio()
                );
            }
            let repeats = rep.first[i].as_ref().is_none_or(|f| same(f, o));
            if !repeats {
                eprintln!("error: plan {i} of {} did not repeat", w.name);
            }
            within && repeats
        }
    };
    if !ok {
        rep.failed += 1;
    }
    if !first || rep.calls as usize > n {
        return;
    }
    rep.first_round_s += dt;
    let Ok(o) = res else { return };
    rep.ratios.push(o.overhead_ratio());
    if probe.traced() {
        rep.attempted += 1;
        let t = Instant::now();
        probe.tracer.set_request(i as u64);
        let (replayed, oracle_runs, links) = probe
            .tracer
            .span("heal.call", |tr| replay(w, &inputs.exp, &case.plan, tr));
        rep.traced_round_s += t.elapsed().as_secs_f64();
        match replayed {
            Ok(r) if same(&r, &o) => {
                let s = &r.resilience;
                probe.add("heal.calls", 1.0);
                probe.add("heal.retries", f64::from(s.transient_retries));
                probe.add("heal.remaps", f64::from(s.remaps));
                probe.add("heal.mttr_sum", s.mttr_cycles);
                probe.add("heal.migration_cycles", s.migration_cost_cycles as f64);
                for run in &oracle_runs {
                    probe.add_run(run);
                }
                probe.add("noc.link_busy", links.0);
                probe.add("noc.link_cycles", links.1 as f64);
            }
            _ => {
                eprintln!("error: traced replay of plan {i} differs from evaluate_online");
                rep.failed += 1;
            }
        }
    }
    rep.first[i] = Some(o);
}

/// `evaluate_online` rebuilt from public calls: the oracle arm (a
/// fault-aware compiler and a simulator already in the plan's final state,
/// one cold pass) and the healed arm (`heal_run`). Returns the outcome, the
/// oracle's simulator results, and its link occupancy.
fn replay(
    w: &Workload,
    exp: &Experiment,
    plan: &FaultPlan,
    tr: &mut Tracer,
) -> (Result<OnlineOutcome, String>, Vec<RunResult>, (f64, u64)) {
    let mut runs = Vec::new();
    let mut links = (0.0, 0);
    let oracle = tr.span("heal.oracle", |tr| -> Result<u64, LocmapError> {
        let state = plan.final_state();
        let compiler = Compiler::builder(exp.platform.clone())
            .options(exp.opts)
            .faults(&state)
            .build()?;
        let mut sim = Simulator::builder(exp.platform.clone())
            .config(exp.sim)
            .build()?;
        sim.set_faults(&state)?;
        let mut cycles = 0;
        for nid in w.program.nest_ids() {
            let m = tr.span("core.compiler.map_nest", |_| {
                compiler.map_nest(&w.program, nid, &w.data)
            });
            let r = tr.span("sim.run_nest", |_| {
                sim.try_run_nest(&w.program, &m, &w.data)
            })?;
            cycles += r.cycles;
            runs.push(r);
        }
        links = (sim.net_util().1, cycles);
        Ok(cycles)
    });
    let healed = tr.span("heal.run", |_| {
        heal_run(w, exp, plan, &HealConfig::default())
    });
    let out = match (oracle, healed) {
        (Ok(oracle_cycles), Ok(h)) => Ok(OnlineOutcome {
            name: w.name.to_string(),
            online_cycles: h.result.cycles,
            oracle_cycles,
            resilience: h.summary,
        }),
        (Err(e), _) => Err(e.to_string()),
        (_, Err(e)) => Err(e.to_string()),
    };
    (out, runs, links)
}
