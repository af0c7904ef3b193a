//! The evaluation activity: the paper's `evaluate(LocationAware)` over a
//! fixed application mix, and its traced replay through the public
//! per-stage calls.

use crate::digest::{check_digest, outcome_digest, outcome_fields, runs_digest};
use crate::probe::Probe;
use crate::stats::{fastest, mean};
use crate::trace::Tracer;
use locmap_bench::{evaluate, AppOutcome, Experiment, Scheme};
use locmap_core::{
    assign_private, assign_shared, balance_regions, compute_cai, compute_cai_reaching, compute_mai,
    mean_eta, place_in_regions, AffinityInputs, AffinityVec, AllMissModel, AlphaPolicy,
    BalanceReport, CmeModel, Compiler, HitModel, Inspector, InspectorCostModel, LlcOrg,
    NestMapping, SharedObjective,
};
use locmap_loopir::{DataEnv, IterationSpace, LoopNest, NestId, Program, RefKind};
use locmap_noc::RegionId;
use locmap_sim::{RunResult, Simulator};
use locmap_workloads::{build, Scale, Workload};
use std::time::Instant;

/// The paper's application mix: dense (mxm), FFT butterflies (fft), a
/// stencil (swim) and an irregular N-body code (barnes) that needs the
/// inspector.
pub const MIX: [&str; 4] = ["mxm", "fft", "swim", "barnes"];

/// What one evaluation activity runs.
#[derive(Debug, Clone, Copy)]
pub struct EvalSpec {
    /// LLC organization of the paper's 6×6 platform.
    pub llc: LlcOrg,
    /// Input scale of every application in the mix.
    pub scale: f64,
}

/// Inputs built before timing starts.
#[derive(Debug)]
pub struct EvalInputs {
    spec: EvalSpec,
    exp: Experiment,
    apps: Vec<Workload>,
}

/// Builds the mix and the experiment (platform, simulator and mapping
/// options). Returns the inputs and the seconds spent building workloads.
pub fn setup(spec: EvalSpec) -> (EvalInputs, f64) {
    let t = Instant::now();
    let apps = MIX
        .iter()
        .map(|n| build(n, Scale::new(spec.scale)))
        .collect();
    let build_s = t.elapsed().as_secs_f64();
    (
        EvalInputs {
            spec,
            exp: Experiment::paper_default(spec.llc),
            apps,
        },
        build_s,
    )
}

/// What the evaluation activity measured.
#[derive(Debug, Default)]
pub struct EvalReport {
    /// Host seconds of each untraced `evaluate` call, per application of
    /// the mix.
    pub app_s: Vec<Vec<f64>>,
    /// `evaluate` calls made; the next call evaluates application
    /// `evals % MIX.len()`.
    pub evals: usize,
    /// Host seconds of the first untraced pass over the mix.
    pub first_pass_s: f64,
    /// Host seconds of the traced replay of the first pass.
    pub traced_pass_s: f64,
    /// Outcomes of the first pass, in mix order.
    pub outcomes: Vec<AppOutcome>,
    /// Evaluations made (and replays, in the traced run).
    pub attempted: u64,
    /// Evaluations whose outputs were wrong.
    pub failed: u64,
}

impl EvalReport {
    /// Complete passes over the mix.
    pub fn passes(&self) -> usize {
        self.evals / MIX.len()
    }

    /// Host seconds per pass: the sum over the mix of each application's
    /// fastest `evaluate`. Interference from other tenants of the host only
    /// ever adds time, so the fastest of a run's calls is its steadiest
    /// estimate of the call's own cost.
    pub fn eval_s(&self) -> f64 {
        self.app_s.iter().map(|v| fastest(v)).sum()
    }

    /// Mean simulated execution-time gain of LA over the default mapping.
    pub fn exec_gain_pct(&self) -> f64 {
        mean(
            &self
                .outcomes
                .iter()
                .map(AppOutcome::exec_improvement_pct)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean simulated on-chip network latency reduction.
    pub fn net_gain_pct(&self) -> f64 {
        mean(
            &self
                .outcomes
                .iter()
                .map(AppOutcome::net_reduction_pct)
                .collect::<Vec<_>>(),
        )
    }
}

fn key(spec: EvalSpec, app: &str) -> String {
    let llc = match spec.llc {
        LlcOrg::Private => "private",
        LlcOrg::SharedSNuca => "shared",
    };
    format!("eval/{llc}/{}/{app}", spec.scale)
}

/// Evaluates the next application of the mix. Every outcome must match
/// the recorded digest and the application's first outcome. In the traced
/// run the first evaluation of each application is followed by a traced
/// replay that must reproduce it exactly; per-layer figures therefore
/// describe one pass whatever the run length.
pub fn step(inputs: &EvalInputs, rep: &mut EvalReport, probe: &mut Probe) {
    if rep.app_s.is_empty() {
        rep.app_s = vec![Vec::new(); inputs.apps.len()];
    }
    let i = rep.evals % inputs.apps.len();
    let first = rep.evals < inputs.apps.len();
    let w = &inputs.apps[i];
    let t = Instant::now();
    let out = evaluate(w, &inputs.exp, Scheme::LocationAware);
    let dt = t.elapsed().as_secs_f64();
    rep.evals += 1;
    rep.app_s[i].push(dt);
    rep.attempted += 1;
    let k = key(inputs.spec, w.name);
    let mut ok = check_digest(&k, outcome_digest(&out));
    if !first {
        ok &= same_outcome(&out, &rep.outcomes[i]);
    }
    if probe.traced() {
        probe.sample(app_metric(w.name), dt);
    }
    if first {
        rep.first_pass_s += dt;
    }
    if probe.traced() && first {
        rep.attempted += 1;
        probe.tracer.set_request(i as u64);
        let t = Instant::now();
        let (replayed, runs) = probe
            .tracer
            .span("eval.app", |tr| replay(w, &inputs.exp, tr));
        rep.traced_pass_s += t.elapsed().as_secs_f64();
        let same = same_outcome(&replayed, &out)
            && check_digest(&format!("{k}/counts"), runs_digest(&runs.results));
        if !same {
            eprintln!("error: traced replay of {k} differs from evaluate");
            rep.failed += 1;
        }
        record_counts(probe, &runs);
    }
    if !ok {
        eprintln!(
            "error: {k} (call {}) differs from the recorded outputs",
            rep.evals
        );
        rep.failed += 1;
    }
    if first {
        rep.outcomes.push(out);
    }
}

fn app_metric(app: &str) -> &'static str {
    match app {
        "mxm" => "eval.mxm_s",
        "fft" => "eval.fft_s",
        "swim" => "eval.swim_s",
        _ => "eval.barnes_s",
    }
}

/// Bitwise equality of two outcomes (floats compared by bit pattern).
fn same_outcome(a: &AppOutcome, b: &AppOutcome) -> bool {
    a.name == b.name && outcome_fields(a) == outcome_fields(b)
}

/// Counts gathered while replaying one application.
#[derive(Debug, Default)]
pub struct ReplayRuns {
    /// Every simulator run, in the order `evaluate` makes them.
    pub results: Vec<RunResult>,
    iterations: u64,
    eta_evals: u64,
    moved: u64,
    sets: u64,
    inspector_cycles: u64,
    link_busy: f64,
    link_cycles: u64,
}

pub(crate) fn record_counts(probe: &mut Probe, runs: &ReplayRuns) {
    for r in &runs.results {
        probe.add_run(r);
    }
    probe.add("loopir.iterations", runs.iterations as f64);
    probe.add("core.assign.eta_evals", runs.eta_evals as f64);
    probe.add("balance.moved", runs.moved as f64);
    probe.add("balance.total", runs.sets as f64);
    probe.add(
        "core.inspector.overhead_cycles",
        runs.inspector_cycles as f64,
    );
    probe.add("noc.link_busy", runs.link_busy);
    probe.add("noc.link_cycles", runs.link_cycles as f64);
}

fn pass_traced(
    tr: &mut Tracer,
    sim: &mut Simulator,
    program: &Program,
    mappings: &[&NestMapping],
    data: &DataEnv,
    runs: &mut ReplayRuns,
) -> (u64, Vec<RunResult>) {
    let mut cycles = 0;
    let mut results = Vec::with_capacity(mappings.len());
    for m in mappings {
        let r = tr.span("sim.run_nest", |_| sim.run_nest(program, m, data));
        runs.results.push(r.clone());
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

fn close_sim(sim: &Simulator, cycles: u64, runs: &mut ReplayRuns) {
    runs.link_busy += sim.net_util().1;
    runs.link_cycles += cycles;
}

/// `evaluate(workload, exp, LocationAware)` rebuilt from the public calls
/// it makes, in the same order, each inside a span. Returns the outcome
/// (which must equal `evaluate`'s) and every simulator result.
pub fn replay(w: &Workload, exp: &Experiment, tr: &mut Tracer) -> (AppOutcome, ReplayRuns) {
    let mut runs = ReplayRuns::default();
    let program = &w.program;
    let data = &w.data;
    let timing = u64::from(w.timing_iters.max(1));
    let compiler = Compiler::builder(exp.platform.clone())
        .options(exp.opts)
        .build()
        .expect("the paper's platform builds a compiler");
    let nests: Vec<NestId> = program.nest_ids().collect();
    let defaults: Vec<NestMapping> = nests
        .iter()
        .map(|&n| {
            tr.span("core.default_mapping", |_| {
                compiler.default_mapping(program, n)
            })
        })
        .collect();
    let default_refs: Vec<&NestMapping> = defaults.iter().collect();
    let new_sim = || {
        Simulator::builder(exp.platform.clone())
            .config(exp.sim)
            .build()
            .expect("the paper's platform builds a simulator")
    };

    // Baseline: cold + warm passes under the default mapping.
    let mut base_sim = new_sim();
    let (base_cold, base_cold_res) =
        pass_traced(tr, &mut base_sim, program, &default_refs, data, &mut runs);
    let (base_warm, base_warm_res) = if timing > 1 {
        pass_traced(tr, &mut base_sim, program, &default_refs, data, &mut runs)
    } else {
        (base_cold, base_cold_res.clone())
    };
    close_sim(
        &base_sim,
        base_cold + if timing > 1 { base_warm } else { 0 },
        &mut runs,
    );
    let base_cycles = base_cold + (timing - 1) * base_warm;
    let base_latency = warm_latency(&base_warm_res);

    // Plan: compile-time mapping without index-array contents, then the
    // inspector for nests that need it, profiled on the baseline's cold pass.
    let inspector = Inspector::new(&compiler, InspectorCostModel::default());
    let compile_time_view = DataEnv::new();
    let mut overhead = 0;
    let mut mappings = Vec::with_capacity(nests.len());
    for &nid in &nests {
        let m = tr.span("core.map_nest", |tr| {
            map_nest(&compiler, program, nid, &compile_time_view, tr, &mut runs)
        });
        let m = if m.needs_inspector {
            let rep = tr.span("core.inspector", |_| {
                inspector.run(program, nid, data, &base_cold_res[nid.0 as usize].measured)
            });
            overhead += rep.overhead_cycles;
            runs.inspector_cycles += rep.overhead_cycles;
            rep.mapping
        } else {
            m
        };
        mappings.push(m);
    }

    let mut opt_sim = new_sim();
    let uses_inspector = nests.iter().any(|&nid| program.nest(nid).is_irregular());
    let pass1: Vec<&NestMapping> = nests
        .iter()
        .map(|&nid| {
            let i = nid.0 as usize;
            if program.nest(nid).is_irregular() {
                &defaults[i]
            } else {
                &mappings[i]
            }
        })
        .collect();
    let plan_refs: Vec<&NestMapping> = mappings.iter().collect();
    let (opt_cold, _) = pass_traced(tr, &mut opt_sim, program, &pass1, data, &mut runs);
    let rewarm = if uses_inspector && timing > 1 {
        Some(pass_traced(
            tr,
            &mut opt_sim,
            program,
            &plan_refs,
            data,
            &mut runs,
        ))
    } else {
        None
    };
    let mut opt_sim_cycles = opt_cold + rewarm.as_ref().map_or(0, |r| r.0);
    let (opt_warm, opt_warm_res) = if timing > 1 {
        let (c, r) = pass_traced(tr, &mut opt_sim, program, &plan_refs, data, &mut runs);
        opt_sim_cycles += c;
        (c, r)
    } else {
        let mut sim = new_sim();
        let (c, r) = pass_traced(tr, &mut sim, program, &plan_refs, data, &mut runs);
        close_sim(&sim, c, &mut runs);
        (c, r)
    };
    close_sim(&opt_sim, opt_sim_cycles, &mut runs);
    let opt_cycles = if timing > 1 {
        match &rewarm {
            Some((rewarm_cycles, _)) => {
                opt_cold + rewarm_cycles + timing.saturating_sub(2) * opt_warm + overhead
            }
            None => opt_cold + (timing - 1) * opt_warm + overhead,
        }
    } else {
        opt_warm + overhead
    };
    let opt_latency = warm_latency(&opt_warm_res);

    // Estimation error (predicted vs observed affinity) and balancing.
    let (mut mai_err, mut cai_err, mut err_nests, mut moved, mut total) = (0.0, 0.0, 0usize, 0, 0);
    for (i, m) in mappings.iter().enumerate() {
        moved += m.balance.moved;
        total += m.balance.total;
        if m.mai.is_empty() {
            continue;
        }
        let obs = &opt_warm_res[i];
        let norm = |v: &[AffinityVec]| v.iter().map(|x| x.clone().normalized()).collect::<Vec<_>>();
        let (pred_mai, obs_mai) = (norm(&m.mai), norm(&obs.observed_mai));
        if pred_mai.len() == obs_mai.len() {
            mai_err += mean_eta(&pred_mai, &obs_mai);
            if !m.cai.is_empty() {
                cai_err += mean_eta(&norm(&m.cai), &norm(&obs.observed_cai));
            }
            err_nests += 1;
        }
    }
    let avg = |s: f64| {
        if err_nests == 0 {
            0.0
        } else {
            s / err_nests as f64
        }
    };
    let out = AppOutcome {
        name: w.name.to_string(),
        base_cycles,
        opt_cycles,
        base_latency,
        opt_latency,
        overhead_cycles: overhead,
        mai_error: avg(mai_err),
        cai_error: avg(cai_err),
        frac_moved: if total == 0 {
            0.0
        } else {
            moved as f64 / total as f64
        },
    };
    (out, runs)
}

/// Whether every reference of `nest` resolves at compile time given
/// `data` (affine, or indirect through an installed index array).
fn resolvable(nest: &LoopNest, data: &DataEnv) -> bool {
    !nest.is_irregular()
        || nest.refs.iter().all(|r| match &r.kind {
            RefKind::Affine(_) => true,
            RefKind::Indirect { index_array, .. } => data.has(*index_array),
        })
}

/// `Compiler::map_nest` on a fault-free compiler, stage by stage: CME
/// estimate, enumeration, MAI, CAI (shared LLC), η assignment, balancing
/// and placement, each in its own span.
pub fn map_nest(
    compiler: &Compiler,
    program: &Program,
    nid: NestId,
    data: &DataEnv,
    tr: &mut Tracer,
    runs: &mut ReplayRuns,
) -> NestMapping {
    let opts = compiler.options();
    let platform = compiler.platform();
    let estimate = if opts.use_cme && resolvable(program.nest(nid), data) {
        tr.span("cme.estimate", |_| {
            compiler.estimate_nest(program, nid, data)
        })
    } else {
        None
    };
    let nest = program.nest(nid);
    let space = tr.span("loopir.enumerate", |_| {
        IterationSpace::enumerate(nest, &program.params())
    });
    runs.iterations += space.len() as u64;
    let sets = space.split_by_fraction(opts.iteration_set_fraction);
    if !resolvable(nest, data) {
        let m = compiler.round_robin_schedule(nid, &sets);
        return NestMapping {
            needs_inspector: true,
            ..m
        };
    }
    let cme_model;
    let model: &dyn HitModel = match estimate {
        Some(e) => {
            cme_model = CmeModel::new(e);
            &cme_model
        }
        None => &AllMissModel,
    };
    let inputs = AffinityInputs {
        program,
        nest,
        space: &space,
        sets: &sets,
        data,
        sample_stride: opts.analysis_sample_stride,
    };
    let mai = tr.span("core.affinity.mai", |_| {
        compute_mai(&inputs, platform, model)
    });
    let mai_n: Vec<AffinityVec> = mai.iter().map(|v| v.clone().normalized()).collect();
    let nregions = platform.regions.region_count() as u64;
    let (cai, cai_n, alphas, mut regions) = match platform.llc {
        LlcOrg::Private => {
            let regions = tr.span("core.assign", |_| {
                assign_private(&mai_n, compiler.mac(), opts.eta)
            });
            runs.eta_evals += sets.len() as u64 * nregions;
            (Vec::new(), Vec::new(), Vec::new(), regions)
        }
        LlcOrg::SharedSNuca => {
            let cai = tr.span("core.affinity.cai", |_| match opts.shared_objective {
                SharedObjective::BankDistance => compute_cai_reaching(&inputs, platform, model),
                SharedObjective::PaperAlphaBlend => compute_cai(&inputs, platform, model),
            });
            let cai_n: Vec<AffinityVec> = cai.iter().map(|v| v.clone().normalized()).collect();
            let nrefs = nest.refs.len();
            let alphas: Vec<f64> = sets
                .iter()
                .map(|s| match (opts.shared_objective, opts.alpha) {
                    (SharedObjective::BankDistance, AlphaPolicy::FromHits) => 1.0,
                    (_, AlphaPolicy::FromHits) => model.alpha(s.id, nrefs),
                    (_, AlphaPolicy::Fixed(a)) => a,
                })
                .collect();
            let regions = tr.span("core.assign", |_| {
                assign_shared(
                    &mai_n,
                    &cai_n,
                    compiler.mac(),
                    compiler.cac(),
                    &alphas,
                    opts.eta,
                )
            });
            runs.eta_evals += 2 * sets.len() as u64 * nregions;
            (cai, cai_n, alphas, regions)
        }
    };
    let balance = if opts.balance {
        let cost = |s: usize, r: RegionId| -> f64 {
            let eta_m = mai_n[s].eta_with(compiler.mac().of(r), opts.eta);
            match platform.llc {
                LlcOrg::Private => eta_m,
                LlcOrg::SharedSNuca => {
                    let eta_c = cai_n[s].eta_with(compiler.cac().of(r), opts.eta);
                    alphas[s] * eta_c + (1.0 - alphas[s]) * eta_m
                }
            }
        };
        tr.span("core.balance", |_| {
            balance_regions(&mut regions, &platform.regions, &cost)
        })
    } else {
        BalanceReport {
            moved: 0,
            total: sets.len(),
        }
    };
    runs.moved += balance.moved as u64;
    runs.sets += balance.total as u64;
    let assignment = tr.span("core.placement", |_| {
        place_in_regions(&regions, &platform.regions, opts.placement)
    });
    NestMapping {
        nest: nid,
        sets,
        regions,
        assignment,
        balance,
        needs_inspector: false,
        mai,
        cai,
        alphas,
    }
}
