//! The mapping-service activity: a closed loop of clients on a
//! shared-platform `MappingSession`, each calling `try_map_one` and then
//! verifying the answer. No simulation.

use crate::eval::{map_nest, record_counts, ReplayRuns};
use crate::probe::Probe;
use crate::stats::{floor, latency_sample, median, percentile, tail_percentile};
use crate::stream::{request_counts, request_order};
use crate::trace::Tracer;
use locmap_bench::Experiment;
use locmap_core::{LlcOrg, MapRequest, MappingSession, NestMapping, Priority, QualityLevel};
use locmap_loopir::NestId;
use locmap_noc::RunControl;
use locmap_verify::{VerifyConfig, VerifyMapping};
use locmap_workloads::{build, Scale, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What one mapping activity runs.
#[derive(Debug, Clone, Copy)]
pub struct MapSpec {
    /// LLC organization of the paper's 6×6 platform.
    pub llc: LlcOrg,
    /// Applications whose every nest is a kernel of the stream.
    pub apps: &'static [&'static str],
    /// Input scales; each application is built at each.
    pub scales: [f64; 2],
    /// Request count of the most popular kernel (see
    /// [`crate::stream::request_counts`]).
    pub hot: usize,
    /// Seed of the request order.
    pub seed: u64,
    /// Closed-loop clients (at most `nproc`).
    pub clients: usize,
}

/// Inputs built before timing starts.
#[derive(Debug)]
pub struct MapInputs {
    spec: MapSpec,
    exp: Experiment,
    workloads: Vec<Workload>,
    kernels: Vec<(usize, NestId)>,
    order: Vec<usize>,
    session: Option<MappingSession>,
}

impl MapInputs {
    /// Requests in one epoch.
    pub fn epoch_len(&self) -> usize {
        self.order.len()
    }
}

fn new_session(exp: &Experiment) -> MappingSession {
    MappingSession::builder(exp.platform.clone())
        .options(exp.opts)
        .threads(1)
        .build()
        .expect("the paper's platform builds a session")
}

/// Builds every kernel, the seeded request order and the first epoch's
/// session. Returns the inputs and the seconds spent building workloads.
pub fn setup(spec: MapSpec) -> (MapInputs, f64) {
    let t = Instant::now();
    let workloads: Vec<Workload> = spec
        .scales
        .iter()
        .flat_map(|&s| spec.apps.iter().map(move |a| build(a, Scale::new(s))))
        .collect();
    let build_s = t.elapsed().as_secs_f64();
    let mut kernels = Vec::new();
    let mut labels = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for nid in w.program.nest_ids() {
            kernels.push((wi, nid));
            labels.push(format!(
                "{}@{}#{}",
                w.name,
                spec.scales[wi / spec.apps.len()],
                nid.0
            ));
        }
    }
    let order = request_order(&request_counts(&labels, spec.hot), spec.seed);
    let exp = Experiment::paper_default(spec.llc);
    let session = Some(new_session(&exp));
    (
        MapInputs {
            spec,
            exp,
            workloads,
            kernels,
            order,
            session,
        },
        build_s,
    )
}

/// What the mapping activity measured.
#[derive(Debug, Default)]
pub struct MapReport {
    /// Verified mappings per host second of each untraced epoch.
    pub epoch_rate: Vec<f64>,
    /// Host seconds of each untraced epoch.
    pub epoch_s: Vec<f64>,
    /// Host seconds of the traced epoch.
    pub traced_epoch_s: Option<f64>,
    /// Per request of the epoch order, its fastest `try_map_one` latency
    /// (ms) over the untraced epochs; `+inf` once it failed or was refused
    /// in any of them.
    pub floors: Vec<f64>,
    /// The tail percentile reported as `map_tail_ms`.
    pub tail_pct: f64,
    /// Requests made (and replays, in the traced run).
    pub attempted: u64,
    /// Requests that failed, were refused, failed verification or
    /// disagreed with the first mapping served for their kernel.
    pub failed: u64,
    /// The first full-quality mapping served for each kernel in this run.
    first_served: Vec<Option<NestMapping>>,
}

impl MapReport {
    /// An empty report for `inputs`, reporting the tail at the highest
    /// percentile one epoch's requests support.
    pub fn new(inputs: &MapInputs) -> Self {
        MapReport {
            tail_pct: tail_percentile(inputs.epoch_len()).unwrap_or(50.0),
            floors: vec![f64::NAN; inputs.epoch_len()],
            first_served: vec![None; inputs.kernels.len()],
            ..MapReport::default()
        }
    }

    /// Verified mappings per host second of the fastest epoch. Every epoch
    /// sends the same requests to a fresh session, so epochs differ only
    /// by what else the host was running.
    pub fn map_per_s(&self) -> f64 {
        self.epoch_rate.iter().copied().fold(0.0, f64::max)
    }

    /// Median over the epoch's requests of their fastest latency (ms).
    pub fn p50_ms(&self) -> f64 {
        median(&self.floors)
    }

    /// Tail of the requests' fastest latencies (ms) at
    /// [`MapReport::tail_pct`].
    pub fn tail_ms(&self) -> f64 {
        percentile(&self.floors, self.tail_pct)
    }
}

/// One answered (or failed) request.
#[derive(Debug)]
struct Sample {
    idx: usize,
    kernel: usize,
    latency_ms: f64,
    admit_us: f64,
    answer: Option<(NestMapping, bool, QualityLevel)>,
    denies: usize,
}

/// Runs one epoch: the full request order on a fresh session. In the
/// traced run the first epoch is repeated with spans, and every kernel is
/// then replayed through the stage functions; the replay must equal what
/// the session served.
pub fn step(inputs: &mut MapInputs, rep: &mut MapReport, probe: &mut Probe) {
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(inputs.spec.clients);
    let epoch = rep.epoch_s.len();
    let session = inputs
        .session
        .take()
        .unwrap_or_else(|| new_session(&inputs.exp));
    let (wall, samples, _) = run_epoch(inputs, &session, clients, None);
    let ok = check_samples(&samples, rep, None);
    rep.epoch_s.push(wall);
    rep.epoch_rate.push(ok as f64 / wall);
    if probe.traced() && epoch == 0 {
        let session = new_session(&inputs.exp);
        let (wall, samples, tracers) =
            run_epoch(inputs, &session, clients, Some(probe.tracer_origin()));
        for t in tracers {
            probe.absorb(t);
        }
        check_samples(&samples, rep, Some(probe));
        rep.traced_epoch_s = Some(wall);
        let stats = session.cache_stats();
        probe.add("session.hits", stats.mappings.hits as f64);
        probe.add("session.misses", stats.mappings.misses as f64);
        probe.add("session.cme_hits", stats.cme.hits as f64);
        probe.add("session.cme_misses", stats.cme.misses as f64);
        replay_kernels(inputs, &session, probe, rep);
    }
}

fn run_epoch(
    inputs: &MapInputs,
    session: &MappingSession,
    clients: usize,
    traced: Option<Instant>,
) -> (f64, Vec<Sample>, Vec<Tracer>) {
    let next = AtomicUsize::new(0);
    let verify = VerifyConfig::default();
    let ctl = RunControl::unlimited();
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, verify, ctl) = (&next, &verify, &ctl);
                s.spawn(move || {
                    let origin = traced.unwrap_or(start);
                    let mut tr = Tracer::new(traced.is_some(), origin, c as u32 + 1);
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= inputs.order.len() {
                            break;
                        }
                        let kernel = inputs.order[idx];
                        let (wi, nid) = inputs.kernels[kernel];
                        let w = &inputs.workloads[wi];
                        let req = MapRequest {
                            program: &w.program,
                            nest: nid,
                            data: &w.data,
                        };
                        tr.set_request(idx as u64);
                        let t0 = Instant::now();
                        let mut admit_us = 0.0;
                        let served = if tr.enabled() {
                            tr.span("map.request", |tr| {
                                let ticket = tr.span("core.admission.admit", |_| {
                                    session.try_admit(Priority::Normal)
                                });
                                admit_us = t0.elapsed().as_secs_f64() * 1e6;
                                let ticket = ticket?;
                                tr.span("core.session.serve", |_| session.serve(&ticket, &req, ctl))
                            })
                        } else {
                            session.try_map_one(&req, Priority::Normal, ctl)
                        };
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        let (answer, denies) = match served {
                            Ok(sm) => {
                                let sink = tr.span("verify", |_| {
                                    session.compiler().verify_mapping(
                                        &w.program,
                                        nid,
                                        &w.data,
                                        &sm.response.mapping,
                                        verify,
                                    )
                                });
                                (
                                    Some((sm.response.mapping, sm.response.cache_hit, sm.quality)),
                                    sink.deny_count(),
                                )
                            }
                            Err(e) => {
                                eprintln!("error: request {idx} refused: {e}");
                                (None, 0)
                            }
                        };
                        out.push(Sample {
                            idx,
                            kernel,
                            latency_ms,
                            admit_us,
                            answer,
                            denies,
                        });
                    }
                    (out, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::with_capacity(inputs.order.len());
    let mut tracers = Vec::new();
    for (s, t) in per_client {
        samples.extend(s);
        tracers.push(t);
    }
    samples.sort_by_key(|s| s.idx);
    (wall, samples, tracers)
}

/// Checks every answer, folds the untraced latencies into the floors, and
/// returns how many requests got a verified answer. A full-quality answer must equal the first
/// mapping served for its kernel (in this run, across epochs).
fn check_samples(samples: &[Sample], rep: &mut MapReport, mut probe: Option<&mut Probe>) -> u64 {
    let mut ok_count = 0;
    for s in samples {
        rep.attempted += 1;
        let ok = match &s.answer {
            None => false,
            Some((mapping, hit, quality)) => {
                let full = *quality == QualityLevel::Full;
                let same = match (&rep.first_served[s.kernel], full) {
                    (_, false) => true,
                    (None, true) => {
                        rep.first_served[s.kernel] = Some(mapping.clone());
                        true
                    }
                    (Some(first), true) => first == mapping,
                };
                if !same {
                    eprintln!(
                        "error: request {} differs from the first mapping served",
                        s.idx
                    );
                }
                if let Some(p) = probe.as_deref_mut() {
                    if !full {
                        p.add("core.admission.non_full", 1.0);
                    }
                    p.add("verify.denies", s.denies as f64);
                    p.sample("core.admission.admit_us", s.admit_us);
                    if *hit {
                        p.sample("core.session.hit_us", s.latency_ms * 1e3);
                    } else {
                        p.sample("core.session.miss_ms", s.latency_ms);
                    }
                }
                if s.denies > 0 {
                    eprintln!(
                        "error: request {} failed verification ({} deny)",
                        s.idx, s.denies
                    );
                }
                same && s.denies == 0
            }
        };
        if ok {
            ok_count += 1;
        } else {
            rep.failed += 1;
        }
        if probe.is_none() {
            let f = &mut rep.floors[s.idx];
            *f = floor(*f, latency_sample(s.latency_ms, ok));
        }
    }
    ok_count
}

/// Replays every kernel through the stage functions with the session's
/// compiler; each replay must equal the mapping the session served.
fn replay_kernels(
    inputs: &MapInputs,
    session: &MappingSession,
    probe: &mut Probe,
    rep: &mut MapReport,
) {
    let mut runs = ReplayRuns::default();
    for (k, &(wi, nid)) in inputs.kernels.iter().enumerate() {
        let w = &inputs.workloads[wi];
        probe.tracer.set_request(k as u64);
        let m = probe.tracer.span("map.replay", |tr| {
            map_nest(session.compiler(), &w.program, nid, &w.data, tr, &mut runs)
        });
        rep.attempted += 1;
        if rep.first_served[k].as_ref() != Some(&m) {
            eprintln!(
                "error: replay of {}#{} differs from the served mapping",
                w.name, nid.0
            );
            rep.failed += 1;
        }
    }
    record_counts(probe, &runs);
}
