//! What the traced run collects: spans plus counts read from the results
//! the program already returns (`RunResult`, `NetworkStats`,
//! `SessionStats`, the heal summary), and the per-layer metrics built
//! from them.

use crate::stats::median;
use crate::trace::{self_time_by_name, Span, Tracer};
use locmap_sim::RunResult;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric: name, unit, and which direction is better. The
/// README's layer table says which end-to-end metric each should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.build_s", "s", "lower"),
    ("loopir.enumerate_ms", "ms", "lower"),
    ("loopir.iterations", "count", "lower"),
    ("cme.estimate_ms", "ms", "lower"),
    ("cme.calls", "count", "lower"),
    ("core.affinity.mai_ms", "ms", "lower"),
    ("core.affinity.cai_ms", "ms", "lower"),
    ("core.assign.ms", "ms", "lower"),
    ("core.assign.eta_evals", "count", "lower"),
    ("core.balance.ms", "ms", "lower"),
    ("core.balance.moved_frac", "ratio", "lower"),
    ("core.placement.ms", "ms", "lower"),
    ("core.default_mapping.ms", "ms", "lower"),
    ("core.inspector.ms", "ms", "lower"),
    ("core.inspector.overhead_cycles", "cycles", "lower"),
    ("core.session.hit_rate", "ratio", "higher"),
    ("core.session.cme_hit_rate", "ratio", "higher"),
    ("core.session.hit_us", "us", "lower"),
    ("core.session.miss_ms", "ms", "lower"),
    ("core.admission.admit_us", "us", "lower"),
    ("core.admission.non_full", "count", "lower"),
    ("verify.ms", "ms", "lower"),
    ("verify.denies", "count", "lower"),
    ("sim.run_ms", "ms", "lower"),
    ("sim.calls", "count", "lower"),
    ("sim.ns_per_access", "ns", "lower"),
    ("sim.ns_per_message", "ns", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("mem.l1.accesses", "count", "lower"),
    ("mem.l1.hit_rate", "ratio", "higher"),
    ("mem.llc.accesses", "count", "lower"),
    ("mem.llc.hit_rate", "ratio", "higher"),
    ("mem.directory.invalidations", "count", "lower"),
    ("mem.dram.requests", "count", "lower"),
    ("mem.dram.row_hit_rate", "ratio", "higher"),
    ("mem.dram.avg_cycles", "cycles", "lower"),
    ("noc.messages", "count", "lower"),
    ("noc.avg_hops", "hops", "lower"),
    ("noc.avg_latency", "cycles", "lower"),
    ("noc.avg_queue", "cycles", "lower"),
    ("noc.link_util", "ratio", "lower"),
    ("heal.run_ms", "ms", "lower"),
    ("heal.oracle_ms", "ms", "lower"),
    ("heal.retries", "count", "lower"),
    ("heal.remaps", "count", "lower"),
    ("heal.mttr_cycles", "cycles", "lower"),
    ("heal.migration_cycles", "cycles", "lower"),
    ("eval.mxm_s", "s", "lower"),
    ("eval.fft_s", "s", "lower"),
    ("eval.swim_s", "s", "lower"),
    ("eval.barnes_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Spans and counters of one run. With tracing off the recorder is
/// disabled and the activities skip their replays, so nothing is counted.
#[derive(Debug)]
pub struct Probe {
    /// The main thread's span recorder.
    pub tracer: Tracer,
    origin: Instant,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe {
    /// A probe recording spans when `traced`.
    pub fn new(traced: bool, origin: Instant) -> Self {
        Probe {
            tracer: Tracer::new(traced, origin, 0),
            origin,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// The instant span timestamps count from.
    pub fn tracer_origin(&self) -> Instant {
        self.origin
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    /// Records one sample of `key` (reported as the median).
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Counts the simulated work of one run.
    pub fn add_run(&mut self, r: &RunResult) {
        self.add("sim.cycles", r.cycles as f64);
        self.add("l1.hits", r.l1.hits as f64);
        self.add("l1.misses", r.l1.misses as f64);
        self.add("llc.hits", r.l2.hits as f64);
        self.add("llc.misses", r.l2.misses as f64);
        self.add("mem.directory.invalidations", r.invalidations as f64);
        self.add("dram.requests", r.dram.requests as f64);
        self.add("dram.row_hits", r.dram.row_hits as f64);
        self.add("dram.latency", r.dram.total_latency as f64);
        self.add("noc.messages", r.network.messages as f64);
        self.add("noc.hops", r.network.total_hops as f64);
        self.add("noc.latency", r.network.total_latency as f64);
        self.add("noc.queue", r.network.total_queue_cycles as f64);
    }

    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.count(den);
        if d == 0.0 {
            0.0
        } else {
            self.count(num) / d
        }
    }

    fn median_of(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| median(v))
    }

    /// Merges a client thread's recorder.
    pub fn absorb(&mut self, t: Tracer) {
        self.tracer.absorb(t);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        self.tracer.spans()
    }

    /// The per-layer metrics, in [`PER_LAYER`] order. Layers the workload
    /// does not reach read 0.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let by = self_time_by_name(self.spans());
        let self_ms = |name: &str| by.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6);
        let calls = |name: &str| by.get(name).map_or(0.0, |&(_, n)| n as f64);
        let inclusive_ms = |name: &str| {
            self.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .sum::<u64>() as f64
                / 1e6
        };
        let sim_ns = self_ms("sim.run_nest") * 1e6;
        let l1 = self.count("l1.hits") + self.count("l1.misses");
        let llc = self.count("llc.hits") + self.count("llc.misses");
        let per = |den: f64| if den == 0.0 { 0.0 } else { sim_ns / den };
        let hit_rate = |h: &str, m: &str| {
            let t = self.count(h) + self.count(m);
            if t == 0.0 {
                0.0
            } else {
                self.count(h) / t
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = match name {
                    "workloads.build_s" => self.median_of(name),
                    "loopir.enumerate_ms" => self_ms("loopir.enumerate"),
                    "cme.estimate_ms" => self_ms("cme.estimate"),
                    "cme.calls" => calls("cme.estimate"),
                    "core.affinity.mai_ms" => self_ms("core.affinity.mai"),
                    "core.affinity.cai_ms" => self_ms("core.affinity.cai"),
                    "core.assign.ms" => self_ms("core.assign"),
                    "core.balance.ms" => self_ms("core.balance"),
                    "core.balance.moved_frac" => self.ratio("balance.moved", "balance.total"),
                    "core.placement.ms" => self_ms("core.placement"),
                    "core.default_mapping.ms" => self_ms("core.default_mapping"),
                    "core.inspector.ms" => self_ms("core.inspector"),
                    "core.session.hit_rate" => hit_rate("session.hits", "session.misses"),
                    "core.session.cme_hit_rate" => {
                        hit_rate("session.cme_hits", "session.cme_misses")
                    }
                    "core.session.hit_us" | "core.session.miss_ms" | "core.admission.admit_us" => {
                        self.median_of(name)
                    }
                    "verify.ms" => self_ms("verify"),
                    "sim.run_ms" => self_ms("sim.run_nest"),
                    "sim.calls" => calls("sim.run_nest"),
                    "sim.ns_per_access" => per(l1),
                    "sim.ns_per_message" => per(self.count("noc.messages")),
                    "mem.l1.accesses" => l1,
                    "mem.l1.hit_rate" => hit_rate("l1.hits", "l1.misses"),
                    "mem.llc.accesses" => llc,
                    "mem.llc.hit_rate" => hit_rate("llc.hits", "llc.misses"),
                    "mem.dram.requests" => self.count("dram.requests"),
                    "mem.dram.row_hit_rate" => self.ratio("dram.row_hits", "dram.requests"),
                    "mem.dram.avg_cycles" => self.ratio("dram.latency", "dram.requests"),
                    "noc.avg_hops" => self.ratio("noc.hops", "noc.messages"),
                    "noc.avg_latency" => self.ratio("noc.latency", "noc.messages"),
                    "noc.avg_queue" => self.ratio("noc.queue", "noc.messages"),
                    "noc.link_util" => self.ratio("noc.link_busy", "noc.link_cycles"),
                    "heal.run_ms" => self_ms("heal.run"),
                    "heal.oracle_ms" => inclusive_ms("heal.oracle"),
                    "heal.mttr_cycles" => self.ratio("heal.mttr_sum", "heal.calls"),
                    "eval.mxm_s" | "eval.fft_s" | "eval.swim_s" | "eval.barnes_s" => {
                        self.median_of(name)
                    }
                    _ => self.count(name),
                };
                (name, unit, v)
            })
            .collect()
    }
}
