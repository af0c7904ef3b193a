//! The locmap benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval-private --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Every workload mixes the benchmark's three operations — an evaluation
//! of the paper's application mix, a mapping epoch served by a
//! `MappingSession`, and a healed run under a fault timeline. Each workload
//! spends 40 % of its window on one of them (its focus) and 30 % on each of
//! the other two, so every end-to-end metric is measured on every workload.
//! Host times are the fastest of repeats of the same work (see
//! `perfbench/README.md`, with the workloads, metrics and layer table).
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`).

mod digest;
mod envinfo;
mod eval;
mod heal;
mod map;
mod probe;
mod stats;
mod stream;
mod trace;

use eval::{EvalInputs, EvalReport, EvalSpec, MIX};
use heal::{HealInputs, HealReport, HealSpec};
use locmap_core::LlcOrg;
use map::{MapInputs, MapReport, MapSpec};
use probe::Probe;
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed of the inputs that must read the same on every run: the mapping
/// request order, and the heal plans of workloads whose focus is not
/// healing.
const FIXED_SEED: u64 = 0x6c6f_636d_6170;

/// Set-up is repeated this many times and its median reported: once
/// before the window, for the inputs, and then during it.
const SETUP_REPS: usize = 9;

/// Request count of the most popular kernel in a mapping epoch.
const HOT: usize = 40;

/// Rounds of every operation run however short the window: passes over
/// the mix, mapping epochs, rounds over the heal plans. The timings take
/// the fastest of several repeats of the same work, so each needs two.
const MIN_ROUNDS: usize = 2;

/// Share of the window's host time the focus gets; the other two
/// operations split the rest.
const FOCUS_SHARE: f64 = 0.4;

/// The benchmark's three operations; a workload spends most of its window
/// on one, its focus.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Eval,
    Map,
    Heal,
}

const OPS: [Op; 3] = [Op::Eval, Op::Map, Op::Heal];

/// A workload: its focus and the specs of all three operations.
#[derive(Debug)]
struct Workload {
    focus: Op,
    eval: EvalSpec,
    map: MapSpec,
    heal: HealSpec,
}

const WORKLOADS: [&str; 2] = ["eval-private", "heal-online"];

/// The end-to-end metrics, in output order: name and unit.
const END_TO_END: [(&str, &str); 10] = [
    ("eval_s", "s"),
    ("la_exec_gain_pct", "%"),
    ("la_net_gain_pct", "%"),
    ("map_per_s", "1/s"),
    ("map_p50_ms", "ms"),
    ("map_tail_ms", "ms"),
    ("heal_s", "s"),
    ("heal_overhead_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

fn workload(name: &str, seed: u64) -> Option<Workload> {
    let (focus, llc) = match name {
        "eval-private" => (Op::Eval, LlcOrg::Private),
        "heal-online" => (Op::Heal, LlcOrg::SharedSNuca),
        _ => return None,
    };
    Some(Workload {
        focus,
        eval: EvalSpec { llc, scale: 0.1 },
        map: MapSpec {
            llc,
            apps: &MIX,
            scales: [0.25, 0.5],
            hot: HOT,
            // A fixed order: orders drawn from other seeds request the same
            // multiset but moved the peak resident memory by up to 25 %.
            seed: FIXED_SEED,
            // One client: its latencies are then the mappings, not the
            // timing-dependent waits of a second client on an in-flight
            // duplicate.
            clients: 1,
        },
        heal: HealSpec {
            llc,
            scale: 0.25,
            seed: if focus == Op::Heal { seed } else { FIXED_SEED },
            plans: if focus == Op::Heal { 12 } else { 4 },
        },
    })
}

/// Everything built before timing starts.
#[derive(Debug)]
struct Inputs {
    eval: EvalInputs,
    map: MapInputs,
    heal: HealInputs,
}

/// The three operations' reports.
struct Reports {
    eval: EvalReport,
    map: MapReport,
    heal: HealReport,
}

impl Reports {
    /// Runs one unit of `op`: an application's evaluation, a mapping epoch
    /// or a healed run.
    fn step(&mut self, op: Op, inputs: &mut Inputs, probe: &mut Probe) {
        match op {
            Op::Eval => eval::step(&inputs.eval, &mut self.eval, probe),
            Op::Map => map::step(&mut inputs.map, &mut self.map, probe),
            Op::Heal => heal::step(&inputs.heal, &mut self.heal, probe),
        }
    }

    /// Complete rounds of `op` so far.
    fn rounds(&self, op: Op) -> usize {
        match op {
            Op::Eval => self.eval.passes(),
            Op::Map => self.map.epoch_s.len(),
            Op::Heal => self.heal.rounds(),
        }
    }
}

fn setup(w: &Workload) -> Result<(Inputs, f64), String> {
    let (eval, b1) = eval::setup(w.eval);
    let (map, b2) = map::setup(w.map);
    let (heal, b3) = heal::setup(w.heal)?;
    Ok((Inputs { eval, map, heal }, b1 + b2 + b3))
}

/// Sets up once, recording its host seconds in `setup_s`.
fn timed_setup(w: &Workload, setup_s: &mut Vec<f64>, probe: &mut Probe) -> Option<Inputs> {
    let t = Instant::now();
    match setup(w) {
        Ok((inputs, build_s)) => {
            setup_s.push(t.elapsed().as_secs_f64());
            probe.sample("workloads.build_s", build_s);
            Some(inputs)
        }
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            None
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{key} needs a value"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} must be a non-negative integer"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// Formats a metric value as a JSON number (infinite values, which only a
/// failed request can produce, read as the largest double).
fn json_num(v: f64) -> String {
    let v = if v.is_nan() {
        0.0
    } else {
        v.clamp(f64::MIN, f64::MAX)
    };
    format!("{v}")
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(*v)
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn pct_over(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        100.0 * (traced - untraced) / untraced
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: locmap-perfbench --workload {} --seed N --seconds S --trace 0|1", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {:?}; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let env = envinfo::environment_json();
    let origin = Instant::now();
    let mut probe = Probe::new(args.trace, origin);

    let mut setup_s = Vec::new();
    let Some(mut inputs) = timed_setup(&w, &mut setup_s, &mut probe) else {
        return ExitCode::FAILURE;
    };

    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let mut reps = Reports {
        eval: EvalReport::default(),
        map: MapReport::new(&inputs.map),
        heal: HealReport::default(),
    };
    // Units of the three operations interleave over the whole window, each
    // operation getting its share of host time, so that every metric sees
    // the same machine rather than one slice of it.
    let share = |op: Op| {
        if op == w.focus {
            FOCUS_SHARE
        } else {
            (1.0 - FOCUS_SHARE) / 2.0
        }
    };
    let mut busy = [0.0f64; 3];
    loop {
        // The other set-ups are timed at even steps through the window, so
        // their median sees the same machine as the other metrics.
        let setups = setup_s.len();
        if setups < SETUP_REPS
            && start.elapsed() >= window.mul_f64(setups as f64 / SETUP_REPS as f64)
        {
            if timed_setup(&w, &mut setup_s, &mut probe).is_none() {
                return ExitCode::FAILURE;
            }
            continue;
        }
        let short = (0..OPS.len()).find(|&k| reps.rounds(OPS[k]) < MIN_ROUNDS);
        let k = if start.elapsed() < window {
            (0..OPS.len())
                .min_by(|&a, &b| (busy[a] / share(OPS[a])).total_cmp(&(busy[b] / share(OPS[b]))))
                .expect("three operations")
        } else if let Some(k) = short {
            k
        } else {
            break;
        };
        let t = Instant::now();
        reps.step(OPS[k], &mut inputs, &mut probe);
        busy[k] += t.elapsed().as_secs_f64();
    }
    let Reports {
        eval: ev,
        map: mp,
        heal: hl,
    } = reps;
    let attempted = ev.attempted + mp.attempted + hl.attempted;
    let failed = ev.failed + mp.failed + hl.failed;

    println!("env {env}");
    println!(
        "map_tail_ms is p{} over the fastest latency of each of the epoch's {} requests; evaluation passes {}, mapping epochs {}, healed runs {}",
        mp.tail_pct,
        inputs.map.epoch_len(),
        ev.passes(),
        mp.epoch_s.len(),
        hl.calls
    );
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let overhead = match w.focus {
            Op::Eval => pct_over(ev.traced_pass_s, ev.first_pass_s),
            Op::Map => pct_over(mp.traced_epoch_s.expect("traced epoch ran"), mp.epoch_s[0]),
            Op::Heal => pct_over(hl.traced_round_s, hl.first_round_s),
        };
        probe.add("trace.overhead_pct", overhead);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let meta = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"env\":{env}}}",
            args.workload, args.seed, args.seconds
        );
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, trace::chrome_json(probe.spans(), &meta)));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        probe.per_layer()
    } else {
        let values = [
            ev.eval_s(),
            ev.exec_gain_pct(),
            ev.net_gain_pct(),
            mp.map_per_s(),
            mp.p50_ms(),
            mp.tail_ms(),
            hl.heal_s(),
            hl.overhead_ratio(),
            median(&setup_s),
            envinfo::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let names: Vec<&str> = json
            .match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &json[i + m.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect();
        let metrics: Vec<(&str, &str)> = END_TO_END
            .iter()
            .copied()
            .chain(probe::PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .collect();
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(metrics.iter().map(|&(n, _)| n))
            .collect();
        assert_eq!(names, expected);
        for (name, unit) in metrics {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} must have unit {unit}");
        }
        for w in WORKLOADS {
            assert!(workload(w, 1).is_some());
        }
    }
}
