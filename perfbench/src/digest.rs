//! Digests of simulated outputs, recorded with the benchmark.
//!
//! Simulated values are deterministic: a change that only makes the
//! program faster must leave every one of them bit-identical. Each
//! evaluation's outcome, and in the traced run every simulator result the
//! replay produced, is hashed and compared against the digests below; a
//! mismatch counts as a failed operation. A change that alters the model on
//! purpose records new digests (run with `--trace 1`; mismatches print the
//! new value).

use crate::stream::{fnv1a, FNV_OFFSET};
use locmap_bench::AppOutcome;
use locmap_sim::RunResult;

/// `(key, digest)` for every evaluation the benchmark runs.
const RECORDED: &[(&str, u64)] = &[
    ("eval/private/0.1/barnes", 0x8c1deeec4868c974),
    ("eval/private/0.1/barnes/counts", 0xb983b728c6686f30),
    ("eval/private/0.1/fft", 0x9c0398a44ab19e19),
    ("eval/private/0.1/fft/counts", 0x33252c1b8d62f9e8),
    ("eval/private/0.1/mxm", 0xd0040f0bc54c55ac),
    ("eval/private/0.1/mxm/counts", 0x79ac4982dd7f4efb),
    ("eval/private/0.1/swim", 0x41ef565192252145),
    ("eval/private/0.1/swim/counts", 0x30777c12ea00e0ea),
    ("eval/shared/0.1/barnes", 0x864db0da839832ec),
    ("eval/shared/0.1/barnes/counts", 0x2edc6132056d83ff),
    ("eval/shared/0.1/fft", 0x63c953e1baecbc56),
    ("eval/shared/0.1/fft/counts", 0x33bc1346ea517f44),
    ("eval/shared/0.1/mxm", 0xabf738eec6cccbe9),
    ("eval/shared/0.1/mxm/counts", 0x334db531e4fb8b44),
    ("eval/shared/0.1/swim", 0x31f1c0c3f3182dc2),
    ("eval/shared/0.1/swim/counts", 0xc54fb2787ead81e7),
];

fn mix(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

/// Every numeric field of an outcome, floats by bit pattern.
pub fn outcome_fields(o: &AppOutcome) -> [u64; 8] {
    [
        o.base_cycles,
        o.opt_cycles,
        o.base_latency.to_bits(),
        o.opt_latency.to_bits(),
        o.overhead_cycles,
        o.mai_error.to_bits(),
        o.cai_error.to_bits(),
        o.frac_moved.to_bits(),
    ]
}

/// Digest of an outcome's name and fields.
pub fn outcome_digest(o: &AppOutcome) -> u64 {
    outcome_fields(o)
        .into_iter()
        .fold(fnv1a(FNV_OFFSET, o.name.as_bytes()), mix)
}

/// Digest of the simulated counts of a sequence of runs.
pub fn runs_digest(runs: &[RunResult]) -> u64 {
    let mut h = FNV_OFFSET;
    for r in runs {
        let n = &r.network;
        for v in [
            r.cycles,
            n.messages,
            n.total_latency,
            n.total_hops,
            n.total_queue_cycles,
            n.total_flits,
            n.max_latency,
            r.l1.hits,
            r.l1.misses,
            r.l1.writebacks,
            r.l2.hits,
            r.l2.misses,
            r.l2.writebacks,
            r.dram.requests,
            r.dram.row_hits,
            r.dram.row_empty,
            r.dram.row_conflicts,
            r.dram.total_latency,
            r.invalidations,
        ] {
            h = mix(h, v);
        }
    }
    h
}

/// Whether `digest` matches the one recorded for `key`; prints the
/// mismatch (with the value to record) to stderr otherwise.
pub fn check_digest(key: &str, digest: u64) -> bool {
    match RECORDED.iter().find(|(k, _)| *k == key) {
        Some(&(_, want)) if want == digest => true,
        Some(&(_, want)) => {
            eprintln!("digest mismatch: {key} is {digest:#018x}, recorded {want:#018x}");
            false
        }
        None => {
            eprintln!("digest missing: (\"{key}\", {digest:#018x}),");
            false
        }
    }
}
