//! The environment recorded with every result, so that runs on a busy or
//! different machine can be told apart.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The environment as one JSON object: `nproc`, rustc version, git
/// revision and dirty flag of the source tree (`null` outside a git
/// checkout), CPU model and the load average when the run started.
pub fn environment_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    // Only the tree the benchmark was built from counts: git would
    // otherwise report an enclosing repository.
    let rev = std::path::Path::new(root)
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", root, "rev-parse", "HEAD"]))
        .flatten();
    let dirty = rev
        .as_ref()
        .and_then(|_| command_line("git", &["-C", root, "status", "--porcelain"]))
        .map(|s| !s.is_empty());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"git_rev\":{},\"git_dirty\":{},\"cpu\":{},\"loadavg\":{}}}",
        json_str(&rustc),
        rev.as_deref().map_or("null".into(), json_str),
        dirty.map_or("null".into(), |d| d.to_string()),
        json_str(&cpu),
        json_str(&load)
    )
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
