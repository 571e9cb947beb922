//! `cras-bench` — the regeneration harness.
//!
//! One binary per evaluation artifact (`cargo run -p cras-bench --release
//! --bin fig6` etc.); each prints the paper-style rows/series and writes
//! JSON under `results/`. Micro-benchmarks live in `benches/` on the
//! in-tree [`timer`] harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod timer;

use std::fs;
use std::path::Path;

/// Writes a JSON artifact under `results/`, creating the directory.
///
/// # Panics
///
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_result(name: &str, json: &str) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json).expect("write result file");
    eprintln!("wrote {}", path.display());
}

/// Returns true when `--quick` was passed (reduced sweeps for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Returns true when `--check` was passed (compare against committed
/// baselines instead of rewriting them).
pub fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Returns true when `--strict` was passed alongside `--check`: drift
/// past tolerance should exit nonzero instead of merely warning. CI
/// stays warn-only; `--strict` is for local pre-merge runs and
/// trajectory tooling that wants a hard signal.
pub fn strict_mode() -> bool {
    std::env::args().any(|a| a == "--strict")
}

/// Writes a perf-trajectory artifact: `BENCH_<name>.json` at the repo
/// root, where trajectory tooling looks. The payload is wrapped as
/// `{"quick":…,"data":…}` so a `--check` run can refuse to compare
/// across sweep modes.
///
/// # Panics
///
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_bench(name: &str, json: &str, quick: bool) {
    let wrapped = format!("{{\"quick\":{quick},\"data\":{json}}}");
    let file = format!("BENCH_{name}.json");
    fs::write(&file, &wrapped).expect("write BENCH artifact");
    eprintln!("wrote {file}");
}

/// Pulls every numeric token out of a JSON string, in order. Good
/// enough for baseline comparison of our hand-rolled artifacts (no
/// serde dependency): the emitters are deterministic, so two runs of
/// the same code produce tokens in the same order.
fn numeric_tokens(json: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() || (c == '-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) {
            let start = i;
            i += 1;
            while i < bytes.len()
                && matches!(bytes[i] as char, '0'..='9' | '.' | 'e' | 'E' | '-' | '+')
            {
                i += 1;
            }
            if let Ok(v) = json[start..i].parse() {
                out.push(v);
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Comparison of a freshly generated artifact against the committed
/// `BENCH_<name>.json` baseline: numeric tokens are compared pairwise
/// and the worst relative drift is reported. Warn-only by default — CI
/// machines are too noisy for a hard gate; the check exists so a
/// regression shows up in the log the day it lands. Returns `false`
/// when the comparison found drift past tolerance or a shape change,
/// so `--strict` callers (see [`strict_mode`]) can turn the warning
/// into a nonzero exit; an absent baseline or a sweep-mode mismatch
/// returns `true` (nothing to compare against is not a regression).
pub fn check_bench(name: &str, json_now: &str, quick: bool) -> bool {
    const TOLERANCE: f64 = 0.20;
    let file = format!("BENCH_{name}.json");
    let baseline = match fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            println!("WARN: {name}: no committed {file} to check against ({e})");
            return true;
        }
    };
    let mode = format!("{{\"quick\":{quick},");
    if !baseline.starts_with(&mode) {
        println!("WARN: {name}: baseline was generated in a different sweep mode; skipping");
        return true;
    }
    let data = &baseline[mode.len()..];
    let base = numeric_tokens(data);
    let now = numeric_tokens(json_now);
    if base.len() != now.len() {
        println!(
            "WARN: {name}: artifact shape changed ({} numeric fields vs baseline {})",
            now.len(),
            base.len()
        );
        return false;
    }
    let worst = base
        .iter()
        .zip(&now)
        .map(|(b, n)| (n - b).abs() / b.abs().max(1e-9))
        .fold(0.0f64, f64::max);
    if worst > TOLERANCE {
        println!(
            "WARN: {name}: worst field drift {:+.0}% — outside +/-{:.0}%",
            worst * 100.0,
            TOLERANCE * 100.0
        );
        false
    } else {
        println!("OK:   {name}: worst field drift {:+.1}%", worst * 100.0);
        true
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_defaults_off() {
        assert!(!super::quick_mode());
    }
}
