//! `perfbench` — end-to-end and per-layer benchmark of the CRAS
//! reproduction.
//!
//! ```text
//! perfbench --workload <catalog_storm|cold_rebuild|net_fanout>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats the named workload, built from the seed, until
//! `--seconds` have passed (at least three times). Each repetition sets
//! the system up, drives it through the public APIs of `cras-cluster`
//! and `cras-sys`, and checks its outputs. Host timings are medians
//! over repetitions, and the end-to-end ones are scaled by a host-speed
//! reference loop timed between repetitions (see `reference`);
//! simulated results repeat exactly and are digested. A repetition
//! that panics is a broken check.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! traced and untraced repetitions and prints the per-layer metrics.
//! The last stdout line is the result object; the line before it is a
//! report with every metric, the tails' percentiles and the digest.
//! See `README.md` for the workloads and metrics.

mod catalog_storm;
mod cold_rebuild;
mod common;
mod net_fanout;
mod reference;
mod replay;
mod report;
mod stats;
mod trace;

use std::any::Any;
use std::fs;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant as HostInstant;

use cras_sim::json::Json;

use common::Outcome;
use report::{HostTimes, Metric, Metrics, SimResult, Traced};
use stats::median;
use trace::Tracer;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CatalogStorm,
    ColdRebuild,
    NetFanout,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CatalogStorm,
        Workload::ColdRebuild,
        Workload::NetFanout,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::CatalogStorm => "catalog_storm",
            Workload::ColdRebuild => "cold_rebuild",
            Workload::NetFanout => "net_fanout",
        }
    }

    fn run(self, seed: u64, tr: &mut Tracer) -> Outcome {
        match self {
            Workload::CatalogStorm => {
                catalog_storm::run(&catalog_storm::Params::standard(), seed, tr)
            }
            Workload::ColdRebuild => cold_rebuild::run(&cold_rebuild::Params::standard(), seed, tr),
            Workload::NetFanout => net_fanout::run(&net_fanout::Params::standard(), seed, tr),
        }
    }
}

/// End-to-end metrics the result line carries (`BENCHMARK.json`'s
/// `end_to_end`), with their units: those that are never zero and stay
/// steady across seeds on every workload. The report line carries these
/// and the rest — shares that can read zero, sim latencies that barely
/// move or swing with the seed, and the workload-specific metrics.
const GATED: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ns_per_frame", "ns"),
    ("peak_rss_mb", "MB"),
    ("admitted_share", "ratio"),
];

/// Repetitions a run makes however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Reference passes timed before each repetition. One pass lasts tens of
/// ms, so a passing stall moves it by a fifth; three per repetition keep
/// the median of the reference steadier than the repetitions it scales.
const REFERENCE_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == val)
                        .ok_or(format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds {val}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traced runs leave their span dumps.
fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// The message a panic carried.
fn panic_message(e: &(dyn Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "(no message)".into())
}

/// The metrics the result line must carry, every value unmeasured
/// (`null`): what a run prints when no repetition finished.
fn unmeasured(trace: bool) -> Metrics {
    let names: Vec<(&'static str, &'static str)> = if trace {
        let none = SimResult::default();
        report::per_layer(&none, &[], &[], &[])
            .into_iter()
            .map(|(k, m)| (k, m.unit))
            .collect()
    } else {
        GATED.to_vec()
    };
    names
        .into_iter()
        .map(|(k, unit)| {
            (
                k,
                Metric {
                    value: f64::NAN,
                    unit,
                },
            )
        })
        .collect()
}

fn write_spans(w: Workload, seed: u64, o: &Outcome) {
    let dir = out_dir().join("traces");
    let path = dir.join(format!("{}-{seed}.tsv", w.name()));
    let write = || -> std::io::Result<()> {
        fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(fs::File::create(&path)?);
        trace::write_tsv(&o.spans, &mut f)?;
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <catalog_storm|cold_rebuild|net_fanout> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let started = HostInstant::now();
    let mut all: Vec<HostTimes> = Vec::new();
    let mut untraced: Vec<HostTimes> = Vec::new();
    let mut traced_runs: Vec<Traced> = Vec::new();
    let mut reference_s: Vec<f64> = Vec::new();
    let mut sim: Option<SimResult> = None;
    let mut broken: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut last_traced: Option<Outcome> = None;
    let min_reps = if args.trace { MIN_REPS + 1 } else { MIN_REPS };
    while all.len() < min_reps || started.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..REFERENCE_PASSES {
            reference_s.push(reference::pass_s());
        }
        // Traced runs alternate with untraced ones, so drift in the host
        // hits both sides of the overhead ratio alike.
        let traced = args.trace && all.len() % 2 == 1;
        let mut tr = Tracer::new(traced);
        let mut o = match catch_unwind(AssertUnwindSafe(|| w.run(args.seed, &mut tr))) {
            Ok(o) => o,
            Err(e) => {
                // The simulation is deterministic: every further
                // repetition of this seed would panic the same way.
                broken.push(format!(
                    "repetition {} panicked: {}",
                    all.len(),
                    panic_message(e.as_ref())
                ));
                attempted += 1;
                failed += 1;
                break;
            }
        };
        let r = report::sim_result(&mut o);
        let host = report::host_times(&o, r.frames);
        attempted += r.requested;
        failed += r.broken_sessions;
        broken.append(&mut o.broken);
        if o.viewers.unaccounted > 0 {
            broken.push(format!(
                "{} finished viewers' shown + dropped + late frames miss the title's frames",
                o.viewers.unaccounted
            ));
        }
        match &sim {
            None => sim = Some(r),
            Some(first) if first.digest != r.digest => broken.push(format!(
                "repetition {} digest {:016x} differs from the first {:016x}",
                all.len(),
                r.digest,
                first.digest
            )),
            Some(_) => {}
        }
        all.push(host);
        if traced {
            traced_runs.push(report::traced(&o));
            last_traced = Some(o);
        } else {
            untraced.push(host);
        }
    }
    // A check broken in every repetition is reported once.
    broken.sort();
    broken.dedup();
    if sim.as_ref().is_some_and(|s| s.frames == 0) {
        broken.push("no frame was shown".into());
    }
    if let Some(o) = &last_traced {
        write_spans(w, args.seed, o);
    }
    let reference_s = median(&mut reference_s);
    let scale = reference::NOMINAL_S / reference_s;

    let mut report_line = vec![
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Str(args.seed.to_string())),
        ("repetitions", Json::Num(all.len() as f64)),
        ("reference_s", Json::Num(reference_s)),
        ("host_scale", Json::Num(scale)),
    ];
    let shown = match &sim {
        Some(sim) => {
            let e2e = report::end_to_end(&untraced, &all, sim, peak_rss_mb(), scale);
            // The same host times as measured, before scaling.
            let unscaled = report::end_to_end(&untraced, &all, sim, f64::NAN, 1.0)
                .into_iter()
                .filter(|(k, _)| ["setup_s", "run_s", "ns_per_frame"].contains(k))
                .collect();
            let layers = args
                .trace
                .then(|| report::per_layer(sim, &traced_runs, &untraced, &all));
            let tails = sim.tails.iter().map(|(k, t)| {
                let at = [("pct", Json::Num(t.pct)), ("n", Json::Num(t.n as f64))];
                (*k, report::obj(at))
            });
            report_line.extend([
                ("digest", Json::Str(format!("{:016x}", sim.digest))),
                ("end_to_end", report::metrics_json(&e2e)),
                ("unscaled", report::metrics_json(&unscaled)),
                ("tails", report::obj(tails)),
                (
                    "per_layer",
                    layers.as_ref().map_or(Json::Null, report::metrics_json),
                ),
            ]);
            match layers {
                Some(l) => l,
                None => e2e
                    .into_iter()
                    .filter(|(k, _)| GATED.iter().any(|(g, _)| g == k))
                    .collect(),
            }
        }
        None => unmeasured(args.trace),
    };
    report_line.push((
        "broken",
        Json::Arr(broken.iter().cloned().map(Json::Str).collect()),
    ));
    println!("{}", report::one_line(&report::obj(report_line)));
    let result = report::obj([
        ("correct", Json::Bool(broken.is_empty())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", report::metrics_json(&shown)),
    ]);
    println!("{}", report::one_line(&result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
