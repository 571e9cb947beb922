//! Turns runs into metrics: the simulated results of one run (which
//! repeat exactly for a seed, and are digested), the host timings over
//! all runs (medians), and the per-layer numbers of the traced runs.

use std::collections::BTreeMap;

use cras_sim::json::Json;

use crate::common::Outcome;
use crate::replay;
use crate::stats::{median, tail, tail_of, Fnv, Tail};
use crate::trace::{durations, name, self_times};

/// One metric: value and unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Named metrics in name order.
pub type Metrics = BTreeMap<&'static str, Metric>;

fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str) {
    m.insert(name, Metric { value, unit });
}

/// The simulated results of one run: end-to-end sim metrics, the tails'
/// percentiles and sample counts, and the deterministic layer counts.
#[derive(Default)]
pub struct SimResult {
    /// Sim end-to-end metrics.
    pub metrics: Metrics,
    /// `(metric, tail)` for each tail metric.
    pub tails: Vec<(&'static str, Tail)>,
    /// Deterministic per-layer counts.
    pub counts: BTreeMap<&'static str, f64>,
    /// Digest of everything above plus the per-shard canonical metrics.
    pub digest: u64,
    /// Frames shown to viewers.
    pub frames: u64,
    /// Viewers requested.
    pub requested: u64,
    /// Viewer sessions that really failed: lost after admission, or
    /// finished with frames unaccounted for. Refusals by design are not
    /// among them.
    pub broken_sessions: u64,
}

fn share(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Reduces one run to its simulated results.
pub fn sim_result(o: &mut Outcome) -> SimResult {
    let v = &mut o.viewers;
    let mut m = Metrics::new();
    put(
        &mut m,
        "admitted_share",
        share(v.admitted, v.requested),
        "ratio",
    );
    put(
        &mut m,
        "failed_share",
        share(v.failed, v.requested),
        "ratio",
    );
    put(
        &mut m,
        "frame_miss_share",
        share(v.dropped + v.late, v.due()),
        "ratio",
    );
    let startup_tail = tail(&v.startup_ms);
    put(&mut m, "startup_p50_ms", median(&mut v.startup_ms), "ms");
    put(&mut m, "startup_tail_ms", startup_tail.value, "ms");
    put(
        &mut m,
        "frame_delay_tail_ms",
        o.frame_delay_tail.value,
        "ms",
    );
    let span_tail = tail(&o.interval_spans_ms);
    put(
        &mut m,
        "interval_span_p50_ms",
        median(&mut o.interval_spans_ms),
        "ms",
    );
    put(&mut m, "interval_span_tail_ms", span_tail.value, "ms");
    if let Some(r) = o.rebuild_s {
        put(&mut m, "rebuild_s", r, "s");
    }
    if let Some(w) = o.wire_bytes {
        put(&mut m, "wire_bytes_per_frame", share(w, v.shown), "B");
    }
    let tails = vec![
        ("startup_tail_ms", startup_tail),
        ("frame_delay_tail_ms", o.frame_delay_tail),
        ("interval_span_tail_ms", span_tail),
    ];

    let mut counts = std::mem::take(&mut o.counts);
    counts.insert("core.refused", (v.requested - v.admitted) as f64);
    counts.insert("viewers.requested", v.requested as f64);
    counts.insert("viewers.failed", v.failed as f64);
    counts.insert("viewers.lost", v.lost as f64);
    counts.insert("viewers.unaccounted", v.unaccounted as f64);
    counts.insert("frames.shown", v.shown as f64);
    counts.insert("frames.dropped", v.dropped as f64);
    counts.insert("frames.late", v.late as f64);
    counts.insert("sim.span_s", o.span.as_secs_f64());
    counts.insert("sim.pending_peak", o.occupancy.pending as f64);
    counts.insert("rtmach.threads_peak", o.occupancy.threads as f64);
    counts.insert("disk.queue_peak", o.occupancy.queue as f64);

    let mut h = Fnv::default();
    for (k, x) in &m {
        h.write(format!("{k}={:?}\n", x.value).as_bytes());
    }
    for (k, t) in &tails {
        h.write(format!("{k}@{:?}/{}\n", t.pct, t.n).as_bytes());
    }
    for (k, x) in &counts {
        h.write(format!("{k}={x:?}\n").as_bytes());
    }
    h.write(&o.canonical.to_le_bytes());
    SimResult {
        metrics: m,
        tails,
        counts,
        digest: h.finish(),
        frames: v.shown,
        requested: v.requested,
        broken_sessions: v.lost + v.unaccounted,
    }
}

/// Host timings of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostTimes {
    /// Set-up host s (build + record).
    pub setup_s: f64,
    /// Build host s.
    pub build_s: f64,
    /// Record host s.
    pub record_s: f64,
    /// Measured-span host s.
    pub run_s: f64,
    /// `run_s` per frame shown, ns.
    pub ns_per_frame: f64,
}

/// The host timings of one run. `run_s` and `ns_per_frame` cover the
/// measured span only, never set-up.
pub fn host_times(o: &Outcome, frames: u64) -> HostTimes {
    HostTimes {
        setup_s: o.build_s + o.record_s,
        build_s: o.build_s,
        record_s: o.record_s,
        run_s: o.run_s,
        ns_per_frame: o.run_s * 1e9 / frames.max(1) as f64,
    }
}

fn median_of(runs: &[HostTimes], f: impl Fn(&HostTimes) -> f64) -> f64 {
    median(&mut runs.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end metrics: host medians over the untraced runs, times
/// `scale` (the host-speed reference's nominal over measured time), plus
/// the sim metrics of the seed.
pub fn end_to_end(
    untraced: &[HostTimes],
    all: &[HostTimes],
    sim: &SimResult,
    rss_mb: f64,
    scale: f64,
) -> Metrics {
    let mut m = sim.metrics.clone();
    put(
        &mut m,
        "setup_s",
        median_of(all, |h| h.setup_s) * scale,
        "s",
    );
    put(
        &mut m,
        "run_s",
        median_of(untraced, |h| h.run_s) * scale,
        "s",
    );
    put(
        &mut m,
        "ns_per_frame",
        median_of(untraced, |h| h.ns_per_frame) * scale,
        "ns",
    );
    put(&mut m, "peak_rss_mb", rss_mb, "MB");
    m
}

/// Span-derived timings of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Host s of the measured span.
    pub run_s: f64,
    /// Driver self time, s.
    pub driver_self_s: f64,
    /// Host s inside `run_until` (the gateway's barrier steps on
    /// cluster workloads).
    pub in_run_until_s: f64,
    /// `(p50, tail)` of admission calls, µs.
    pub admit_us: (f64, f64),
    /// `(p50, tail)` of gateway opens, µs.
    pub open_us: (f64, f64),
    /// p50 of gateway closes, µs.
    pub close_us: f64,
    /// `(p50, tail)` of gateway barrier steps, ms.
    pub barrier_ms: (f64, f64),
    /// Tail of host µs per simulated instant.
    pub step_us_tail: f64,
}

fn p50_tail(mut ns: Vec<f64>, scale: f64) -> (f64, f64) {
    for x in &mut ns {
        *x /= scale;
    }
    let t = tail(&ns).value;
    (median(&mut ns), t)
}

/// Reads one traced run's spans.
pub fn traced(o: &Outcome) -> Traced {
    let spans = &o.spans;
    let own = self_times(spans);
    let driver_self_ns: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name::RUN)
        .map(|(_, &ns)| ns)
        .sum();
    let in_run_until: f64 = [name::RUN_UNTIL, name::BARRIER]
        .iter()
        .flat_map(|n| durations(spans, n))
        .sum();
    let steps = o.step_us.iter().map(|&x| f64::from(x));
    Traced {
        run_s: o.run_s,
        driver_self_s: driver_self_ns as f64 / 1e9,
        in_run_until_s: in_run_until / 1e9,
        admit_us: p50_tail(durations(spans, name::ADMIT), 1e3),
        open_us: p50_tail(durations(spans, name::OPEN), 1e3),
        close_us: p50_tail(durations(spans, name::CLOSE), 1e3).0,
        barrier_ms: p50_tail(durations(spans, name::BARRIER), 1e6),
        step_us_tail: tail_of(o.step_us.len(), steps).value,
    }
}

/// Per-layer metrics: deterministic counts of the seed, medians of the
/// traced runs' span timings, and the layer replays at the occupancy
/// the run reached.
pub fn per_layer(
    sim: &SimResult,
    traced_runs: &[Traced],
    untraced: &[HostTimes],
    all: &[HostTimes],
) -> Metrics {
    let c = |k: &str| sim.counts.get(k).copied().unwrap_or(0.0);
    let med =
        |f: &dyn Fn(&Traced) -> f64| median(&mut traced_runs.iter().map(f).collect::<Vec<_>>());
    let span = c("sim.span_s").max(1e-9);
    let frames = sim.frames.max(1) as f64;
    let mut m = Metrics::new();
    put(&mut m, "sim.events", c("sim.events"), "count");
    put(
        &mut m,
        "sim.events_per_frame",
        c("sim.events") / frames,
        "ratio",
    );
    put(&mut m, "sim.pending_peak", c("sim.pending_peak"), "count");
    put(
        &mut m,
        "sim.pop_ns",
        replay::engine_pop_ns(c("sim.pending_peak") as usize),
        "ns",
    );
    put(&mut m, "rtmach.dispatches", c("rtmach.dispatches"), "count");
    put(
        &mut m,
        "rtmach.preemptions",
        c("rtmach.preemptions"),
        "count",
    );
    put(
        &mut m,
        "rtmach.threads_peak",
        c("rtmach.threads_peak"),
        "count",
    );
    put(
        &mut m,
        "rtmach.busy_share",
        c("rtmach.busy_s") / (span * c("sys.shards")),
        "ratio",
    );
    put(
        &mut m,
        "rtmach.slice_ns",
        replay::cpu_slice_ns(c("rtmach.threads_peak") as usize),
        "ns",
    );
    put(&mut m, "disk.ops_rt", c("disk.ops_rt"), "count");
    put(&mut m, "disk.ops_normal", c("disk.ops_normal"), "count");
    put(&mut m, "disk.mb", c("disk.mb"), "MB");
    put(
        &mut m,
        "disk.busy_share",
        c("disk.busy_s") / (span * c("disk.volumes")),
        "ratio",
    );
    put(
        &mut m,
        "disk.seek_share",
        c("disk.seek_s") / c("disk.busy_s").max(1e-9),
        "ratio",
    );
    put(&mut m, "disk.queue_peak", c("disk.queue_peak"), "count");
    put(
        &mut m,
        "disk.op_ns",
        replay::disk_op_ns(c("disk.queue_peak") as usize),
        "ns",
    );
    put(&mut m, "ufs.bg_mb", c("ufs.bg_mb"), "MB");
    put(&mut m, "core.admit_us_p50", med(&|t| t.admit_us.0), "us");
    put(&mut m, "core.admit_us_tail", med(&|t| t.admit_us.1), "us");
    for k in [
        "core.refused",
        "core.overruns",
        "core.steered_stream_intervals",
        "core.degraded_reads",
        "core.lost_reads",
        "core.peak_disk_streams",
        "core.spindle_bound",
        "core.prefix_admitted",
        "core.joined",
        "core.cache_admitted",
        "core.parked",
        "core.resumed",
    ] {
        put(&mut m, k, c(k), "count");
    }
    let hit = c("core.cache_hit_mb");
    put(
        &mut m,
        "core.cache_hit_share",
        hit / (hit + c("core.disk_read_mb")).max(1e-9),
        "ratio",
    );
    put(&mut m, "sys.run_s", med(&|t| t.in_run_until_s), "s");
    put(&mut m, "sys.step_us_tail", med(&|t| t.step_us_tail), "us");
    put(&mut m, "sys.rebuild_mb", c("sys.rebuild_mb"), "MB");
    put(&mut m, "net.mb_sent", c("net.mb_sent"), "MB");
    put(&mut m, "net.packets", c("net.packets"), "count");
    put(
        &mut m,
        "net.multicast_saved_share",
        c("net.multicast_saved_share"),
        "ratio",
    );
    put(
        &mut m,
        "net.retransmit_share",
        c("net.retransmit_share"),
        "ratio",
    );
    put(&mut m, "net.queue_ms_mean", c("net.queue_ms_mean"), "ms");
    put(&mut m, "net.max_queue_kb", c("net.max_queue_kb"), "KB");
    put(&mut m, "net.naks", c("net.naks"), "count");
    put(&mut m, "net.parks", c("net.parks"), "count");
    put(&mut m, "cluster.open_us_p50", med(&|t| t.open_us.0), "us");
    put(&mut m, "cluster.open_us_tail", med(&|t| t.open_us.1), "us");
    put(&mut m, "cluster.close_us_p50", med(&|t| t.close_us), "us");
    put(
        &mut m,
        "cluster.barrier_ms_p50",
        med(&|t| t.barrier_ms.0),
        "ms",
    );
    put(
        &mut m,
        "cluster.barrier_ms_tail",
        med(&|t| t.barrier_ms.1),
        "ms",
    );
    for k in [
        "cluster.retry_queued",
        "cluster.retry_admitted",
        "cluster.expired",
        "cluster.resumed",
    ] {
        put(&mut m, k, c(k), "count");
    }
    put(&mut m, "setup.build_s", median_of(all, |h| h.build_s), "s");
    put(
        &mut m,
        "setup.record_s",
        median_of(all, |h| h.record_s),
        "s",
    );
    put(&mut m, "driver.self_s", med(&|t| t.driver_self_s), "s");
    put(
        &mut m,
        "trace.overhead_share",
        med(&|t| t.run_s) / median_of(untraced, |h| h.run_s).max(1e-9) - 1.0,
        "ratio",
    );
    m
}

/// Metrics as a JSON object of `{"value", "unit"}` pairs. Values keep
/// every digit (the shortest exact round-trip form).
pub fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, x)| {
                let value = if x.value.is_finite() {
                    Json::Num(x.value)
                } else {
                    Json::Null
                };
                let pair = [("value", value), ("unit", Json::Str(x.unit.into()))];
                (k.to_string(), obj(pair))
            })
            .collect(),
    )
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON document on one line.
pub fn one_line(j: &Json) -> String {
    j.pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}
