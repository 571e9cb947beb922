//! What every workload shares: viewer bookkeeping, the departure queue,
//! occupancy sampling, single-System stepping and the per-run outcome.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant as HostInstant;

use cras_sim::{Duration, Instant};
use cras_sys::System;

use crate::stats::{tail_of, Fnv, Tail};
use crate::trace::{name, Span, Tracer};

/// One viewer as the driver sees it.
#[derive(Clone, Debug)]
pub struct Viewer {
    /// Simulated time the viewer asked to watch.
    pub opened: Instant,
    /// `(shard, client)` serving the viewer; `None` if it was refused,
    /// expired in the retry queue, was still queued at the end, or was
    /// lost.
    pub served_by: Option<(usize, u32)>,
    /// Whether the program dropped the viewer after admitting it.
    pub lost: bool,
    /// Whether the viewer watched to the end and was closed.
    pub finished: bool,
}

/// What one served viewer experienced, read from the program after the
/// run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Seen {
    /// Frames in the title: those due to a viewer who watches it all.
    pub title_frames: u64,
    /// Frames shown to the viewer (played on time, under delivery).
    pub shown: u64,
    /// Frames the player dropped.
    pub dropped: u64,
    /// Frames that missed their delivery playout deadline.
    pub late: u64,
    /// Simulated time of the first frame shown.
    pub first_frame: Option<Instant>,
    /// Whether the viewer was paused (rebuffering) when the run ended.
    pub rebuffering: bool,
}

/// Viewer-level results of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewerTotals {
    /// Viewers that asked to watch.
    pub requested: u64,
    /// Viewers that got a stream.
    pub admitted: u64,
    /// Failed sessions: refused, expired or lost, or any dropped or
    /// late frame, or still rebuffering at the end.
    pub failed: u64,
    /// Sessions the program lost after admitting them.
    pub lost: u64,
    /// Frames shown.
    pub shown: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames late.
    pub late: u64,
    /// Open-to-first-frame, ms, admitted viewers that saw a frame.
    pub startup_ms: Vec<f64>,
    /// Finished viewers whose shown + dropped + late frames do not add
    /// up to the title's frames.
    pub unaccounted: u64,
}

impl ViewerTotals {
    /// Frames whose time came: shown, dropped or late.
    pub fn due(&self) -> u64 {
        self.shown + self.dropped + self.late
    }
}

/// Folds every viewer into the totals. `seen[i]` is viewer `i`'s
/// experience if it was served.
pub fn total_viewers(viewers: &[Viewer], seen: &[Option<Seen>]) -> ViewerTotals {
    let mut t = ViewerTotals {
        requested: viewers.len() as u64,
        ..ViewerTotals::default()
    };
    for (v, s) in viewers.iter().zip(seen) {
        if v.lost {
            t.admitted += 1;
            t.lost += 1;
            t.failed += 1;
            continue;
        }
        let Some(s) = s else {
            t.failed += 1;
            continue;
        };
        t.admitted += 1;
        t.shown += s.shown;
        t.dropped += s.dropped;
        t.late += s.late;
        if s.dropped > 0 || s.late > 0 || s.rebuffering {
            t.failed += 1;
        }
        if let Some(f) = s.first_frame {
            t.startup_ms.push(f.since(v.opened).as_millis_f64());
        }
        if v.finished && s.shown + s.dropped + s.late != s.title_frames {
            t.unaccounted += 1;
        }
    }
    t
}

/// Reads a served viewer's experience off its shard. Under delivery
/// (`net`), shown and late frames are the playout's; otherwise they are
/// the player's, and `late` is zero.
pub fn seen(sys: &System, client: u32, net: bool) -> Seen {
    let p = &sys.players[&client];
    let mut s = Seen {
        title_frames: p.table.len() as u64,
        shown: p.stats.frames_shown,
        dropped: p.stats.frames_dropped,
        late: 0,
        first_frame: p.stats.delays.points().first().map(|&(t, _)| t),
        rebuffering: p.paused && !p.done,
    };
    if net {
        let ses = sys
            .net
            .session(client)
            .expect("viewer has a delivery session");
        s.shown = ses.stats.frames_played;
        s.late = ses.stats.late_frames;
        s.first_frame = ses
            .stats
            .playout_log
            .iter()
            .find(|&&(_, _, late)| !late)
            .map(|&(_, at, _)| Instant::from_nanos(at));
    }
    s
}

/// Tail of the display delay (ms) of every frame shown to the served
/// viewers, streamed straight from the players' records.
pub fn delay_tail<'a>(served: impl Iterator<Item = (&'a System, u32)> + Clone) -> Tail {
    let points = move || {
        served
            .clone()
            .flat_map(|(sys, c)| sys.players[&c].stats.delays.points().iter())
    };
    tail_of(points().count(), points().map(|&(_, d)| d * 1e3))
}

/// Viewers waiting for a departure check, earliest first.
#[derive(Default)]
pub struct Departures(BinaryHeap<Reverse<(Instant, usize)>>);

impl Departures {
    /// Checks viewer `idx` at `at`.
    pub fn at(&mut self, at: Instant, idx: usize) {
        self.0.push(Reverse((at, idx)));
    }

    /// Pops the next viewer whose check is due by `now`.
    pub fn due(&mut self, now: Instant) -> Option<usize> {
        match self.0.peek() {
            Some(Reverse((at, _))) if *at <= now => self.0.pop().map(|Reverse((_, i))| i),
            _ => None,
        }
    }
}

/// Peak occupancy of the layers that run only inside `run_until`,
/// sampled between calls at most once per admission interval. It sizes
/// the layer replays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Pending engine events, one shard.
    pub pending: usize,
    /// Open CRAS streams (one player thread each), one shard.
    pub threads: usize,
    /// Outstanding commands, one spindle.
    pub queue: usize,
    /// Streams holding disk reservations, all live shards.
    pub disk_streams: usize,
}

impl Occupancy {
    /// Samples one shard. Returns the shard's disk-charged streams.
    pub fn sample(&mut self, sys: &System) -> usize {
        self.pending = self.pending.max(sys.engine.pending());
        self.threads = self.threads.max(sys.cras.stream_count());
        let deepest = sys.disks.outstanding_depths().into_iter().max();
        self.queue = self.queue.max(deepest.unwrap_or(0));
        sys.cras.disk_charged_streams()
    }
}

/// Steps a lone `System` to `t` (one `run_until` span) and aligns its
/// clock with `t`, so calls made next happen at `t`. With tracing on,
/// it steps one simulated instant at a time and records each step's
/// host time in `step_us`.
pub fn step_to(sys: &mut System, t: Instant, tr: &mut Tracer, step_us: &mut Vec<f32>) {
    tr.enter(name::RUN_UNTIL, 0);
    if tr.enabled() {
        while let Some(at) = sys.engine.peek_time().filter(|&at| at <= t) {
            let h = HostInstant::now();
            sys.run_until(at);
            step_us.push(h.elapsed().as_nanos() as f32 / 1e3);
        }
    }
    sys.run_until(t);
    if sys.now() < t {
        // After `run_until(t)` every pending event lies past `t`.
        sys.engine.advance_to(t);
    }
    tr.exit();
}

/// Duration since the simulated epoch.
pub fn at(d: Duration) -> Instant {
    Instant::ZERO + d
}

/// Everything one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Host s in `System::new`/`Cluster::new` and calibration.
    pub build_s: f64,
    /// Host s recording the catalog.
    pub record_s: f64,
    /// Host s of the measured simulated span.
    pub run_s: f64,
    /// Simulated span of the run.
    pub span: Duration,
    /// Viewer totals.
    pub viewers: ViewerTotals,
    /// Tail of display delay per frame shown, ms.
    pub frame_delay_tail: Tail,
    /// Interval spans (issue to last completion), ms.
    pub interval_spans_ms: Vec<f64>,
    /// Failure-to-rebuilt, simulated s (rebuild workloads).
    pub rebuild_s: Option<f64>,
    /// Bytes on delivery links (delivery workloads).
    pub wire_bytes: Option<u64>,
    /// Deterministic per-layer counts.
    pub counts: BTreeMap<&'static str, f64>,
    /// Peak occupancy.
    pub occupancy: Occupancy,
    /// Digest of the per-shard canonical metrics (and delivery state).
    pub canonical: u64,
    /// Output checks that failed.
    pub broken: Vec<String>,
    /// Traced runs: host µs per simulated instant (single-System).
    pub step_us: Vec<f32>,
    /// Traced runs: the spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }
}

/// Spans (issue to last completion, ms) of a shard's completed
/// intervals.
pub fn interval_spans_ms(sys: &System) -> impl Iterator<Item = f64> + '_ {
    sys.metrics
        .interval_walls()
        .iter()
        .filter_map(|w| w.span())
        .map(|s| s * 1e3)
}

/// Digest of canonical per-shard serializations.
pub fn digest_all<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::default();
    for p in parts {
        h.write(p.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Folds a shard's counters into the per-layer counts every workload
/// reports (sim, rtmach, disk, ufs, core and sys).
pub fn count_shard(c: &mut BTreeMap<&'static str, f64>, sys: &System) {
    let mut add = |k: &'static str, v: f64| *c.entry(k).or_insert(0.0) += v;
    add("sim.events", sys.engine.dispatched() as f64);
    let cpu = sys.cpu.stats();
    add("rtmach.dispatches", cpu.dispatches as f64);
    add("rtmach.preemptions", cpu.preemptions as f64);
    add("rtmach.busy_s", cpu.busy.as_secs_f64());
    let d = sys.disks.total_stats();
    add("disk.ops_rt", d.ops.0 as f64);
    add("disk.ops_normal", d.ops.1 as f64);
    add("disk.mb", d.total_bytes() as f64 / 1e6);
    add("disk.busy_s", d.busy.as_secs_f64());
    add("disk.seek_s", d.seek_time.as_secs_f64());
    add("disk.volumes", sys.disks.len() as f64);
    add(
        "ufs.bg_mb",
        sys.bgs.values().map(|b| b.bytes_read).sum::<u64>() as f64 / 1e6,
    );
    let m = &sys.metrics;
    let st = sys.cras.stats();
    add("core.overruns", m.overruns as f64);
    add(
        "core.steered_stream_intervals",
        m.steered_stream_intervals as f64,
    );
    add("core.degraded_reads", st.degraded_reads as f64);
    add("core.lost_reads", (m.lost_reads + st.lost_reads) as f64);
    let cache = sys.cras.cache().stats();
    add(
        "core.cache_hit_mb",
        (cache.hit_bytes + cache.prefix_hit_bytes) as f64 / 1e6,
    );
    add("core.disk_read_mb", m.cras_read_bytes as f64 / 1e6);
    add("core.prefix_admitted", cache.prefix_admitted_streams as f64);
    add("core.joined", cache.joined_streams as f64);
    add("core.cache_admitted", cache.cache_admitted_streams as f64);
    add("core.parked", m.parked_streams as f64);
    add("core.resumed", m.resumed_streams as f64);
    add("sys.rebuild_mb", m.rebuild_bytes as f64 / 1e6);
    add("sys.shards", 1.0);
}
