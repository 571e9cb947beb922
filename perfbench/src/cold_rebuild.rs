//! `cold_rebuild`: distinct titles at the admission bound through a
//! volume failure and its rebuild.
//!
//! One `System`, no gateway: eight volumes in parity groups of four,
//! read steering on, cache and joins off. Every viewer asks for a title
//! no one else watches, arriving faster than admission can take them,
//! and leaves when the title ends. One flat-out `cat` reader is pinned
//! to one spindle. A third of the way through, one volume fails and a
//! replacement rebuilds from parity while viewers keep playing, so the
//! rebuild's normal-priority writes run beside real-time reads. The
//! work is in the disk model, admission, the parity fan-out and
//! steering, the Unix server and the rebuild manager; the gateway, the
//! cache and delivery are bypassed.

use std::time::Instant as HostInstant;

use cras_core::PlacementPolicy;
use cras_media::{Movie, StreamProfile};
use cras_sim::{Duration, Instant, Rng};
use cras_sys::{SysConfig, System};

use crate::common::{
    at, count_shard, delay_tail, digest_all, interval_spans_ms, seen, step_to, total_viewers,
    Departures, Occupancy, Outcome, Viewer,
};
use crate::trace::{name, Tracer};

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Volumes.
    pub volumes: usize,
    /// Parity group width.
    pub group: usize,
    /// One viewer arrives in each slot of this width.
    pub gap: Duration,
    /// Catalog size. Viewers take titles in a seeded cyclic order, so a
    /// title comes round again only after `titles` arrivals — longer
    /// than it plays — and no two viewers ever share one.
    pub titles: usize,
    /// Title length, media s.
    pub title_secs: f64,
    /// Simulated span of the run; viewers arrive throughout. The volume
    /// fails a third of the way in, and its rebuild must finish by the
    /// end.
    pub span: Duration,
    /// The `cat` reader's file size.
    pub cat_bytes: u64,
}

impl Params {
    /// The benchmark's shape.
    pub fn standard() -> Params {
        Params {
            volumes: 8,
            group: 4,
            gap: Duration::from_millis(1500),
            titles: 64,
            title_secs: 60.0,
            span: Duration::from_secs(450),
            cat_bytes: 64 << 20,
        }
    }

    /// A small shape for tests.
    #[cfg(test)]
    pub fn small() -> Params {
        Params {
            volumes: 4,
            gap: Duration::from_millis(2000),
            titles: 12,
            title_secs: 10.0,
            span: Duration::from_secs(60),
            cat_bytes: 8 << 20,
            ..Params::standard()
        }
    }
}

/// Runs the workload once.
pub fn run(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    // Generated inputs: arrival times, the title order, the failing
    // volume, the cat's spindle and the system seed.
    let mut rng = Rng::new(seed ^ 0xC01D_4EB1);
    // One arrival in each `gap`-wide slot, at a uniform offset: the
    // count is fixed, the times vary.
    let slots = (p.span.as_nanos() / p.gap.as_nanos()) as usize;
    let arrivals: Vec<Duration> = (0..slots)
        .map(|k| p.gap * k as u64 + Duration::from_secs_f64(rng.f64() * p.gap.as_secs_f64()))
        .collect();
    let mut order: Vec<usize> = (0..p.titles).collect();
    rng.shuffle(&mut order);
    // The cat sits on a survivor of the failing volume's parity band, so
    // the rebuild's reads always compete with it.
    let victim = rng.below(p.volumes as u64) as u32;
    let band = victim - victim % p.group as u32;
    let cat_vol =
        band + (victim - band + 1 + rng.below(p.group as u64 - 1) as u32) % p.group as u32;
    let mut cfg = SysConfig {
        seed: rng.next_u64(),
        ..SysConfig::default()
    };
    cfg.server.volumes = p.volumes;
    cfg.server.placement = PlacementPolicy::Parity { group: p.group };
    cfg.server.buffer_budget = 64 << 20;
    cfg.server.steer_reads = true;
    let mut out = Outcome::default();

    let h = HostInstant::now();
    let mut sys = tr.span(name::BUILD, 0, || System::new(cfg));
    out.build_s = h.elapsed().as_secs_f64();
    let h = HostInstant::now();
    let movies: Vec<Movie> = tr.span(name::RECORD, 0, || {
        let ms = (0..p.titles)
            .map(|i| {
                sys.record_movie(
                    &format!("c{i:04}.mov"),
                    StreamProfile::mpeg1(),
                    p.title_secs,
                )
            })
            .collect();
        sys.add_bg_reader_on(cat_vol, "cat", p.cat_bytes, 64 << 10, Duration::ZERO);
        ms
    });
    out.record_s = h.elapsed().as_secs_f64();

    let interval = cfg.server.interval;
    let fail_at = at(p.span / 3);
    let span_end = at(p.span);
    let mut viewers: Vec<Viewer> = Vec::with_capacity(arrivals.len());
    let mut departures = Departures::default();
    let mut occ = Occupancy::default();
    // Sample mid-interval: at tick instants the batch is not yet issued.
    let mut next_sample = at(interval / 2);
    let mut failed = false;
    let mut attached = false;
    let mut step_us = Vec::new();

    let h = HostInstant::now();
    tr.enter(name::RUN, 0);
    sys.start_bg();
    let mut i = 0;
    loop {
        let now = sys.now();
        while let Some(v) = departures.due(now) {
            let (_, client) = viewers[v].served_by.expect("only served viewers depart");
            if !sys.players[&client].done {
                departures.at(now + interval, v);
                continue;
            }
            viewers[v].finished = true;
            tr.span(name::STOP, v as u64 + 1, || {
                sys.close_playback(cras_sys::ClientId(client))
            });
        }
        if now >= next_sample {
            occ.disk_streams = occ.disk_streams.max(occ.sample(&sys));
            next_sample = now + interval;
        }
        if !failed && now >= fail_at {
            sys.fail_volume(victim);
            failed = true;
        }
        if failed && !attached {
            // The dead spindle fails each command fast, but a flat-out
            // reader keeps one in flight almost always: retry the attach
            // at every event instant until it lands in a gap, short of
            // the next arrival.
            let horizon = arrivals.get(i).map_or(span_end, |&a| at(a).min(span_end));
            attached = loop {
                if sys.try_attach_replacement(victim).is_ok() {
                    break true;
                }
                match sys.engine.peek_time() {
                    Some(t) if t < horizon => step_to(&mut sys, t, tr, &mut step_us),
                    _ => break false,
                }
            };
        }
        if i < arrivals.len() && at(arrivals[i]) <= now {
            let sid = i as u64 + 1;
            let movie = &movies[order[i % p.titles]];
            let served = tr.span(name::ADMIT, sid, || sys.add_cras_player(movie, 1));
            let mut v = Viewer {
                opened: now,
                served_by: None,
                lost: false,
                finished: false,
            };
            if let Ok(client) = served {
                let start = tr.span(name::START, sid, || sys.start_playback(client));
                v.served_by = Some((0, client.0));
                departures.at(start + movie.duration() + Duration::from_millis(100), i);
            }
            viewers.push(v);
            i += 1;
            continue;
        }
        if now >= span_end {
            break;
        }
        let mut next = (now + interval).min(span_end);
        if i < arrivals.len() {
            next = next.min(at(arrivals[i]));
        }
        if !failed {
            next = next.min(fail_at);
        }
        step_to(&mut sys, next, tr, &mut step_us);
    }
    tr.exit();
    out.run_s = h.elapsed().as_secs_f64();
    out.span = sys.now().since(Instant::ZERO);

    let served = |v: &Viewer| v.served_by.map(|(_, c)| (&sys, c));
    let seen_all: Vec<_> = viewers
        .iter()
        .map(|v| served(v).map(|(s, c)| seen(s, c, false)))
        .collect();
    out.viewers = total_viewers(&viewers, &seen_all);
    out.frame_delay_tail = delay_tail(viewers.iter().filter_map(served));
    count_shard(&mut out.counts, &sys);
    out.interval_spans_ms = interval_spans_ms(&sys).collect();
    out.counts
        .insert("core.peak_disk_streams", occ.disk_streams as f64);
    out.occupancy = occ;
    let m = &sys.metrics;
    out.rebuild_s = m
        .volume_failed_at
        .zip(m.rebuild_finished_at)
        .map(|(failed, rebuilt)| rebuilt.since(failed).as_secs_f64());
    out.check(out.rebuild_s.is_some(), || {
        format!("rebuild of volume {victim} did not complete")
    });
    out.canonical = digest_all([sys.metrics.canonical_json().as_str()]);
    out.step_us = step_us;
    out.spans = tr.spans().to_vec();
    out
}
