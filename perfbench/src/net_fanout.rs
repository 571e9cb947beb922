//! `net_fanout`: batched-join audiences fanned out over paced links.
//!
//! One `System` with several paced 10 Mbps links. Each link carries a
//! stream of batched-join audiences (members open inside the join
//! window, so one read stream feeds them all) with multicast on, plus
//! one unicast solo viewer for the whole run. Every link drops 1% of
//! packets and NAKs repair them inside the playout slack. Most events
//! per frame are delivery events; the disk sees one read stream per
//! audience, and the gateway is absent.

use std::time::Instant as HostInstant;

use cras_media::{Movie, StreamProfile};
use cras_net::{LinkParams, NetFaults, SessionCfg};
use cras_sim::{Duration, Instant, Rng};
use cras_sys::{ClientId, SysConfig, System};

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
    /// Paced links.
    pub links: usize,
    /// Members per audience.
    pub members: usize,
    /// Gap between audiences on one link.
    pub audience_gap: Duration,
    /// Audience title length, media s.
    pub title_secs: f64,
    /// Simulated span during which audiences arrive.
    pub span: Duration,
    /// Per-packet loss probability on every link.
    pub loss: f64,
}

impl Params {
    /// The benchmark's shape.
    pub fn standard() -> Params {
        Params {
            volumes: 4,
            links: 4,
            members: 4,
            audience_gap: Duration::from_secs(20),
            title_secs: 60.0,
            span: Duration::from_secs(240),
            loss: 0.01,
        }
    }

    /// A small shape for tests.
    #[cfg(test)]
    pub fn small() -> Params {
        Params {
            volumes: 2,
            links: 2,
            members: 3,
            audience_gap: Duration::from_secs(6),
            title_secs: 10.0,
            span: Duration::from_secs(30),
            ..Params::standard()
        }
    }
}

/// Playout slack of every session.
const PLAYOUT_DELAY: Duration = Duration::from_millis(600);

/// Members of one audience open within this much of its first member,
/// well inside the join window.
const MEMBER_SPREAD_MS: u64 = 400;

/// A viewer closed this close to the end may still have frames in its
/// playout buffer; its frame accounting is not checked.
const SETTLE: Duration = Duration::from_secs(2);

/// One generated arrival.
struct Arrival {
    at: Duration,
    title: usize,
    link: u32,
}

/// Runs the workload once.
pub fn run(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    // Generated inputs: audience times, member offsets, per-link loss
    // seeds and the system seed.
    // Titles 0..links are the solos'.
    let mut rng = Rng::new(seed ^ 0x4E37_FA40);
    let span_s = p.span.as_secs_f64();
    let mut titles: Vec<f64> = vec![span_s + 10.0; p.links];
    let mut arrivals: Vec<Arrival> = (0..p.links)
        .map(|l| Arrival {
            at: Duration::ZERO,
            title: l,
            link: l as u32,
        })
        .collect();
    // Each link gets one audience per `audience_gap` slot, at a uniform
    // offset inside the slot: the count is fixed, the times vary.
    let slots = (p.span.as_nanos() / p.audience_gap.as_nanos()) as usize;
    for l in 0..p.links {
        for k in 0..slots {
            let t = p.audience_gap * k as u64
                + Duration::from_secs_f64(rng.f64() * p.audience_gap.as_secs_f64());
            titles.push(p.title_secs);
            for _ in 0..p.members {
                arrivals.push(Arrival {
                    at: t + Duration::from_millis(rng.below(MEMBER_SPREAD_MS)),
                    title: titles.len() - 1,
                    link: l as u32,
                });
            }
        }
    }
    arrivals.sort_by_key(|a| a.at);
    let loss_seeds: Vec<u64> = (0..p.links).map(|_| rng.next_u64()).collect();
    let mut cfg = SysConfig {
        seed: rng.next_u64(),
        ..SysConfig::default()
    };
    cfg.server.volumes = p.volumes;
    cfg.server.buffer_budget = 64 << 20;
    cfg.server.join_window = Duration::from_secs(2);
    let mut out = Outcome::default();

    let h = HostInstant::now();
    let mut sys = tr.span(name::BUILD, 0, || System::new(cfg));
    out.build_s = h.elapsed().as_secs_f64();
    let h = HostInstant::now();
    let movies: Vec<Movie> = tr.span(name::RECORD, 0, || {
        let ms = titles
            .iter()
            .enumerate()
            .map(|(i, &secs)| {
                sys.record_movie(&format!("n{i:04}.mov"), StreamProfile::mpeg1(), secs)
            })
            .collect();
        for &s in &loss_seeds {
            let link = sys.net_add_link(LinkParams::ethernet_10mbps());
            sys.net_set_link_faults(link, Some(NetFaults::loss(p.loss, s)));
        }
        sys.net_set_multicast(true);
        ms
    });
    out.record_s = h.elapsed().as_secs_f64();

    let interval = cfg.server.interval;
    let span_end = at(p.span);
    let mut viewers: Vec<Viewer> = Vec::with_capacity(arrivals.len());
    let mut closed_at: Vec<Option<Instant>> = Vec::with_capacity(arrivals.len());
    let mut departures = Departures::default();
    let mut occ = Occupancy::default();
    // Sample mid-interval: at tick instants the batch is not yet issued.
    let mut next_sample = at(interval / 2);
    let mut step_us = Vec::new();

    let h = HostInstant::now();
    tr.enter(name::RUN, 0);
    let mut i = 0;
    loop {
        let now = sys.now();
        while let Some(v) = departures.due(now) {
            let (_, client) = viewers[v].served_by.expect("only served viewers depart");
            if !sys.players[&client].done {
                departures.at(now + interval, v);
                continue;
            }
            closed_at[v] = Some(now);
            tr.span(name::STOP, v as u64 + 1, || {
                sys.close_playback(ClientId(client))
            });
        }
        if now >= next_sample {
            occ.disk_streams = occ.disk_streams.max(occ.sample(&sys));
            next_sample = now + interval;
        }
        if i < arrivals.len() && at(arrivals[i].at) <= now {
            let a = &arrivals[i];
            let sid = i as u64 + 1;
            let movie = &movies[a.title];
            let served = tr.span(name::ADMIT, sid, || sys.add_cras_player(movie, 1));
            let mut v = Viewer {
                opened: now,
                served_by: None,
                lost: false,
                finished: false,
            };
            if let Ok(client) = served {
                let session = SessionCfg {
                    playout_delay: PLAYOUT_DELAY,
                    ..SessionCfg::default()
                };
                sys.net_attach(client, a.link, session);
                let start = tr.span(name::START, sid, || sys.start_playback(client));
                v.served_by = Some((0, client.0));
                departures.at(start + movie.duration() + Duration::from_millis(100), i);
            }
            viewers.push(v);
            closed_at.push(None);
            i += 1;
            continue;
        }
        if now >= span_end {
            break;
        }
        let mut next = (now + interval).min(span_end);
        if i < arrivals.len() {
            next = next.min(at(arrivals[i].at));
        }
        step_to(&mut sys, next, tr, &mut step_us);
    }
    tr.exit();
    out.run_s = h.elapsed().as_secs_f64();
    let end = sys.now();
    out.span = end.since(Instant::ZERO);

    for (v, c) in viewers.iter_mut().zip(&closed_at) {
        v.finished = c.is_some_and(|c| c + SETTLE <= end);
    }
    let served = |v: &Viewer| v.served_by.map(|(_, c)| (&sys, c));
    let seen_all: Vec<_> = viewers
        .iter()
        .map(|v| served(v).map(|(s, c)| seen(s, c, true)))
        .collect();
    out.viewers = total_viewers(&viewers, &seen_all);
    out.frame_delay_tail = delay_tail(viewers.iter().filter_map(served));
    count_shard(&mut out.counts, &sys);
    out.interval_spans_ms = interval_spans_ms(&sys).collect();
    out.counts
        .insert("core.peak_disk_streams", occ.disk_streams as f64);
    out.occupancy = occ;

    let (mut sent, mut packets, mut saved, mut retx, mut queued_ns, mut max_q) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for l in 0..sys.net.link_count() as u32 {
        let s = &sys.net.link(l).stats;
        sent += s.bytes_sent;
        packets += s.packets_sent;
        saved += s.multicast_saved_bytes;
        retx += s.retransmit_bytes;
        queued_ns += s.queued_ns;
        max_q = max_q.max(s.max_queued_bytes);
    }
    let naks: u64 = sys.net.sessions().map(|s| s.stats.naks_sent).sum();
    let c = &mut out.counts;
    c.insert("net.mb_sent", sent as f64 / 1e6);
    c.insert("net.packets", packets as f64);
    c.insert(
        "net.multicast_saved_share",
        saved as f64 / (sent + saved).max(1) as f64,
    );
    c.insert("net.retransmit_share", retx as f64 / sent.max(1) as f64);
    c.insert(
        "net.queue_ms_mean",
        queued_ns as f64 / packets.max(1) as f64 / 1e6,
    );
    c.insert("net.max_queue_kb", max_q as f64 / 1024.0);
    c.insert("net.naks", naks as f64);
    c.insert("net.parks", sys.metrics.net_parks as f64);
    out.wire_bytes = Some(sent);
    out.check(naks > 0, || {
        "no loss was repaired: NAK path unexercised".into()
    });
    out.canonical = digest_all([
        sys.metrics.canonical_json().as_str(),
        sys.net.canonical_json().as_str(),
    ]);
    out.step_us = step_us;
    out.spans = tr.spans().to_vec();
    out
}
