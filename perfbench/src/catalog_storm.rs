//! `catalog_storm`: a Zipf audience served mostly from memory.
//!
//! Two shards of two volumes behind the gateway, a 64-title Zipf(1)
//! catalog of 60 s titles, one arrival every 50 ms. Prefix residency,
//! batched joins, interval chaining and the retry queue are on; viewers
//! watch the whole title and close. Thousands of players load the
//! RT-Mach scheduler, the cache manager, player events and the
//! gateway's open, retry and parked-viewer sweeps, while the disk stays
//! at its admission bound and delivery is bypassed.

use std::collections::BTreeSet;
use std::time::Instant as HostInstant;

use cras_cluster::{zipf_cdf, zipf_rank, Cluster, ClusterConfig, Session, SessionId};
use cras_core::EvictPolicy;
use cras_media::StreamProfile;
use cras_sim::{Duration, Instant, Rng};
use cras_sys::{SysConfig, System};

use crate::common::{
    at, count_shard, delay_tail, digest_all, interval_spans_ms, seen, total_viewers, Departures,
    Occupancy, Outcome, Viewer,
};
use crate::trace::{name, Tracer};

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Shards behind the gateway.
    pub shards: usize,
    /// Volumes per shard.
    pub volumes: usize,
    /// Catalog size.
    pub titles: usize,
    /// Title length, media s.
    pub title_secs: f64,
    /// Gap between arrivals.
    pub stagger: Duration,
    /// Viewers that arrive.
    pub viewers: usize,
    /// Prefix-residency window of hot titles.
    pub prefix_secs: Duration,
    /// Hot-set size (prefix residency and gateway replication).
    pub hot_set: usize,
    /// Batched-join window.
    pub join_window: Duration,
    /// How long a refused open waits in the retry queue.
    pub retry_window: Duration,
}

impl Params {
    /// The benchmark's shape.
    pub fn standard() -> Params {
        Params {
            shards: 2,
            volumes: 2,
            titles: 64,
            title_secs: 60.0,
            stagger: Duration::from_millis(50),
            viewers: 1200,
            prefix_secs: Duration::from_secs(20),
            hot_set: 16,
            join_window: Duration::from_secs(1),
            retry_window: Duration::from_secs(2),
        }
    }

    /// A small shape for tests.
    #[cfg(test)]
    pub fn small() -> Params {
        Params {
            titles: 16,
            title_secs: 12.0,
            stagger: Duration::from_millis(200),
            viewers: 60,
            prefix_secs: Duration::from_secs(5),
            hot_set: 6,
            ..Params::standard()
        }
    }
}

/// Per-shard configuration: every cache-manager mechanism on, and a
/// cheap copy-out decode for remote set-tops.
fn shard_config(p: &Params, seed: u64) -> SysConfig {
    let mut cfg = SysConfig {
        seed,
        ..SysConfig::default()
    };
    cfg.server.volumes = p.volumes;
    cfg.server.buffer_budget = 1 << 30;
    cfg.server.cache_budget = 512 << 20;
    cfg.server.max_cache_gap = Duration::from_secs(30);
    cfg.server.prefix_secs = p.prefix_secs;
    cfg.server.hot_set = p.hot_set;
    cfg.server.join_window = p.join_window;
    cfg.server.cache_evict = EvictPolicy::FollowersPerByte;
    cfg.costs.decode = Duration::from_micros(5);
    cfg
}

fn title_name(rank: usize) -> String {
    format!("t{rank:04}.mov")
}

/// Viewers per stratified block of Zipf draws.
const BLOCK: usize = 64;

/// Zipf(1) title ranks, stratified: each block of [`BLOCK`] viewers
/// draws one uniform from each of [`BLOCK`] equal slices of `[0, 1)`, in
/// shuffled order. Every block then follows the catalog's popularity
/// closely, so seeds change who asks for what and when, not how much
/// load the run carries.
fn stratified_ranks(titles: usize, viewers: usize, rng: &mut Rng) -> Vec<usize> {
    let cdf = zipf_cdf(titles, 1.0);
    let mut ranks = Vec::with_capacity(viewers);
    while ranks.len() < viewers {
        let mut block: Vec<usize> = (0..BLOCK)
            .map(|j| zipf_rank(&cdf, (j as f64 + rng.f64()) / BLOCK as f64))
            .collect();
        rng.shuffle(&mut block);
        ranks.extend(block.into_iter().take(viewers - ranks.len()));
    }
    ranks
}

/// Cold-title calibration: distinct titles one shard admits to disk
/// before admission refuses, times the shard count.
fn spindle_bound(p: &Params, cfg: SysConfig) -> usize {
    let mut sys = System::new(cfg);
    let mut n = 0;
    loop {
        let m = sys.record_movie(
            &format!("cal{n:04}.mov"),
            StreamProfile::mpeg1(),
            p.title_secs,
        );
        if sys.add_cras_player(&m, 1).is_err() {
            break n * p.shards;
        }
        n += 1;
        assert!(n < 10_000, "calibration never hit the admission bound");
    }
}

/// Whether a lost session had been admitted: the gateway also marks
/// `lost` the opens that expired in (or were purged from) the retry
/// queue, which never got a shard and count as refused.
fn lost_after_admission(s: &Session) -> bool {
    s.lost && s.shard != u32::MAX
}

/// Runs the workload once.
pub fn run(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    // Generated inputs: title ranks and the shards' seed.
    let mut rng = Rng::new(seed ^ 0x5709_4D00);
    let ranks = stratified_ranks(p.titles, p.viewers, &mut rng);
    let cfg = shard_config(p, rng.next_u64());
    let profile = StreamProfile::mpeg1();
    let mut out = Outcome::default();

    let h = HostInstant::now();
    let (mut cl, bound) = tr.span(name::BUILD, 0, || {
        let mut ccfg = ClusterConfig::new(p.shards, cfg);
        ccfg.replicas = 2.min(p.shards);
        ccfg.hot_titles = p.hot_set;
        ccfg.retry_window = p.retry_window;
        (Cluster::new(ccfg), spindle_bound(p, cfg))
    });
    out.build_s = h.elapsed().as_secs_f64();
    let h = HostInstant::now();
    let distinct: BTreeSet<usize> = ranks.iter().copied().collect();
    tr.span(name::RECORD, 0, || {
        for &r in &distinct {
            cl.add_title(&title_name(r), &profile, p.title_secs, r);
        }
    });
    out.record_s = h.elapsed().as_secs_f64();

    let interval = cfg.server.interval;
    // A viewer admitted at once starts after the initial delay and ends
    // a title later; check it then, and every interval after that while
    // it is still queued or rebuffering.
    let expected = Duration::from_secs_f64(p.title_secs)
        + interval * u64::from(cfg.server.initial_delay_intervals)
        + Duration::from_millis(100);
    let mut viewers: Vec<Viewer> = Vec::with_capacity(p.viewers);
    let mut sids: Vec<SessionId> = Vec::with_capacity(p.viewers);
    let mut departures = Departures::default();
    let mut occ = Occupancy::default();
    // Sample mid-interval: at tick instants the batch is not yet issued.
    let mut next_sample = at(interval / 2);
    let last_arrival = at(p.stagger * (p.viewers as u64).saturating_sub(1));
    let end = last_arrival + expected + interval * 4;

    let h = HostInstant::now();
    tr.enter(name::RUN, 0);
    let mut i = 0;
    loop {
        let now = cl.now();
        // Departures due by now.
        while let Some(v) = departures.due(now) {
            let sid = sids[v];
            let s = cl.session(sid).expect("undeparted viewer has a session");
            if s.queued {
                departures.at(now + interval, v);
                continue;
            }
            if s.lost {
                viewers[v].lost = lost_after_admission(s);
            } else {
                let (shard, client) = (s.shard as usize, s.client.0);
                if !cl.shards()[shard].sys.players[&client].done {
                    departures.at(now + interval, v);
                    continue;
                }
                viewers[v].served_by = Some((shard, client));
                viewers[v].finished = true;
            }
            tr.span(name::CLOSE, v as u64 + 1, || cl.close(sid));
        }
        if now >= next_sample {
            let disk: usize = cl
                .shards()
                .iter()
                .filter(|s| s.is_alive())
                .map(|s| occ.sample(&s.sys))
                .sum();
            occ.disk_streams = occ.disk_streams.max(disk);
            next_sample = now + interval;
        }
        if i < p.viewers && at(p.stagger * i as u64) <= now {
            let title = title_name(ranks[i]);
            let opened = tr.span(name::OPEN, i as u64 + 1, || cl.open(&title));
            viewers.push(Viewer {
                opened: now,
                served_by: None,
                lost: false,
                finished: false,
            });
            match opened {
                Ok(sid) => {
                    sids.push(sid);
                    departures.at(now + expected, i);
                }
                Err(_) => sids.push(SessionId(u64::MAX)),
            }
            i += 1;
            continue;
        }
        if now >= end {
            break;
        }
        let next = if i < p.viewers {
            at(p.stagger * i as u64)
        } else {
            (now + interval).min(end)
        };
        tr.span(name::BARRIER, 0, || cl.run_until(next));
    }
    tr.exit();
    out.run_s = h.elapsed().as_secs_f64();
    out.span = cl.now().since(Instant::ZERO);

    // Viewers still open at the end: queued ones were never served, lost
    // ones were dropped after admission, and the rest are still playing.
    for (v, &sid) in sids.iter().enumerate() {
        if viewers[v].finished || viewers[v].lost {
            continue;
        }
        match cl.session(sid) {
            Some(s) if s.lost => viewers[v].lost = lost_after_admission(s),
            Some(s) if !s.queued => viewers[v].served_by = Some((s.shard as usize, s.client.0)),
            _ => {}
        }
    }
    let served = |v: &Viewer| {
        v.served_by
            .map(|(shard, client)| (&cl.shards()[shard].sys, client))
    };
    let seen_all: Vec<_> = viewers
        .iter()
        .map(|v| served(v).map(|(sys, client)| seen(sys, client, false)))
        .collect();
    out.viewers = total_viewers(&viewers, &seen_all);
    out.frame_delay_tail = delay_tail(viewers.iter().filter_map(served));
    for sh in cl.shards() {
        count_shard(&mut out.counts, &sh.sys);
        out.interval_spans_ms.extend(interval_spans_ms(&sh.sys));
    }
    let retry = cl.retry_stats();
    let c = &mut out.counts;
    c.insert("core.spindle_bound", bound as f64);
    c.insert("core.peak_disk_streams", occ.disk_streams as f64);
    c.insert("cluster.retry_queued", retry.queued as f64);
    c.insert("cluster.retry_admitted", retry.admitted as f64);
    c.insert("cluster.expired", (retry.expired + retry.purged) as f64);
    c.insert("cluster.resumed", retry.resumed as f64);
    out.occupancy = occ;
    out.canonical = digest_all(cl.canonical_metrics().iter().map(String::as_str));
    out.check(occ.disk_streams <= bound, || {
        format!(
            "peak disk-charged streams {} above the spindle bound {bound}",
            occ.disk_streams
        )
    });
    out.spans = tr.spans().to_vec();
    out
}
