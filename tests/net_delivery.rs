//! Delivery-subsystem properties (DESIGN §18): multicast equivalence,
//! fault-injector transparency, delivery-order independence and crash
//! recovery of the network configuration.
//!
//! All scenarios run under [`System::run_until_shuffled`] so the
//! properties hold for *any* legal delivery order of same-instant
//! events, not just the canonical one.
#![allow(clippy::field_reassign_with_default)]

use cras_repro::media::StreamProfile;
use cras_repro::net::{LinkParams, NetFaults, SessionCfg};
use cras_repro::sim::{Duration, Instant, Rng};
use cras_repro::sys::{ClientId, SysConfig, System};

const VIEWERS: usize = 4;

/// Builds the shared scenario: a four-viewer batched-join audience on
/// one hot title plus one solo title, every session on one fast
/// uncontended LAN segment (so lateness can only come from the
/// delivery machinery itself, never from congestion).
fn scenario_cfg() -> SysConfig {
    let mut cfg = SysConfig::default();
    cfg.seed = 0x4E7D;
    cfg.server.cache_budget = 64 << 20;
    cfg.server.join_window = Duration::from_secs(1);
    cfg
}

fn build(multicast: bool, faults: Option<NetFaults>) -> (System, Vec<ClientId>) {
    let mut sys = System::new(scenario_cfg());
    let hot = sys.record_movie("hit.mov", StreamProfile::mpeg1(), 4.0);
    let solo = sys.record_movie("solo.mov", StreamProfile::mpeg1(), 4.0);
    let mut clients: Vec<ClientId> = (0..VIEWERS)
        .map(|_| sys.add_cras_player(&hot, 1).expect("admission"))
        .collect();
    clients.push(sys.add_cras_player(&solo, 1).expect("admission"));
    let link = sys.net_add_link(LinkParams::fast_lan());
    sys.net_set_multicast(multicast);
    sys.net_set_link_faults(link, faults);
    for &c in &clients {
        sys.net_attach(c, link, SessionCfg::default());
    }
    for &c in &clients {
        sys.start_playback(c);
    }
    (sys, clients)
}

/// Runs the scenario to quiescence under a shuffled delivery order and
/// returns per-session `(bytes_played, late_frames, playout_log)` plus
/// the shared link's byte counter and the delivery canonical JSON.
type SessionTrace = (u64, u64, Vec<(u32, u64, bool)>);

fn run(
    multicast: bool,
    faults: Option<NetFaults>,
    shuffle_seed: u64,
) -> (Vec<SessionTrace>, u64, String, String) {
    let (mut sys, clients) = build(multicast, faults);
    let mut rng = Rng::new(shuffle_seed);
    sys.run_until_shuffled(Instant::ZERO + Duration::from_secs(8), &mut rng);
    let traces = clients
        .iter()
        .map(|c| {
            let s = sys.net.session(c.0).expect("session exists");
            (
                s.stats.bytes_played,
                s.stats.late_frames,
                s.stats.playout_log.clone(),
            )
        })
        .collect();
    (
        traces,
        sys.net.link(0).stats.bytes_sent,
        sys.net.canonical_json(),
        sys.metrics.canonical_json(),
    )
}

#[test]
fn multicast_is_byte_and_timestamp_equivalent_to_unicast_when_uncontended() {
    let (uni, uni_bytes, _, _) = run(false, None, 0);
    let (multi, multi_bytes, _, _) = run(true, None, 0);
    assert_eq!(uni.len(), multi.len());
    for (i, (u, m)) in uni.iter().zip(&multi).enumerate() {
        assert!(u.2.len() > 60, "session {i}: degenerate playout log");
        assert_eq!(u.1, 0, "session {i}: unicast late frames");
        assert_eq!(m.1, 0, "session {i}: multicast late frames");
        assert_eq!(
            u.0, m.0,
            "session {i}: multicast changed the bytes delivered"
        );
        assert_eq!(
            u.2, m.2,
            "session {i}: multicast shifted a playout timestamp"
        );
    }
    // Same frames, same instants — but the group rode one transmission.
    assert!(
        multi_bytes < uni_bytes,
        "multicast did not reduce wire bytes: {multi_bytes} vs {uni_bytes}"
    );
}

#[test]
fn zero_probability_fault_injection_is_bit_for_bit_invisible() {
    let none = run(true, None, 3);
    let zero = run(
        true,
        Some(NetFaults {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            seed: 0xFA_17,
        }),
        3,
    );
    assert_eq!(none.0, zero.0, "session traces diverged");
    assert_eq!(none.1, zero.1, "wire bytes diverged");
    assert_eq!(none.2, zero.2, "delivery canonical JSON diverged");
    assert_eq!(none.3, zero.3, "system metrics diverged");
}

#[test]
fn delivery_is_independent_of_same_instant_event_order() {
    let reference = run(true, Some(NetFaults::loss(0.02, 7)), 0);
    let played: u64 = reference.0.iter().map(|t| t.2.len() as u64).sum();
    assert!(played > 0, "degenerate scenario: nothing played out");
    for seed in 1..5u64 {
        let other = run(true, Some(NetFaults::loss(0.02, 7)), seed);
        assert_eq!(
            other.0, reference.0,
            "seed {seed}: session traces diverged under a different order"
        );
        assert_eq!(
            other.2, reference.2,
            "seed {seed}: delivery canonical JSON diverged"
        );
        assert_eq!(other.3, reference.3, "seed {seed}: metrics diverged");
    }
}

#[test]
fn recovery_restores_links_sessions_and_multicast() {
    let (mut victim, clients) = build(true, None);
    victim.run_until(Instant::ZERO + Duration::from_secs(2));
    let crash_at = victim.now();
    let journal = victim.journal().clone();
    drop(victim);

    let (mut rec, remap) = System::recover(scenario_cfg(), &journal, crash_at);
    assert_eq!(rec.net.link_count(), 1, "link not recovered");
    assert!(rec.net.is_multicast(), "multicast flag not recovered");
    for c in &clients {
        let new = remap[&c.0];
        assert!(
            rec.net.has_session(new),
            "client {} lost its delivery session",
            c.0
        );
    }
    rec.run_for(Duration::from_secs(10));
    for c in &clients {
        let p = &rec.players[&remap[&c.0]];
        assert!(p.done, "recovered player {} never finished", c.0);
        let s = rec.net.session(remap[&c.0]).expect("session exists");
        assert!(
            s.stats.frames_played > 0,
            "recovered session {} never played a frame",
            c.0
        );
    }
}

/// A slow-draining client behind tight watermarks: delivery
/// backpressure parks its stream again and again, sometimes just after
/// an interval's batch was posted. The batch planned at that tick is
/// still in flight and lands at the next one in a buffer whose clock
/// has stopped, so it never consumed the interval the `B_i = 2·A_i`
/// bound counts on. The overflow must be dropped and fetched again
/// after the resume, with every frame still played.
#[test]
fn backpressure_park_with_reads_in_flight_keeps_the_buffer_bound() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("slow.mov", StreamProfile::mpeg1(), 30.0);
    let link = sys.net_add_link(LinkParams::ethernet_10mbps());
    let client = sys.add_cras_player(&movie, 1).expect("admission");
    sys.net_attach(
        client,
        link,
        SessionCfg {
            playout_delay: Duration::from_millis(500),
            high_watermark: 128 << 10,
            low_watermark: 64 << 10,
            drain_scale: 1.25,
        },
    );
    sys.start_playback(client);
    sys.run_for(Duration::from_secs(60));

    assert!(sys.metrics.net_parks > 1, "backpressure never parked");
    let p = &sys.players[&client.0];
    assert!(p.done, "playback never finished");
    assert_eq!(p.stats.frames_shown, movie.table.len() as u64);
    assert_eq!(p.stats.frames_dropped, 0);
    let s = sys.net.session(client.0).expect("session exists");
    assert_eq!(s.stats.frames_played, movie.table.len() as u64);
    assert_eq!(s.stats.late_frames, 0);
}
