//! Cross-crate integration tests: the whole pipeline from movie recording
//! through UFS layout, CRAS scheduling, the simulated disk and CPU, to a
//! playing client.
#![allow(clippy::field_reassign_with_default)]

use cras_repro::media::StreamProfile;
use cras_repro::sim::{Duration, Instant};
use cras_repro::sys::{SchedMode, SysConfig, System};

#[test]
fn full_playback_pipeline_delivers_every_frame() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("e2e.mov", StreamProfile::mpeg1(), 8.0);
    let client = sys.add_cras_player(&movie, 1).unwrap();
    let start = sys.start_playback(client);
    assert_eq!(
        start,
        Instant::ZERO + Duration::from_secs(1),
        "1 s initial delay"
    );
    sys.run_for(Duration::from_secs(12));
    let p = &sys.players[&client.0];
    assert!(p.done);
    assert_eq!(p.stats.frames_shown, 240);
    assert_eq!(p.stats.frames_dropped, 0);
    assert_eq!(sys.metrics.overruns, 0);
}

#[test]
fn concurrent_cras_and_ufs_players_coexist() {
    let mut sys = System::new(SysConfig::default());
    let a = sys.record_movie("a.mov", StreamProfile::mpeg1(), 6.0);
    let b = sys.record_movie("b.mov", StreamProfile::mpeg1(), 6.0);
    let ca = sys.add_cras_player(&a, 1).unwrap();
    let cb = sys.add_ufs_player(&b, 1);
    sys.start_playback(ca);
    sys.start_playback(cb);
    sys.run_for(Duration::from_secs(10));
    assert!(sys.players[&ca.0].done);
    assert!(sys.players[&cb.0].done);
    // The RT queue protected the CRAS stream.
    assert_eq!(sys.players[&ca.0].stats.frames_dropped, 0);
}

#[test]
fn cras_reads_respect_256k_limit_and_rt_class() {
    let mut sys = System::new(SysConfig::default());
    // 6 Mbps stream: each interval needs ~375 KB => at least two reads.
    let movie = sys.record_movie("big.mov", StreamProfile::mpeg2(), 6.0);
    let client = sys.add_cras_player(&movie, 1).unwrap();
    sys.start_playback(client);
    sys.run_for(Duration::from_secs(9));
    let stats = sys.cras.stats();
    assert!(stats.reads_issued >= 2 * stats.intervals.min(10) / 2);
    // Disk saw real-time traffic only (no UFS fetches in this scenario
    // beyond none — the movie is read via raw extents).
    let (rt_ops, normal_ops) = sys.disk().stats().ops;
    assert!(rt_ops > 0);
    assert_eq!(normal_ops, 0);
    let p = &sys.players[&client.0];
    assert_eq!(p.stats.frames_dropped, 0);
}

#[test]
fn seek_repositions_playback_mid_run() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("seek.mov", StreamProfile::mpeg1(), 20.0);
    let client = sys.add_cras_player(&movie, 1).unwrap();
    let start = sys.start_playback(client);
    // Play 12 s, then jump back to media time 10 s (a replay seek).
    sys.run_until(start + Duration::from_secs(12));
    let shown_before = sys.players[&client.0].stats.frames_shown;
    // The crs_* seek protocol: stop the clock, reposition, start again
    // (start re-arms the initial delay so the pipeline can refill).
    sys.seek_playback(client, Duration::from_secs(10));
    sys.run_for(Duration::from_secs(5));
    let p = &sys.players[&client.0];
    // Frames from the new position played (some may drop right at the
    // seek boundary while the pipeline refills).
    assert!(
        p.stats.frames_shown > shown_before + 80,
        "shown {} (before seek {shown_before})",
        p.stats.frames_shown
    );
    assert!(p.next_frame > 350);
}

#[test]
fn round_robin_degrades_and_fixed_priority_protects() {
    let run = |sched: SchedMode| {
        let mut cfg = SysConfig::default();
        cfg.sched = sched;
        cfg.hogs = 3;
        let mut sys = System::new(cfg);
        let movie = sys.record_movie("m.mov", StreamProfile::mpeg1(), 6.0);
        let c = sys.add_cras_player(&movie, 1).unwrap();
        sys.start_hogs();
        sys.start_playback(c);
        sys.run_for(Duration::from_secs(10));
        sys.players[&c.0].delay_summary().1
    };
    let fp = run(SchedMode::FixedPriority);
    let rr = run(SchedMode::RoundRobin {
        quantum: Duration::from_millis(100),
    });
    assert!(fp < 0.01, "fixed-priority max delay {fp}");
    assert!(rr > 0.1, "round-robin max delay {rr}");
}

#[test]
fn server_memory_footprint_matches_paper_formula() {
    let mut sys = System::new(SysConfig::default());
    assert_eq!(sys.cras.memory_bytes(), 250 * 1024);
    let movie = sys.record_movie("m.mov", StreamProfile::mpeg1(), 5.0);
    let _ = sys.add_cras_player(&movie, 1).unwrap();
    let mem = sys.cras.memory_bytes();
    // 250 KB + B_i (≈ 200 KB for one MPEG-1 stream at T = 0.5 s).
    assert!(
        (250 * 1024 + 195_000..250 * 1024 + 205_000).contains(&mem),
        "memory {mem}"
    );
}

#[test]
fn background_load_does_not_steal_from_rt_queue() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("m.mov", StreamProfile::mpeg1(), 10.0);
    let noise = sys.record_movie("noise.mov", StreamProfile::mpeg2(), 15.0);
    let c = sys.add_cras_player(&movie, 1).unwrap();
    sys.add_bg_reader(&noise);
    sys.add_bg_reader(&noise);
    sys.start_bg();
    sys.start_playback(c);
    sys.run_for(Duration::from_secs(14));
    let p = &sys.players[&c.0];
    assert!(p.done);
    assert_eq!(
        p.stats.frames_dropped, 0,
        "RT queue must protect the stream"
    );
    // And the cats did make progress on the leftovers.
    let bg_bytes: u64 = sys.bgs.values().map(|b| b.bytes_read).sum();
    assert!(bg_bytes > 1 << 20, "bg bytes {bg_bytes}");
}
