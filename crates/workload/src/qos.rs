//! Dynamic QOS control — the §2.4/§3.2 QtPlay scenario.
//!
//! "Our QuickTime player can change the frame rate of a movie at any time
//! without notifying CRAS because the time-driven shared buffer enables
//! applications to support this flexibility." The client halves or
//! two-thirds its consumption rate mid-playback by sampling every third
//! frame; the server keeps retrieving at the recorded rate, obsolete
//! frames age out by timestamp, and nothing stalls.

use cras_media::StreamProfile;
use cras_sim::Duration;
use cras_sys::{PlayerMode, SysConfig, System};

use crate::result::KvTable;

/// Outcome of the rate-change scenario.
#[derive(Clone, Copy, Debug)]
pub struct QosOutcome {
    /// Frames shown in the full-rate phase.
    pub full_rate_frames: u64,
    /// Frames shown in the reduced-rate phase.
    pub reduced_rate_frames: u64,
    /// Frames dropped over the whole run.
    pub dropped: u64,
    /// Chunks the buffer discarded as obsolete (the skipped frames).
    pub discarded: u64,
    /// Maximum frame delay, seconds.
    pub max_delay: f64,
    /// Server bytes fetched (unchanged by the client's rate).
    pub bytes_fetched: u64,
}

/// Plays `total` seconds, dropping to every-third-frame consumption at
/// `switch_at` into playback — without any server call.
pub fn run(total: Duration, switch_at: Duration, seed: u64) -> (KvTable, QosOutcome) {
    assert!(switch_at < total, "switch after end");
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    let mut sys = System::new(cfg);
    let movie = sys.record_movie("qos.mov", StreamProfile::mpeg1(), total.as_secs_f64() + 2.0);
    let client = sys.add_cras_player(&movie, 1).expect("one stream fits");
    let start = sys.start_playback(client);

    sys.run_until(start + switch_at);
    let frames_at_switch = sys.players[&client.0].stats.frames_shown;
    // The dynamic QOS move: the *client* changes its own sampling — no
    // crs_* call is made.
    sys.set_stride(client, 3);
    sys.run_until(start + total);

    let p = &sys.players[&client.0];
    let PlayerMode::Cras { stream } = p.mode else {
        unreachable!("cras player")
    };
    let buf_stats = sys.cras.stream(stream).buffer.stats();
    let out = QosOutcome {
        full_rate_frames: frames_at_switch,
        reduced_rate_frames: p.stats.frames_shown - frames_at_switch,
        dropped: p.stats.frames_dropped,
        discarded: buf_stats.discarded,
        max_delay: p.delay_summary().1,
        bytes_fetched: sys.metrics.cras_read_bytes,
    };

    let mut t = KvTable::new(
        "qos",
        "Dynamic QOS: 30 fps -> 10 fps without notifying CRAS",
    );
    t.row(
        "full-rate frames shown",
        format!("{}", out.full_rate_frames),
        "",
    );
    t.row(
        "reduced-rate frames shown",
        format!("{}", out.reduced_rate_frames),
        "",
    );
    t.row("frames dropped", format!("{}", out.dropped), "");
    t.row(
        "chunks aged out by timestamp",
        format!("{}", out.discarded),
        "",
    );
    t.row("max frame delay", format!("{:.4}", out.max_delay), "s");
    t.row(
        "server bytes fetched",
        format!("{}", out.bytes_fetched),
        "B (rate unchanged)",
    );
    (t, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_change_needs_no_server_cooperation() {
        let total = Duration::from_secs(12);
        let switch = Duration::from_secs(6);
        let (_t, out) = run(total, switch, 17);
        // Phase 1: ~30 fps for 6 s => ~180 frames.
        assert!(
            (160..=185).contains(&out.full_rate_frames),
            "full-rate frames {}",
            out.full_rate_frames
        );
        // Phase 2: ~10 fps for 6 s => ~60 frames.
        assert!(
            (45..=70).contains(&out.reduced_rate_frames),
            "reduced frames {}",
            out.reduced_rate_frames
        );
        // No drops, no stalls; skipped frames aged out automatically.
        assert_eq!(out.dropped, 0);
        assert!(out.discarded > 80, "discarded {}", out.discarded);
        assert!(out.max_delay < 0.05, "max delay {}", out.max_delay);
        // Server kept fetching the full stream (~12 s of 187.5 KB/s).
        assert!(
            out.bytes_fetched as f64 > 0.9 * 12.0 * 187_500.0,
            "bytes {}",
            out.bytes_fetched
        );
    }
}
