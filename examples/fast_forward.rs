//! Fast forward (paper §2.1): "If an application wants to play back the
//! video stream at 60 fps (Fast Forward), CRAS needs to retrieve all the
//! video frames at twice the normal speed since CRAS cannot skip video
//! frames during the retrieval." `crs_set_rate` re-runs the admission
//! test at the scaled rate and doubles the retrieval clock.
//!
//! ```text
//! cargo run --release --example fast_forward
//! ```

use cras_repro::media::StreamProfile;
use cras_repro::sim::Duration;
use cras_repro::sys::{SysConfig, System};

fn main() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("ff.mov", StreamProfile::mpeg1(), 40.0);
    let client = sys.add_cras_player(&movie, 1).expect("admission passes");
    let start = sys.start_playback(client);

    // Normal playback for 5 seconds.
    sys.run_until(start + Duration::from_secs(5));
    let fetched_normal = sys.metrics.cras_read_bytes;
    println!(
        "normal speed: {:.2} MB fetched in 5 s ({:.0} B/s)",
        fetched_normal as f64 / 1e6,
        fetched_normal as f64 / 5.0
    );

    // Fast forward: the server retrieves at 2x; the admission test is
    // re-run with the doubled rate. The stream then stops and starts
    // again, so the clock re-arms with the initial delay and the client
    // re-anchors its schedule, compressed 2x, at the new clock start.
    let now = sys.now();
    sys.set_playback_rate(client, 2.0)
        .expect("one stream at 2x still fits");
    sys.run_until(now + Duration::from_secs(5));
    let fetched_ff = sys.metrics.cras_read_bytes - fetched_normal;
    println!(
        "fast forward: {:.2} MB fetched in the next 5 s ({:.0} B/s)",
        fetched_ff as f64 / 1e6,
        fetched_ff as f64 / 5.0
    );
    let p = &sys.players[&client.0];
    println!(
        "frames shown: {}  dropped: {}",
        p.stats.frames_shown, p.stats.frames_dropped
    );
    println!(
        "retrieval rate {:.2}x over the window (1 s of it was the re-arm pause; steady state is 2x)",
        fetched_ff as f64 / fetched_normal as f64
    );

    // An absurd request is refused by the admission test.
    let err = sys.set_playback_rate(client, 64.0);
    println!("crs_set_rate(64x) -> {}", err.expect_err("must be refused"));
}
