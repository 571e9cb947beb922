//! Dynamic QOS control (paper §2.4): a client drops from 30 fps to
//! 10 fps mid-playback *without telling the server*. The time-driven
//! shared buffer ages skipped frames out by timestamp; nothing stalls and
//! no feedback protocol runs.
//!
//! ```text
//! cargo run --release --example qos_player
//! ```

use cras_repro::media::StreamProfile;
use cras_repro::sim::Duration;
use cras_repro::sys::{PlayerMode, SysConfig, System};

fn main() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("qos.mov", StreamProfile::mpeg1(), 24.0);
    let client = sys.add_cras_player(&movie, 1).expect("admission passes");
    let start = sys.start_playback(client);

    // Phase 1: full rate for 10 seconds.
    sys.run_until(start + Duration::from_secs(10));
    let full = sys.players[&client.0].stats.frames_shown;
    println!("phase 1 (30 fps): {full} frames shown");

    // The QOS move: the client simply samples every third frame from the
    // shared buffer. No crs_* call happens.
    sys.set_stride(client, 3);
    println!("client drops to 10 fps — server not notified");

    // Phase 2: reduced rate for 10 more seconds.
    sys.run_until(start + Duration::from_secs(20));
    let p = &sys.players[&client.0];
    println!(
        "phase 2 (10 fps): {} frames shown",
        p.stats.frames_shown - full
    );

    let PlayerMode::Cras { stream } = p.mode else {
        unreachable!("cras player")
    };
    let buf = sys.cras.stream(stream).buffer.stats();
    println!("frames dropped (stalls):        {}", p.stats.frames_dropped);
    println!("chunks aged out by timestamp:   {}", buf.discarded);
    println!(
        "max frame delay:                {:.2} ms",
        p.delay_summary().1 * 1e3
    );
    println!(
        "server kept fetching at the recorded rate: {:.2} MB read",
        sys.metrics.cras_read_bytes as f64 / 1e6
    );
    assert_eq!(p.stats.frames_dropped, 0);
    println!("ok: rate change absorbed entirely by the time-driven buffer");
}
