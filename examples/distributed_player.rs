//! The Figure 11 distributed configuration: QtPlay on one machine
//! retrieving through CRAS and streaming frames over a 10 Mbps Ethernet
//! (the paper's network) to a viewer — the intro's "travel coordinator"
//! checking video clips remotely.
//!
//! ```text
//! cargo run --release --example distributed_player
//! ```

use cras_repro::media::StreamProfile;
use cras_repro::net::{LinkParams, SessionCfg};
use cras_repro::sim::Duration;
use cras_repro::sys::{SysConfig, System};

fn main() {
    let mut sys = System::new(SysConfig::default());
    let movie = sys.record_movie("clip.mov", StreamProfile::mpeg1(), 20.0);
    let client = sys.add_cras_player(&movie, 1).expect("admission passes");

    // The network hop: every frame the player decodes is shipped over
    // NPS/Ethernet into the remote viewer's playout buffer.
    let link = sys.net_add_link(LinkParams::ethernet_10mbps());
    sys.net_attach(client, link, SessionCfg::default());
    sys.start_playback(client);
    sys.run_for(Duration::from_secs(25));

    let shown = sys.players[&client.0].stats.frames_shown;
    let s = sys.net.session(client.0).expect("attached above");
    let l = sys.net.link(link);
    println!("frames streamed:        {}", l.stats.packets_sent);
    println!(
        "bytes over Ethernet:    {:.2} MB",
        l.stats.bytes_sent as f64 / 1e6
    );
    println!(
        "network throughput:     {:.2} Mbps of 10",
        l.throughput() * 8.0 / 1e6
    );
    println!(
        "remote playout:         {} of {} frames, {} late, {:.2} ms mean link queueing",
        s.stats.frames_played,
        shown,
        s.stats.late_frames,
        l.stats.queued_ns as f64 / l.stats.packets_sent.max(1) as f64 / 1e6
    );
    assert_eq!(
        s.stats.frames_played, shown,
        "every frame reaches the viewer"
    );
    assert_eq!(s.stats.late_frames, 0, "remote viewing stays timely");
    println!("ok: one MPEG-1 stream fits the paper's 10 Mbps Ethernet with zero late frames");
}
