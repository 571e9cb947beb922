//! Regenerates Figure 6: CRAS vs UFS throughput, 1–25 streams, ±load.

use cras_bench::{quick_mode, write_bench, write_result};
use cras_sim::Duration;
use cras_workload::fig6::{run, Fig6Config};

fn main() {
    let quick = quick_mode();
    let cfg = if quick {
        Fig6Config {
            max_streams: 13,
            step: 4,
            measure: Duration::from_secs(10),
            ..Fig6Config::default()
        }
    } else {
        Fig6Config::default()
    };
    let fig = run(&cfg);
    println!("{}", fig.render());
    let disk_rate = 6.5e6;
    for s in &fig.series {
        if let Some(y) = s.last_y() {
            println!(
                "# {}: final {:.2} MB/s = {:.0}% of disk rate",
                s.name,
                y / 1e6,
                100.0 * y / disk_rate
            );
        }
    }
    let json = fig.to_json();
    write_result("fig6", &json);
    write_bench("fig6", &json, quick);
}
