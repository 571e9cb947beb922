//! Regenerates Figure 10: fixed priority vs round robin under CPU load.

use cras_bench::{quick_mode, write_bench, write_result};
use cras_sim::Duration;
use cras_workload::fig10::{run, Fig10Config};

fn main() {
    let quick = quick_mode();
    let cfg = if quick {
        Fig10Config {
            trace: Duration::from_secs(15),
            ..Fig10Config::default()
        }
    } else {
        Fig10Config::default()
    };
    let (fig, fp, rr) = run(&cfg);
    println!("{}", fig.render());
    println!("# FixedPriority delay: mean {:.4}s max {:.4}s", fp.0, fp.1);
    println!("# RoundRobin    delay: mean {:.4}s max {:.4}s", rr.0, rr.1);
    let json = fig.to_json();
    write_result("fig10", &json);
    write_bench("fig10", &json, quick);
}
