//! Regenerates the mirrored-placement failover experiment.

use cras_bench::{quick_mode, write_bench, write_result};
use cras_sim::Duration;
use cras_workload::failover::sweep;

fn main() {
    let quick = quick_mode();
    let (counts, measure): (&[usize], Duration) = if quick {
        (&[2, 4], Duration::from_secs(10))
    } else {
        (&[2, 4, 8, 12], Duration::from_secs(20))
    };
    let (t, f, _outs) = sweep(counts, 4, measure, 0xF417);
    println!("{}", t.render());
    println!("{}", f.render());
    for (artifact, json) in [("failover", t.to_json()), ("failover_rebuild", f.to_json())] {
        write_result(artifact, &json);
        write_bench(artifact, &json, quick);
    }
}
