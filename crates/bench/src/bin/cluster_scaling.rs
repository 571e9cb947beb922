//! Regenerates the sharded-cluster scaling experiment: a 4-shard ×
//! 4-volume gateway over a 1000-title Zipf catalog, viewers swept, the
//! busiest shard killed mid-run.

use cras_bench::{quick_mode, write_bench, write_result};
use cras_sim::Duration;
use cras_workload::cluster_scaling::{sweep, ClusterParams};

fn main() {
    let quick = quick_mode();
    let (mut p, counts): (ClusterParams, &[usize]) = if quick {
        let mut p = ClusterParams::standard();
        p.shards = 3;
        p.volumes = 2;
        p.titles = 120;
        p.stagger = Duration::from_millis(300);
        p.measure = Duration::from_secs(12);
        (p, &[160])
    } else {
        (ClusterParams::standard(), &[240, 480, 960])
    };
    p.stepping = cras_cluster::Stepping::Lockstep;
    let (t, f, outs) = sweep(&p, counts);
    println!("{}", t.render());
    println!("{}", f.render());
    for o in &outs {
        assert_eq!(o.dropped, 0, "dropped frames at {} viewers", o.requested);
        assert_eq!(
            o.overruns, 0,
            "deadline warnings at {} viewers",
            o.requested
        );
    }
    for (name, json) in [
        ("cluster_scaling", t.to_json()),
        ("cluster_scaling_served", f.to_json()),
    ] {
        write_result(name, &json);
        write_bench(name, &json, quick);
    }
}
