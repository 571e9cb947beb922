//! Regenerates the interval-cache sharing experiment.

use cras_bench::{quick_mode, write_bench, write_result};
use cras_sim::Duration;
use cras_workload::cache_sharing::sweep;

fn main() {
    let quick = quick_mode();
    let budgets: &[u64] = if quick {
        &[0, 64 << 20]
    } else {
        &[0, 16 << 20, 32 << 20, 64 << 20, 128 << 20]
    };
    let (requested, measure) = if quick {
        (24, Duration::from_secs(10))
    } else {
        (30, Duration::from_secs(20))
    };
    let (t, f, outs) = sweep(
        budgets,
        requested,
        10,
        Duration::from_millis(1500),
        measure,
        0xCA5E,
    );
    println!("{}", t.render());
    println!("{}", f.render());
    for (name, json) in [
        ("cache_sharing", t.to_json()),
        ("cache_sharing_admitted", f.to_json()),
    ] {
        write_result(name, &json);
        write_bench(name, &json, quick);
    }
    // Smoke contract for CI: the cache admitted extra viewers and every
    // admitted stream kept every deadline.
    let base = outs.first().expect("budget 0 ran");
    let best = outs.last().expect("budgeted run");
    assert_eq!(base.cache_admitted, 0, "budget 0 must be the baseline");
    assert!(
        best.cache_admitted > 0 && best.admitted > base.admitted,
        "cache never admitted past the disk bound: {outs:?}"
    );
    assert!(
        outs.iter().all(|o| o.dropped == 0 && o.overruns == 0),
        "deadline violations: {outs:?}"
    );
}
