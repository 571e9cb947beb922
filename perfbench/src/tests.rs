//! Tests of the benchmark's own metric code, on small shapes of the
//! workloads.

use cras_sim::json::{self, Json};
use cras_sim::{Duration, Instant};

use crate::common::{total_viewers, Outcome, Seen, Viewer};
use crate::report::{self, HostTimes};
use crate::trace::{name, Tracer};
use crate::{catalog_storm, cold_rebuild, net_fanout, Workload, GATED};

fn small(w: Workload, seed: u64, traced: bool) -> Outcome {
    let mut tr = Tracer::new(traced);
    match w {
        Workload::CatalogStorm => {
            catalog_storm::run(&catalog_storm::Params::small(), seed, &mut tr)
        }
        Workload::ColdRebuild => cold_rebuild::run(&cold_rebuild::Params::small(), seed, &mut tr),
        Workload::NetFanout => net_fanout::run(&net_fanout::Params::small(), seed, &mut tr),
    }
}

fn viewer(opened_ms: u64, served: bool) -> Viewer {
    Viewer {
        opened: Instant::ZERO + Duration::from_millis(opened_ms),
        served_by: served.then_some((0, 0)),
        lost: false,
        finished: served,
    }
}

fn seen(first_ms: u64, dropped: u64, late: u64) -> Seen {
    Seen {
        title_frames: 10 + dropped + late,
        shown: 10,
        dropped,
        late,
        first_frame: Some(Instant::ZERO + Duration::from_millis(first_ms)),
        rebuffering: false,
    }
}

#[test]
fn refused_viewers_fail_and_have_no_startup() {
    let viewers = [
        viewer(0, true),
        viewer(100, false),
        viewer(200, true),
        viewer(300, true),
    ];
    let seen_all = [
        Some(seen(1000, 0, 0)),
        None,
        Some(seen(1700, 1, 0)),
        Some(seen(1400, 0, 0)),
    ];
    let t = total_viewers(&viewers, &seen_all);
    assert_eq!((t.requested, t.admitted), (4, 3));
    // The refused viewer and the one that dropped a frame.
    assert_eq!(t.failed, 2);
    assert_eq!(t.startup_ms, vec![1000.0, 1500.0, 1100.0]);
    assert_eq!(t.unaccounted, 0);

    let mut o = Outcome {
        viewers: t,
        ..Outcome::default()
    };
    let r = report::sim_result(&mut o);
    assert_eq!(r.metrics["failed_share"].value, 0.5);
    assert_eq!(r.metrics["admitted_share"].value, 0.75);
    // Neither the refusal nor the dropped frame broke a session.
    assert_eq!(r.broken_sessions, 0);
    assert_eq!(r.metrics["startup_p50_ms"].value, 1100.0);
    let (_, tail) = r.tails[0];
    assert_eq!((tail.n, tail.pct), (3, 100.0));
}

#[test]
fn rebuffering_viewers_fail_and_unaccounted_frames_are_caught() {
    let viewers = [viewer(0, true), viewer(0, true)];
    let mut stuck = seen(500, 0, 0);
    stuck.rebuffering = true;
    let mut short = seen(500, 0, 0);
    short.title_frames += 1;
    let t = total_viewers(&viewers, &[Some(stuck), Some(short)]);
    assert_eq!(t.failed, 1);
    assert_eq!(t.unaccounted, 1);
    let r = report::sim_result(&mut Outcome {
        viewers: t,
        ..Outcome::default()
    });
    assert_eq!(r.broken_sessions, 1, "unaccounted frames break a session");
}

#[test]
fn lost_viewers_were_admitted_and_break_their_session() {
    let mut lost = viewer(0, false);
    lost.lost = true;
    let t = total_viewers(&[lost, viewer(0, false)], &[None, None]);
    assert_eq!((t.admitted, t.failed, t.lost), (1, 2, 1));
    let r = report::sim_result(&mut Outcome {
        viewers: t,
        ..Outcome::default()
    });
    // The lost session failed; the refused one did not.
    assert_eq!(r.broken_sessions, 1);
}

#[test]
fn run_time_and_ns_per_frame_exclude_setup_and_spans_carry_the_session() {
    let o = small(Workload::CatalogStorm, 7, true);
    let run = o
        .spans
        .iter()
        .find(|s| s.name == name::RUN)
        .expect("a run span");
    for s in o.spans.iter().filter(|s| s.name.starts_with("setup.")) {
        assert!(s.end <= run.start, "set-up span {} inside the run", s.name);
    }
    let run_span_s = run.dur() as f64 / 1e9;
    assert!(
        o.run_s >= run_span_s,
        "run_s {} < span {run_span_s}",
        o.run_s
    );
    assert!(
        o.run_s - run_span_s < 0.01,
        "run_s includes more than the run"
    );
    // A viewer's spans share its session id.
    let opened: Vec<u64> = o
        .spans
        .iter()
        .filter(|s| s.name == name::OPEN)
        .map(|s| s.session)
        .collect();
    let closes = o.spans.iter().filter(|s| s.name == name::CLOSE);
    assert!(closes.clone().count() > 0);
    for c in closes {
        assert!(
            opened.contains(&c.session),
            "close of unopened {}",
            c.session
        );
    }
    let frames = o.viewers.shown;
    assert!(frames > 0);
    let h = report::host_times(&o, frames);
    assert_eq!(h.run_s, o.run_s);
    assert_eq!(h.setup_s, o.build_s + o.record_s);
    assert_eq!(h.ns_per_frame, o.run_s * 1e9 / frames as f64);
}

#[test]
fn digest_repeats_for_a_seed_and_tracing_leaves_it_alone() {
    for w in Workload::ALL {
        let a = report::sim_result(&mut small(w, 11, false));
        let b = report::sim_result(&mut small(w, 11, true));
        assert_eq!(a.digest, b.digest, "{}: traced run differs", w.name());
        assert_eq!(a.metrics, b.metrics, "{}", w.name());
        let c = report::sim_result(&mut small(w, 12, false));
        assert_ne!(a.digest, c.digest, "{}: the seed changes nothing", w.name());
    }
}

#[test]
fn small_workloads_pass_their_output_checks() {
    for w in Workload::ALL {
        let o = small(w, 3, false);
        assert!(o.broken.is_empty(), "{}: {:?}", w.name(), o.broken);
        assert_eq!(o.viewers.unaccounted, 0, "{}", w.name());
        assert!(
            o.viewers.admitted > 0 && o.viewers.shown > 0,
            "{}",
            w.name()
        );
    }
}

#[test]
fn per_layer_metrics_cover_every_layer() {
    let mut o = small(Workload::ColdRebuild, 5, true);
    let traced = report::traced(&o);
    let r = report::sim_result(&mut o);
    let h = [HostTimes {
        run_s: o.run_s,
        ..HostTimes::default()
    }];
    let m = report::per_layer(&r, &[traced], &h, &h);
    for layer in [
        "sim", "rtmach", "disk", "ufs", "core", "sys", "net", "cluster", "setup", "driver",
    ] {
        assert!(
            m.keys().any(|k| k.starts_with(&format!("{layer}."))),
            "no {layer} metric"
        );
    }
    assert!(m["sys.step_us_tail"].value > 0.0);
    assert!(m["core.admit_us_p50"].value > 0.0);
    assert!(m["disk.ops_normal"].value > 0.0, "rebuild and cat ran");
}

/// Names under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_what_the_command_prints() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared("workloads"), workloads);
    let mut gated: Vec<&str> = GATED.iter().map(|(k, _)| *k).collect();
    gated.sort_unstable();
    let mut e2e = declared("end_to_end");
    e2e.sort();
    assert_eq!(e2e, gated);

    let mut o = small(Workload::NetFanout, 2, true);
    let traced = report::traced(&o);
    let r = report::sim_result(&mut o);
    let h = [HostTimes::default()];
    let printed: Vec<&str> = report::per_layer(&r, &[traced], &h, &h)
        .into_keys()
        .collect();
    let mut layers = declared("per_layer");
    layers.sort();
    assert_eq!(layers, printed);
    let e2e = report::end_to_end(&h, &h, &r, 1.0, 1.0);
    for (k, unit) in GATED {
        assert_eq!(e2e[k].unit, unit, "{k}");
    }
    // A run in which no repetition finished prints the same names.
    let none: Vec<&str> = crate::unmeasured(true).into_keys().collect();
    assert_eq!(layers, none);
    assert!(crate::unmeasured(false).values().all(|m| m.value.is_nan()));
}

#[test]
fn end_to_end_host_times_scale_with_the_reference() {
    let mut o = small(Workload::ColdRebuild, 4, false);
    let r = report::sim_result(&mut o);
    let h = [report::host_times(&o, r.frames)];
    let at1 = report::end_to_end(&h, &h, &r, 1.0, 1.0);
    let at2 = report::end_to_end(&h, &h, &r, 1.0, 2.0);
    for k in ["setup_s", "run_s", "ns_per_frame"] {
        assert_eq!(at2[k].value, 2.0 * at1[k].value, "{k}");
    }
    assert_eq!(at2["admitted_share"], at1["admitted_share"]);
    assert!(crate::reference::pass_s() > 0.0);
}
