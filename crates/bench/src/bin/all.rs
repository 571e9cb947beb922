//! Runs every figure/table regeneration in sequence (pass `--quick` for
//! a fast smoke run). Equivalent to running each dedicated binary.
//!
//! Every artifact also lands on the perf trajectory as a
//! `BENCH_<name>.json` at the repo root (plus the unwrapped copy under
//! `results/`), and per-step wall timings are collected into
//! `BENCH_workloads.json`. With `--check`, the suite re-runs and each
//! artifact is compared against its committed baseline instead of
//! being rewritten — warn-only: drift prints a `WARN` line but never
//! fails the build.

use cras_bench::{check_bench, check_mode, quick_mode, strict_mode, write_bench, write_result};
use cras_sim::Duration;
use cras_workload as wl;

/// Routes each artifact to stdout plus the BENCH trajectory (write or
/// warn-only check), collecting per-step wall timings along the way.
struct Emitter {
    quick: bool,
    check: bool,
    strict: bool,
    drifted: Vec<&'static str>,
    started: std::time::Instant,
    last: std::time::Instant,
    steps: Vec<(&'static str, f64)>,
}

impl Emitter {
    fn new() -> Emitter {
        let now = std::time::Instant::now();
        Emitter {
            quick: quick_mode(),
            check: check_mode(),
            strict: strict_mode(),
            drifted: Vec::new(),
            started: now,
            last: now,
            steps: Vec::new(),
        }
    }

    /// Prints the rendered artifact and emits its JSON. The wall time
    /// since the previous emit is attributed to this step, so a step
    /// producing two artifacts charges the compute to the first.
    fn emit(&mut self, name: &'static str, text: &str, json: &str) {
        println!("{text}");
        self.steps.push((name, self.last.elapsed().as_secs_f64()));
        self.last = std::time::Instant::now();
        if self.check {
            if !check_bench(name, json, self.quick) {
                self.drifted.push(name);
            }
        } else {
            write_result(name, json);
            write_bench(name, json, self.quick);
        }
    }

    /// Emits the per-step timing artifact. Timings are the noisiest
    /// numbers in the suite, so under `--check` they get the same
    /// warn-only treatment as everything else (they never feed the
    /// `--strict` exit code). With `--check --strict`, any *workload*
    /// artifact that drifted past tolerance exits nonzero.
    fn finish(self) {
        let mut json = String::from("{\"steps\":[");
        for (i, (name, secs)) in self.steps.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!("{{\"name\":\"{name}\",\"wall_secs\":{secs:.3}}}"));
        }
        json.push_str(&format!(
            "],\"total_wall_secs\":{:.3}}}",
            self.started.elapsed().as_secs_f64()
        ));
        if self.check {
            check_bench("workloads", &json, self.quick);
            if self.strict && !self.drifted.is_empty() {
                println!("STRICT: drift in {}", self.drifted.join(", "));
                std::process::exit(1);
            }
        } else {
            write_bench("workloads", &json, self.quick);
        }
    }
}

fn main() {
    let mut em = Emitter::new();
    let quick = em.quick;
    let secs = |q: u64, f: u64| Duration::from_secs(if quick { q } else { f });

    let cal = wl::fig12::run_calibration();
    for (name, text, json) in [
        {
            let t = wl::fig12::table4(&cal);
            ("table4", t.render(), t.to_json())
        },
        {
            let t = wl::capacity::table3(cal.params);
            ("table3", t.render(), t.to_json())
        },
        {
            let f = wl::fig12::fig12(&cal);
            ("fig12", f.render(), f.to_json())
        },
        {
            let f = wl::capacity::figure(cal.params);
            ("capacity", f.render(), f.to_json())
        },
        {
            let (t, _) = wl::ablate::run(cal.params);
            ("ablate", t.render(), t.to_json())
        },
    ] {
        em.emit(name, &text, &json);
    }

    let fig6 = wl::fig6::run(&wl::fig6::Fig6Config {
        max_streams: if quick { 13 } else { 25 },
        step: if quick { 4 } else { 1 },
        measure: secs(10, 20),
        ..wl::fig6::Fig6Config::default()
    });
    em.emit("fig6", &fig6.render(), &fig6.to_json());

    let (fig7, c7, u7) = wl::fig7::run(&wl::fig7::Fig7Config {
        trace: secs(15, 60),
        ..wl::fig7::Fig7Config::default()
    });
    em.emit("fig7", &fig7.render(), &fig7.to_json());
    println!(
        "# CRAS delay mean/max: {:.4}/{:.4}s; UFS: {:.4}/{:.4}s",
        c7.0, c7.1, u7.0, u7.1
    );

    for (name, mut cfg) in [
        ("fig8", wl::admission_acc::AccuracyConfig::fig8()),
        ("fig9", wl::admission_acc::AccuracyConfig::fig9()),
    ] {
        if quick {
            cfg.measure = Duration::from_secs(10);
            cfg.step = if name == "fig8" { 4 } else { 2 };
        }
        let f = wl::admission_acc::run(&cfg);
        em.emit(name, &f.render(), &f.to_json());
    }

    let (fig10, fp, rr) = wl::fig10::run(&wl::fig10::Fig10Config {
        trace: secs(15, 60),
        ..wl::fig10::Fig10Config::default()
    });
    em.emit("fig10", &fig10.render(), &fig10.to_json());
    println!("# FP max {:.4}s vs RR max {:.4}s", fp.1, rr.1);

    let (frag_t, _) = wl::frag::run(if quick { 6 } else { 8 }, secs(10, 20), 0x5EED);
    em.emit("frag", &frag_t.render(), &frag_t.to_json());

    let (vbr_t, _, _) = wl::vbr::run(secs(10, 30), 0x5BB);
    em.emit("vbr", &vbr_t.render(), &vbr_t.to_json());

    let (qos_t, _) = wl::qos::run(secs(12, 30), secs(6, 15), 0x05);
    em.emit("qos", &qos_t.render(), &qos_t.to_json());

    let (faults_t, _) = wl::faults::sweep(&[0.0, 0.01, 0.05, 0.2, 0.6], 8, secs(10, 20), 0xFA17);
    em.emit("faults", &faults_t.render(), &faults_t.to_json());

    let fo_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8, 12] };
    let (fo_t, fo_f, _) = wl::failover::sweep(fo_counts, 4, secs(10, 20), 0xF417);
    em.emit("failover", &fo_t.render(), &fo_t.to_json());
    em.emit("failover_rebuild", &fo_f.render(), &fo_f.to_json());

    let (pf_t, pf_f, _) = wl::parity_failover::sweep(fo_counts, 4, secs(10, 20), 0x9417);
    em.emit("parity_failover", &pf_t.render(), &pf_t.to_json());
    em.emit("parity_failover_rebuild", &pf_f.render(), &pf_f.to_json());

    let (sr_t, sr_f, sr_outs) =
        wl::steered_reads::contrast(if quick { 3 } else { 4 }, 4, 3, secs(8, 16), 0x57E3);
    em.emit(
        "steered_reads",
        &sr_t.render(),
        &wl::steered_reads::points_json(&sr_outs),
    );
    println!("{}", sr_f.render());

    let net_p = wl::net_delivery::NetParams {
        measure: secs(12, 30),
        ..wl::net_delivery::NetParams::default()
    };
    let (net_t, net_f, net_outs) = wl::net_delivery::suite(&net_p);
    em.emit(
        "net_delivery",
        &net_t.render(),
        &wl::net_delivery::points_json(&net_outs),
    );
    println!("{}", net_f.render());

    let cache_budgets: &[u64] = if quick {
        &[0, 64 << 20]
    } else {
        &[0, 16 << 20, 32 << 20, 64 << 20, 128 << 20]
    };
    let (cache_t, cache_f, _) = wl::cache_sharing::sweep(
        cache_budgets,
        if quick { 24 } else { 30 },
        10,
        Duration::from_millis(1500),
        secs(10, 20),
        0xCA5E,
    );
    em.emit("cache_sharing", &cache_t.render(), &cache_t.to_json());
    em.emit(
        "cache_sharing_admitted",
        &cache_f.render(),
        &cache_f.to_json(),
    );

    let (cluster_p, cluster_counts): (wl::cluster_scaling::ClusterParams, &[usize]) = if quick {
        let mut p = wl::cluster_scaling::ClusterParams::standard();
        p.shards = 3;
        p.volumes = 2;
        p.titles = 120;
        p.stagger = Duration::from_millis(300);
        p.measure = Duration::from_secs(12);
        (p, &[160])
    } else {
        (
            wl::cluster_scaling::ClusterParams::standard(),
            &[240, 480, 960],
        )
    };
    let (cl_t, cl_f, _) = wl::cluster_scaling::sweep(&cluster_p, cluster_counts);
    em.emit("cluster_scaling", &cl_t.render(), &cl_t.to_json());
    em.emit("cluster_scaling_served", &cl_f.render(), &cl_f.to_json());

    let (cat_p, cat_counts) = wl::catalog_scaling::bench_shape(quick);
    let cat_bound = wl::catalog_scaling::spindle_bound(&cat_p);
    let (cat_t, cat_f, cat_outs) = wl::catalog_scaling::sweep(&cat_p, &cat_counts);
    let cat_json = wl::catalog_scaling::points_json(cat_bound, &cat_outs);
    em.emit("catalog_scaling", &cat_t.render(), &cat_json);
    println!("{}", cat_f.render());

    let ov_counts: &[usize] = if quick { &[8] } else { &[4, 8, 12] };
    let (ov_t, ov_f, _) = wl::interval_overlap::sweep(ov_counts, 4, secs(12, 20), 0x0E);
    em.emit("interval_overlap", &ov_t.render(), &ov_t.to_json());
    em.emit("interval_overlap_span", &ov_f.render(), &ov_f.to_json());

    let intervals: &[f64] = if quick {
        &[0.5]
    } else {
        &[0.25, 0.5, 1.0, 1.5]
    };
    let (mc_t, _) = wl::measured_capacity::validate(intervals, 3, secs(10, 20), 0xCA11);
    em.emit("measured_capacity", &mc_t.render(), &mc_t.to_json());

    let (cs_fig, _) = wl::capacity_scaling::run(&[1, 2, 4], secs(6, 12), 0xCA9A);
    em.emit("capacity_scaling", &cs_fig.render(), &cs_fig.to_json());

    let (deploy_t, _) = wl::deploy::run(30.0);
    em.emit("deploy", &deploy_t.render(), &deploy_t.to_json());

    let (ds_t, _) = wl::disk_sched::run(if quick { 300 } else { 2000 }, 16, 0xD15C);
    em.emit("disk_sched", &ds_t.render(), &ds_t.to_json());

    let (multi_t, _, _) = wl::multi::run(secs(12, 30), 0x2C25);
    em.emit("multi", &multi_t.render(), &multi_t.to_json());

    let (edit_t, _, _) = wl::editing::run(secs(12, 30), 0xED17);
    em.emit("editing", &edit_t.render(), &edit_t.to_json());

    let (buf_t, _, _) = wl::buffer_ablation::run(if quick { 15.0 } else { 30.0 }, 10.0, 0xB0F);
    em.emit("buffer_ablation", &buf_t.render(), &buf_t.to_json());

    em.finish();
}
