//! Layer replays: host cost per operation of the layers that run only
//! inside `run_until`, measured by calling each layer's public functions
//! directly at the occupancy the workload reached.
//!
//! A replay repeats one steady-state operation pair (the engine's
//! schedule + pop, the CPU's wake + slice end, the disk's submit +
//! complete) with the structure held at the sampled peak, so a change
//! that makes the operation cost grow with occupancy shows here even
//! when the run's total hides it.

use std::hint::black_box;
use std::time::Instant as HostInstant;

use cras_disk::{DiskDevice, DiskRequest};
use cras_rtmach::{Cpu, SchedPolicy};
use cras_sim::{Duration, Engine, Instant, Rng};
use cras_sys::prio;

/// Operation pairs timed per replay.
const OPS: u64 = 200_000;

/// Host ns per `Engine::schedule` + `Engine::pop` with `pending` events
/// queued.
pub fn engine_pop_ns(pending: usize) -> f64 {
    let mut e: Engine<u32> = Engine::new();
    let mut rng = Rng::new(0xE4E4);
    for i in 0..pending.max(1) {
        e.schedule(
            Instant::ZERO + Duration::from_micros(rng.below(1_000_000)),
            i as u32,
        );
    }
    let h = HostInstant::now();
    for _ in 0..OPS {
        let (t, ev) = e.pop().expect("the queue never drains");
        e.schedule(
            t + Duration::from_micros(1 + rng.below(1_000_000)),
            black_box(ev),
        );
    }
    h.elapsed().as_nanos() as f64 / OPS as f64
}

/// Host ns per `Cpu::wake` + `Cpu::slice_end` with `threads` ready
/// player-priority threads.
pub fn cpu_slice_ns(threads: usize) -> f64 {
    let mut cpu = Cpu::new();
    let burst = Duration::from_micros(5);
    let tids: Vec<_> = (0..threads.max(1))
        .map(|i| {
            cpu.create(
                &format!("p{i}"),
                SchedPolicy::FixedPriority { prio: prio::PLAYER },
            )
        })
        .collect();
    let mut next = None;
    for (i, &tid) in tids.iter().enumerate() {
        next = next.or(cpu.wake(tid, burst, i as u64, Instant::ZERO));
    }
    let h = HostInstant::now();
    for _ in 0..OPS {
        let (at, tok) = next.expect("a ready thread is always running");
        let o = cpu.slice_end(tok, at);
        let done = o.completed.expect("fixed-priority slices run to burst end");
        next = o.resched.or(cpu.wake(done.tid, burst, done.tag, at));
        black_box(&next);
    }
    h.elapsed().as_nanos() as f64 / OPS as f64
}

/// Host ns per `DiskDevice::submit` + `DiskDevice::complete` with
/// `depth` commands outstanding.
pub fn disk_op_ns(depth: usize) -> f64 {
    let mut d: DiskDevice<u32> = DiskDevice::st32550n();
    let blocks = d.geometry().total_blocks() - 128;
    let mut rng = Rng::new(0xD15C);
    let mut next = None;
    for i in 0..depth.max(1) {
        let r = DiskRequest::rt_read(rng.below(blocks), 128, i as u32);
        next = next.or(d.submit(Instant::ZERO, r));
    }
    let h = HostInstant::now();
    for i in 0..OPS {
        let at = next.expect("the device always has work");
        let (done, started) = d.complete(at);
        black_box(&done);
        let r = DiskRequest::rt_read(rng.below(blocks), 128, i as u32);
        next = started.or(d.submit(at, r));
    }
    h.elapsed().as_nanos() as f64 / OPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_run_at_any_occupancy() {
        for n in [0, 1, 50] {
            assert!(engine_pop_ns(n) > 0.0);
            assert!(cpu_slice_ns(n) > 0.0);
            assert!(disk_op_ns(n) > 0.0);
        }
    }
}
