//! The host-speed reference: a fixed loop of benchmark-owned code, timed
//! three times before every repetition.
//!
//! Shared hosts change speed by tens of percent over minutes (frequency,
//! steal, neighbours' memory traffic). The end-to-end host times are
//! scaled by how fast this loop ran in the same process, alternately
//! with the repetitions, so such drift cancels while a change to the
//! program still shows in full: the loop calls nothing of the program.
//! It has the simulator's shape of work — a binary-heap event queue and
//! an ordered map churned by pseudo-random keys — so it slows down with
//! the host the way the simulator does.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant as HostInstant;

/// What one pass of the loop takes, s, on the host the benchmark was
/// tuned on (a 2-vCPU x86-64 VM). Scaled host times read as seconds on
/// that host.
pub const NOMINAL_S: f64 = 0.025;

/// Entries held in the queue and the map.
const HELD: u64 = 4096;

/// Pop-push and map updates per pass.
const STEPS: usize = 75_000;

fn next(x: &mut u64) -> u64 {
    // 64-bit LCG (Knuth's MMIX constants).
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

/// Host s of one pass of the reference loop.
pub fn pass_s() -> f64 {
    let h = HostInstant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut queue = BinaryHeap::with_capacity(HELD as usize);
    let mut map = BTreeMap::new();
    for i in 0..HELD {
        queue.push(Reverse(next(&mut x) % 1_000_000));
        map.insert(next(&mut x) % (4 * HELD), i);
    }
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Reverse(t) = queue.pop().expect("the queue never drains");
        queue.push(Reverse(t + 1 + next(&mut x) % 1_000_000));
        *map.entry(next(&mut x) % (4 * HELD)).or_insert(0) += t;
        if let Some(v) = map.remove(&(next(&mut x) % (4 * HELD))) {
            acc ^= v;
        }
    }
    black_box((acc, queue.len(), map.len()));
    h.elapsed().as_secs_f64()
}
