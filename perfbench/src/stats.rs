//! Order statistics and the output digest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Percentiles tried for a tail, highest first. A tail is the highest of
/// these with at least [`TAIL_MIN_BEYOND`] samples strictly above it.
const TAIL_LADDER: [f64; 7] = [99.999, 99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail order statistic: the value, which percentile it is, and how
/// many samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The value at `pct`.
    pub value: f64,
    /// The percentile (nearest rank). 100 when there are too few
    /// samples for any ladder step, in which case `value` is the max.
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

impl Default for Tail {
    fn default() -> Tail {
        Tail {
            value: 0.0,
            pct: 100.0,
            n: 0,
        }
    }
}

/// Nearest-rank index of percentile `pct` among `n` sorted samples.
fn rank(pct: f64, n: usize) -> usize {
    (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median (nearest rank, lower middle) of `v`; 0 for an empty slice.
/// Reorders `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let k = rank(50.0, v.len());
    *v.select_nth_unstable_by(k, f64::total_cmp).1
}

/// The highest ladder percentile with at least ten samples beyond it,
/// over a slice. See [`tail_of`].
pub fn tail(v: &[f64]) -> Tail {
    tail_of(v.len(), v.iter().copied())
}

/// The highest ladder percentile with at least ten samples beyond it,
/// over `n` values streamed from `values` (which must yield exactly
/// `n`). Only the values above the chosen rank are held, so a tail over
/// millions of frames needs no copy of them. With fewer than twenty
/// samples no step qualifies and the maximum is reported as percentile
/// 100.
pub fn tail_of(n: usize, values: impl Iterator<Item = f64>) -> Tail {
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_MIN_BEYOND);
    // The wanted value is the `keep`-th largest.
    let keep = match pct {
        Some(p) => n - rank(p, n),
        None => 1,
    };
    let mut top: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(keep + 1);
    let mut seen = 0;
    for x in values {
        seen += 1;
        top.push(Reverse(order_key(x)));
        if top.len() > keep {
            top.pop();
        }
    }
    assert_eq!(seen, n, "tail_of: sample count mismatch");
    Tail {
        value: top.peek().map_or(0.0, |r| from_order_key(r.0)),
        pct: pct.unwrap_or(100.0),
        n,
    }
}

/// Maps an f64 to a u64 whose order is `f64::total_cmp`'s.
fn order_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn from_order_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// 64-bit FNV-1a: a stable, dependency-free digest of the canonical
/// result text (not a security hash).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        // p99.9 would leave 1 beyond, p99 leaves exactly 10.
        assert_eq!((t.value, t.pct, t.n), (990.0, 99.0, 1000));

        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.pct, t.n), (90.0, 90.0, 100));

        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&v);
        // p90 of 99 is rank 90, leaving 9: one step down.
        assert_eq!((t.value, t.pct, t.n), (50.0, 50.0, 99));
    }

    #[test]
    fn tail_of_too_few_samples_is_the_max() {
        let v = vec![3.0, 9.0, 1.0];
        assert_eq!(
            tail(&v),
            Tail {
                value: 9.0,
                pct: 100.0,
                n: 3
            }
        );
        assert_eq!(tail(&[]).n, 0);
        assert_eq!(tail(&[-2.0, -7.5]).value, -2.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
