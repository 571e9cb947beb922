//! The buffer cache: an LRU over file-system blocks.
//!
//! UFS reads go through this cache; CRAS deliberately bypasses it ("the
//! server is carefully designed to avoid accessing any non real-time OS
//! servers during constant rate retrieval") and wires its own buffers.

use std::collections::HashMap;

use crate::layout::FsBlock;

/// End-of-list marker for the recency list's slot links.
const NIL: usize = usize::MAX;

/// One cached block: a node of the recency list, stored in a slab.
#[derive(Clone, Copy, Debug)]
struct Node {
    block: FsBlock,
    /// Next less recently used slot.
    older: usize,
    /// Next more recently used slot.
    newer: usize,
}

/// LRU buffer cache keyed by file-system block number.
///
/// Recency is a doubly linked list threaded through a slab of slots,
/// least recently used at `oldest`, and the map names each block's slot.
/// A hit unlinks the block and relinks it at `newest`; an insert past
/// capacity drops `oldest`. Every operation is O(1), and the list order
/// is exactly the order of last use, so the victim is the block a scan
/// for the smallest last-use sequence number would pick.
#[derive(Clone, Debug)]
pub struct BufferCache {
    capacity: usize,
    /// block -> slot in `nodes`.
    map: HashMap<FsBlock, usize>,
    nodes: Vec<Node>,
    /// Slots of `nodes` not on the list.
    free: Vec<usize>,
    oldest: usize,
    newest: usize,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BufferCache {
        assert!(capacity > 0, "zero-capacity cache");
        BufferCache {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss counters `(hits, misses)` from [`BufferCache::lookup`].
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Checks for `block`, counting a hit or miss and refreshing LRU order
    /// on hit.
    pub fn lookup(&mut self, block: FsBlock) -> bool {
        if let Some(&slot) = self.map.get(&block) {
            self.unlink(slot);
            self.link_newest(slot);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks for `block` without perturbing statistics or LRU order.
    pub fn peek(&self, block: FsBlock) -> bool {
        self.map.contains_key(&block)
    }

    /// Inserts `block`, evicting the least recently used entry if full.
    /// Returns the evicted block, if any.
    pub fn insert(&mut self, block: FsBlock) -> Option<FsBlock> {
        if let Some(&slot) = self.map.get(&block) {
            // Refresh of an existing entry.
            self.unlink(slot);
            self.link_newest(slot);
            return None;
        }
        let node = Node {
            block,
            older: NIL,
            newer: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(block, slot);
        self.link_newest(slot);
        if self.map.len() > self.capacity {
            let victim = self.nodes[self.oldest].block;
            self.invalidate(victim);
            return Some(victim);
        }
        None
    }

    /// Drops a block (e.g. on file truncation).
    pub fn invalidate(&mut self, block: FsBlock) {
        if let Some(slot) = self.map.remove(&block) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }

    /// Takes `slot` off the recency list.
    fn unlink(&mut self, slot: usize) {
        let Node { older, newer, .. } = self.nodes[slot];
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n].older = older,
        }
    }

    /// Puts `slot` on the most recently used end of the list.
    fn link_newest(&mut self, slot: usize) {
        self.nodes[slot].older = self.newest;
        self.nodes[slot].newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.nodes[n].newer = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = BufferCache::new(4);
        assert!(!c.lookup(10));
        c.insert(10);
        assert!(c.lookup(10));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BufferCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        // Touch 1 so 2 becomes the LRU.
        assert!(c.lookup(1));
        let evicted = c.insert(4);
        assert_eq!(evicted, Some(2));
        assert!(c.peek(1) && c.peek(3) && c.peek(4));
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = BufferCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.len(), 2);
        // Now 2 is LRU.
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = BufferCache::new(2);
        c.insert(1);
        c.invalidate(1);
        assert!(!c.peek(1));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = BufferCache::new(8);
        for b in 0..100 {
            c.insert(b);
            assert!(c.len() <= 8);
        }
    }

    /// The min-scan cache the slab list replaced: each block carries the
    /// sequence number of its last use, and an insert past capacity
    /// evicts the smallest. Kept as the reference for the differential
    /// test below.
    struct ScanCache {
        capacity: usize,
        map: HashMap<FsBlock, u64>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanCache {
        fn new(capacity: usize) -> ScanCache {
            ScanCache {
                capacity,
                map: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn lookup(&mut self, block: FsBlock) -> bool {
            self.clock += 1;
            if let Some(seq) = self.map.get_mut(&block) {
                *seq = self.clock;
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn insert(&mut self, block: FsBlock) -> Option<FsBlock> {
            self.clock += 1;
            if self.map.insert(block, self.clock).is_some() {
                return None;
            }
            if self.map.len() > self.capacity {
                let victim = *self
                    .map
                    .iter()
                    .min_by_key(|&(_, seq)| *seq)
                    .map(|(b, _)| b)
                    .expect("cache cannot be empty here");
                self.map.remove(&victim);
                return Some(victim);
            }
            None
        }
    }

    #[test]
    fn matches_min_scan_reference_on_random_sequences() {
        let mut rng = cras_sim::Rng::new(0x1bu64);
        for capacity in 1..=300usize {
            let mut c = BufferCache::new(capacity);
            let mut r = ScanCache::new(capacity);
            // Draw blocks from a key space a little larger than the
            // cache, so hits, misses and evictions all happen.
            let keys = capacity as u64 + 1 + rng.below(capacity as u64 + 8);
            for step in 0..4 * capacity + 40 {
                let b = rng.below(keys);
                let mut victim = None;
                match rng.below(100) {
                    0..=39 => assert_eq!(c.lookup(b), r.lookup(b), "cap {capacity} step {step}"),
                    40..=84 => {
                        victim = c.insert(b);
                        assert_eq!(victim, r.insert(b), "cap {capacity} step {step}");
                    }
                    85..=94 => assert_eq!(c.peek(b), r.map.contains_key(&b)),
                    95..=98 => {
                        c.invalidate(b);
                        r.map.remove(&b);
                    }
                    _ => {
                        c.clear();
                        r.map.clear();
                    }
                }
                assert_eq!(
                    c.hit_stats(),
                    (r.hits, r.misses),
                    "cap {capacity} step {step}"
                );
                assert_eq!(c.len(), r.map.len(), "cap {capacity} step {step}");
                for t in std::iter::once(b).chain(victim) {
                    assert_eq!(
                        c.peek(t),
                        r.map.contains_key(&t),
                        "cap {capacity} block {t}"
                    );
                }
            }
            // The whole key space agrees at the end of each sequence.
            for t in 0..keys {
                assert_eq!(
                    c.peek(t),
                    r.map.contains_key(&t),
                    "cap {capacity} block {t}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        BufferCache::new(0);
    }
}
