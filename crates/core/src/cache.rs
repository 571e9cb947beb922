//! The interval cache: serve trailing streams of popular movies from
//! memory instead of disk.
//!
//! When two clients watch the same movie a few seconds apart, the data
//! the leader just read from disk is exactly the data the follower is
//! about to need. Interval caching (Jayarekha & Nair; see PAPERS.md)
//! retains only that sliding window — the interval between a leading
//! and a trailing stream — so the trailing stream's disk load drops to
//! zero and admission can accept it against a *memory* budget instead
//! of the disk-time bound.
//!
//! The cache is timestamp-indexed, like the per-stream time-driven
//! buffer (DESIGN §3): each [`Frame`] holds one media chunk keyed by
//! its timestamp. Frames are *pinned* while any registered follower
//! still has to consume them (per-frame waiter lists keyed by the
//! trailing streams' logical clocks) and become evictable once every
//! follower has read past them. Unpinned frames are retained as a
//! trailing window behind the movie's read frontier, so a stream that
//! starts *after* the leader's reads still finds the recent past in
//! memory; they are evicted when they fall more than the configured
//! maximum gap behind the movie's trailing-most consumer, or when the
//! cache exceeds its byte budget (lowest insertion sequence first —
//! deterministic FIFO pressure).
//!
//! The server (`crates/core/src/server.rs`) owns one [`IntervalCache`]
//! and consults it in three places: admission (a trailing stream may be
//! admitted against the cache budget when the disk bound is exhausted),
//! interval planning (cache-served streams issue zero disk commands),
//! and teardown (`crs_stop`/`crs_seek`/close release the departing
//! stream's pins in the same call — no leaked pins).

use std::collections::BTreeMap;

use cras_media::{Chunk, ChunkTable};
use cras_sim::Duration;

/// How the cache picks victims under byte-budget pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictPolicy {
    /// Globally oldest (lowest insertion sequence) unpinned frame first
    /// — deterministic FIFO pressure, the original §11 behavior.
    #[default]
    OldestFirst,
    /// Evict from the movie with the fewest registered followers per
    /// evictable byte: data nobody downstream is waiting on goes first,
    /// so a popular movie's shared window outlives a cold one's.
    FollowersPerByte,
}

/// Counters exported by the cache (mirrored into the system metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Bytes served to followers from cache frames.
    pub hit_bytes: u64,
    /// Bytes a cache-dependent stream needed but did not find (each
    /// miss breaks the stream's interval and sends it back to disk
    /// admission).
    pub miss_bytes: u64,
    /// Bytes inserted into cache frames from completed disk reads.
    pub inserted_bytes: u64,
    /// Bytes released by eviction (window expiry or budget pressure).
    pub evicted_bytes: u64,
    /// High-water mark of resident cache bytes.
    pub peak_bytes: u64,
    /// Streams admitted through the cache path (disk bound exhausted,
    /// memory budget covered the gap).
    pub cache_admitted_streams: u64,
    /// Cache-admitted streams whose interval broke and whose disk
    /// re-admission test failed (the stream stops).
    pub cache_rejected_streams: u64,
    /// Intervals broken by a leader stop/seek or an eviction racing a
    /// follower (the follower fell back to the disk path).
    pub interval_breaks: u64,
    /// Bytes served to deferred-admission streams from resident prefix
    /// frames (no follower registration, no pin churn).
    pub prefix_hit_bytes: u64,
    /// Streams admitted deferred against a resident prefix (no disk
    /// share at open; reserve-at-drain).
    pub prefix_admitted_streams: u64,
    /// Deferred-admission streams that obtained their disk share at
    /// prefix-drain time.
    pub deferred_drained_streams: u64,
    /// Opens coalesced onto a concurrent leader's read stream within
    /// the join window (multicast-style batched joins).
    pub joined_streams: u64,
}

/// One cached media chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Frame {
    /// Chunk index within the movie's table.
    index: u32,
    /// Chunk size in bytes.
    size: u64,
    /// Global insertion sequence number (eviction order).
    seq: u64,
    /// Streams that still have to consume this frame. A frame with a
    /// non-empty waiter list is *pinned* and never evicted.
    waiters: Vec<u32>,
    /// Prefix-resident frame of a hot title: pinned across sessions by
    /// the cache manager, never evicted until the title is demoted.
    prefix: bool,
}

/// Per-movie cache state: resident frames plus follower bookkeeping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct MovieCache {
    /// Resident frames keyed by media timestamp.
    frames: BTreeMap<Duration, Frame>,
    /// Media time up to which disk reads have been inserted (end
    /// timestamp of the furthest inserted chunk).
    frontier: Duration,
    /// Registered cache-dependent streams and their consumption
    /// cursors (media time consumed so far).
    followers: BTreeMap<u32, Duration>,
    /// Media time below which frames are prefix-pinned (zero = the
    /// title is not in the hot set).
    prefix_limit: Duration,
}

impl MovieCache {
    /// Media time below which unpinned, non-prefix frames have expired:
    /// `max_gap` behind the trailing-most consumer (the slowest
    /// follower, or the read frontier when none is registered).
    fn window_cutoff(&self, max_gap: Duration) -> Duration {
        let tail = self
            .followers
            .values()
            .copied()
            .min()
            .unwrap_or(self.frontier)
            .min(self.frontier);
        tail.saturating_sub(max_gap)
    }

    /// Whether nothing keeps the entry alive: no frames, no followers,
    /// no prefix window.
    fn is_idle(&self) -> bool {
        self.frames.is_empty() && self.followers.is_empty() && self.prefix_limit == Duration::ZERO
    }
}

/// A global, timestamp-indexed block cache shared by all streams.
///
/// Budget `0` disables the cache entirely: every operation is a no-op
/// and the server behaves bit-for-bit as it did without the subsystem.
#[derive(Clone, Debug)]
pub struct IntervalCache {
    budget: u64,
    max_gap: Duration,
    movies: BTreeMap<String, MovieCache>,
    bytes: u64,
    reserved: u64,
    seq: u64,
    stats: CacheStats,
    policy: EvictPolicy,
    prefix_bytes: u64,
}

impl IntervalCache {
    /// Creates a cache with a byte budget and a maximum leader/follower
    /// gap. Budget `0` disables caching.
    pub fn new(budget: u64, max_gap: Duration) -> IntervalCache {
        IntervalCache {
            budget,
            max_gap,
            movies: BTreeMap::new(),
            bytes: 0,
            reserved: 0,
            seq: 0,
            stats: CacheStats::default(),
            policy: EvictPolicy::OldestFirst,
            prefix_bytes: 0,
        }
    }

    /// Selects the budget-pressure eviction policy.
    pub fn set_policy(&mut self, policy: EvictPolicy) {
        self.policy = policy;
    }

    /// The active eviction policy.
    pub fn policy(&self) -> EvictPolicy {
        self.policy
    }

    /// Whether the cache is enabled (non-zero budget).
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The configured maximum leader/follower gap.
    pub fn max_gap(&self) -> Duration {
        self.max_gap
    }

    /// Resident cache bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes reserved by cache-aware admission for gaps in flight.
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Number of resident frames.
    pub fn frame_count(&self) -> usize {
        self.movies.values().map(|m| m.frames.len()).sum()
    }

    /// Number of pinned frames (non-empty waiter list).
    pub fn pinned_frames(&self) -> usize {
        self.movies
            .values()
            .flat_map(|m| m.frames.values())
            .filter(|f| !f.waiters.is_empty())
            .count()
    }

    /// Counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to the counters (the server records admission
    /// outcomes and interval breaks here).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// The read frontier of a movie, if any of its data is tracked.
    pub fn frontier(&self, movie: &str) -> Option<Duration> {
        self.movies.get(movie).map(|m| m.frontier)
    }

    /// Bytes held by prefix-pinned frames across all movies. The pin
    /// guard keeps this at or under the byte budget at all times.
    pub fn prefix_bytes(&self) -> u64 {
        self.prefix_bytes
    }

    /// Whether `movie` currently has a prefix-residency pin.
    pub fn has_prefix(&self, movie: &str) -> bool {
        self.movies
            .get(movie)
            .is_some_and(|m| m.prefix_limit > Duration::ZERO)
    }

    /// Declares (or clears, with `limit == ZERO`) the prefix-residency
    /// window of a movie: frames below `limit` already resident are
    /// promoted to prefix pins and future posted frames below `limit`
    /// are pinned on insert. Promotion is budget-guarded — prefix pins
    /// never take the pinned total past the byte budget.
    pub fn set_prefix(&mut self, movie: &str, limit: Duration) {
        if !self.enabled() {
            return;
        }
        if limit == Duration::ZERO {
            // Demotion: the cold prefix unpins and rejoins the normal
            // window/budget eviction rules.
            if let Some(m) = self.movies.get_mut(movie) {
                m.prefix_limit = Duration::ZERO;
                for f in m.frames.values_mut() {
                    if f.prefix {
                        f.prefix = false;
                        self.prefix_bytes -= f.size;
                    }
                }
                self.evict(movie);
            }
            return;
        }
        let entry = self.movies.entry(movie.to_string()).or_default();
        entry.prefix_limit = limit;
        for (_, f) in entry.frames.range_mut(..limit) {
            if !f.prefix && self.prefix_bytes + f.size <= self.budget {
                f.prefix = true;
                self.prefix_bytes += f.size;
            }
        }
    }

    /// Whether every chunk of `movie` in `[from, to)` is resident as a
    /// prefix-pinned frame — a deferred-admission stream over that span
    /// is guaranteed memory service (prefix pins are never evicted).
    pub fn prefix_resident(
        &self,
        movie: &str,
        table: &ChunkTable,
        from: Duration,
        to: Duration,
    ) -> bool {
        let Some(m) = self.movies.get(movie) else {
            return false;
        };
        if to <= from {
            return false;
        }
        let span = table.chunks_in(from, to);
        !span.is_empty()
            && span
                .iter()
                .all(|c| m.frames.get(&c.timestamp).is_some_and(|f| f.prefix))
    }

    /// Serves one interval's chunks to a deferred-admission stream from
    /// the resident prefix. All-or-nothing like [`IntervalCache::serve`]
    /// but registers no follower and touches no pins: prefix frames are
    /// shared by every prefix stream of the title and stay resident for
    /// the next one.
    pub fn serve_resident(&mut self, movie: &str, chunks: &[Chunk]) -> bool {
        if chunks.is_empty() {
            return true;
        }
        let Some(m) = self.movies.get(movie) else {
            self.stats.miss_bytes += chunks.iter().map(|c| c.size as u64).sum::<u64>();
            return false;
        };
        if !chunks
            .iter()
            .all(|c| m.frames.get(&c.timestamp).is_some_and(|f| f.prefix))
        {
            self.stats.miss_bytes += chunks.iter().map(|c| c.size as u64).sum::<u64>();
            return false;
        }
        let served: u64 = chunks.iter().map(|c| c.size as u64).sum();
        self.stats.hit_bytes += served;
        self.stats.prefix_hit_bytes += served;
        true
    }

    /// Reserves admission budget for a trailing stream's gap.
    pub fn reserve(&mut self, bytes: u64) {
        self.reserved += bytes;
    }

    /// Releases a previous reservation.
    pub fn unreserve(&mut self, bytes: u64) {
        self.reserved = self.reserved.saturating_sub(bytes);
    }

    /// Inserts chunks a leader's disk read just posted. Frames are
    /// pinned for every registered follower that has not consumed past
    /// them yet; the movie frontier advances; expired and over-budget
    /// unpinned frames are evicted.
    pub fn insert_posted(&mut self, movie: &str, chunks: &[Chunk]) {
        if !self.enabled() || chunks.is_empty() {
            return;
        }
        let entry = self.movies.entry(movie.to_string()).or_default();
        for c in chunks {
            let waiters: Vec<u32> = entry
                .followers
                .iter()
                .filter(|&(_, &cursor)| cursor <= c.timestamp)
                .map(|(&id, _)| id)
                .collect();
            match entry.frames.get_mut(&c.timestamp) {
                Some(f) => {
                    // Duplicate insert (e.g. after a seek re-read): keep
                    // the frame, merge waiter lists.
                    for w in waiters {
                        if !f.waiters.contains(&w) {
                            f.waiters.push(w);
                        }
                    }
                }
                None => {
                    // Budget-guarded prefix pin: a posted frame inside a
                    // hot title's prefix window stays resident across
                    // sessions, but only while the pinned total fits.
                    let prefix = c.timestamp < entry.prefix_limit
                        && self.prefix_bytes + c.size as u64 <= self.budget;
                    entry.frames.insert(
                        c.timestamp,
                        Frame {
                            index: c.index,
                            size: c.size as u64,
                            seq: self.seq,
                            waiters,
                            prefix,
                        },
                    );
                    self.seq += 1;
                    self.bytes += c.size as u64;
                    self.stats.inserted_bytes += c.size as u64;
                    if prefix {
                        self.prefix_bytes += c.size as u64;
                    }
                }
            }
            if c.end_timestamp() > entry.frontier {
                entry.frontier = c.end_timestamp();
            }
        }
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes);
        self.evict(movie);
    }

    /// Whether the cache holds every chunk of `movie` between `from`
    /// and the movie's read frontier — i.e. a stream starting at `from`
    /// can be fed entirely from memory until it catches the leader.
    pub fn covers(&self, movie: &str, table: &ChunkTable, from: Duration) -> bool {
        let Some(m) = self.movies.get(movie) else {
            return false;
        };
        if m.frontier <= from {
            return false;
        }
        table
            .chunks_in(from, m.frontier)
            .iter()
            .all(|c| m.frames.contains_key(&c.timestamp))
    }

    /// Registers a cache-dependent stream consuming from `from`: its
    /// cursor is tracked and every already-resident frame at or past
    /// `from` gains it as a waiter. Re-registering a follower further
    /// ahead moves the movie's window, so that runs eviction.
    pub fn add_follower(&mut self, movie: &str, id: u32, from: Duration) {
        if !self.enabled() {
            return;
        }
        let entry = self.movies.entry(movie.to_string()).or_default();
        let moved_ahead = entry
            .followers
            .insert(id, from)
            .is_some_and(|was| was < from);
        for (_, f) in entry.frames.range_mut(from..) {
            if !f.waiters.contains(&id) {
                f.waiters.push(id);
            }
        }
        if moved_ahead {
            self.evict(movie);
        }
    }

    /// Deregisters a stream and strips its pins from every frame *in
    /// the same call* — a stop or seek must not leak pins until some
    /// later eviction sweep. Newly unpinned frames stay resident as
    /// window frames and are reclaimed by the usual eviction rules.
    pub fn remove_follower(&mut self, movie: &str, id: u32) {
        let Some(m) = self.movies.get_mut(movie) else {
            return;
        };
        m.followers.remove(&id);
        for f in m.frames.values_mut() {
            f.waiters.retain(|&w| w != id);
        }
        self.evict(movie);
    }

    /// Serves one interval's chunks to follower `id` from the cache.
    ///
    /// All-or-nothing: if any chunk is absent the call returns `false`,
    /// counts the miss, and changes nothing — the caller breaks the
    /// interval and falls back to the disk path. On success the
    /// follower's pins on the served frames are released, its cursor
    /// advances past the last chunk, and hit bytes are counted.
    pub fn serve(&mut self, movie: &str, id: u32, chunks: &[Chunk]) -> bool {
        let (Some(first), Some(last)) = (chunks.first(), chunks.last()) else {
            return true;
        };
        let bytes: u64 = chunks.iter().map(|c| c.size as u64).sum();
        let Some(m) = self.movies.get_mut(movie) else {
            self.stats.miss_bytes += bytes;
            return false;
        };
        // One walk over the chunks' span: they are in timestamp order, so
        // each one's frame is the next resident frame at or past it.
        let mut span = m.frames.range_mut(first.timestamp..=last.timestamp);
        let mut hit = Vec::with_capacity(chunks.len());
        for c in chunks {
            match span.find(|(&ts, _)| ts >= c.timestamp) {
                Some((&ts, f)) if ts == c.timestamp => {
                    debug_assert_eq!(f.index, c.index, "frame/chunk index mismatch");
                    hit.push(f);
                }
                _ => {
                    self.stats.miss_bytes += bytes;
                    return false;
                }
            }
        }
        for f in hit {
            f.waiters.retain(|&w| w != id);
        }
        m.followers.insert(id, last.end_timestamp());
        self.stats.hit_bytes += bytes;
        self.evict(movie);
        true
    }

    /// Drops every frame and follower of a movie (last stream closed).
    pub fn drop_movie(&mut self, movie: &str) {
        if let Some(m) = self.movies.remove(movie) {
            for f in m.frames.values() {
                self.bytes -= f.size;
                self.stats.evicted_bytes += f.size;
                if f.prefix {
                    self.prefix_bytes -= f.size;
                }
            }
        }
    }

    /// Eviction after a call that changed `movie`: drop its unpinned
    /// frames that fell more than `max_gap` behind its trailing-most
    /// consumer (the slowest registered follower, or the read frontier
    /// when no follower is registered — chained trailing streams each
    /// keep a window behind them), then — while still over budget —
    /// drop the globally oldest (lowest-seq) unpinned frame. Pinned
    /// frames are never evicted, so a burst of pins may keep the cache
    /// transiently over budget (recorded in `peak_bytes`).
    ///
    /// Window expiry looks at `movie` alone. Every public call leaves no
    /// movie holding an expirable frame, and a call changes the
    /// followers, frontier, pins and prefix flags of its own movie only;
    /// budget eviction removes frames, which never makes another frame
    /// expirable. So no other movie can have gained an expirable frame.
    fn evict(&mut self, movie: &str) {
        // Prefix pins are exempt: they expire only by demotion from the
        // hot set.
        if let Some(m) = self.movies.get_mut(movie) {
            let cutoff = m.window_cutoff(self.max_gap);
            let expired: Vec<Duration> = m
                .frames
                .range(..cutoff)
                .filter(|(_, f)| f.waiters.is_empty() && !f.prefix)
                .map(|(&ts, _)| ts)
                .collect();
            for ts in expired {
                let f = m.frames.remove(&ts).expect("listed above");
                self.bytes -= f.size;
                self.stats.evicted_bytes += f.size;
            }
            if m.is_idle() {
                self.movies.remove(movie);
            }
        }
        // Budget pressure on the unpinned remainder.
        while self.bytes > self.budget {
            let victim = match self.policy {
                // Oldest unpinned frame first, globally.
                EvictPolicy::OldestFirst => self
                    .movies
                    .iter()
                    .flat_map(|(name, m)| {
                        m.frames
                            .iter()
                            .filter(|(_, f)| f.waiters.is_empty() && !f.prefix)
                            .map(move |(&ts, f)| (f.seq, name.clone(), ts))
                    })
                    .min()
                    .map(|(_, name, ts)| (name, ts)),
                EvictPolicy::FollowersPerByte => self.followers_per_byte_victim(),
            };
            let Some((name, ts)) = victim else {
                break; // Everything left is pinned.
            };
            let m = self.movies.get_mut(&name).expect("victim movie");
            let f = m.frames.remove(&ts).expect("victim frame");
            self.bytes -= f.size;
            self.stats.evicted_bytes += f.size;
            if m.is_idle() {
                self.movies.remove(&name);
            }
        }
    }

    /// Picks the next budget victim under [`EvictPolicy::FollowersPerByte`]:
    /// the movie with the fewest registered followers per evictable byte
    /// loses its oldest evictable frame. Cross-multiplied integer
    /// comparison keeps the order exact and deterministic; ties break by
    /// movie name.
    fn followers_per_byte_victim(&self) -> Option<(String, Duration)> {
        let mut best: Option<(u64, u64, &str, Duration)> = None;
        for (name, m) in &self.movies {
            let mut evictable = 0u64;
            let mut oldest: Option<(u64, Duration)> = None;
            for (&ts, f) in &m.frames {
                if f.waiters.is_empty() && !f.prefix {
                    evictable += f.size;
                    if oldest.is_none_or(|(seq, _)| f.seq < seq) {
                        oldest = Some((f.seq, ts));
                    }
                }
            }
            let Some((_, ts)) = oldest else { continue };
            let followers = m.followers.len() as u64;
            let better = match best {
                None => true,
                Some((bf, be, bn, _)) => {
                    // followers/evictable < bf/be  ⟺  followers·be < bf·evictable
                    let lhs = followers as u128 * be as u128;
                    let rhs = bf as u128 * evictable as u128;
                    lhs < rhs || (lhs == rhs && name.as_str() < bn)
                }
            };
            if better {
                best = Some((followers, evictable, name, ts));
            }
        }
        best.map(|(_, _, name, ts)| (name.to_string(), ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    /// 1 chunk per second, 1000 bytes each.
    fn table(n: u64) -> ChunkTable {
        ChunkTable::from_durations_sizes(&vec![(secs(1), 1000); n as usize])
    }

    fn cache(budget: u64) -> IntervalCache {
        IntervalCache::new(budget, secs(10))
    }

    /// The invariant touched-movie eviction relies on: no movie holds a
    /// window-expirable frame, and no idle movie entry is left behind.
    fn assert_no_expirable(c: &IntervalCache, ctx: &str) {
        for (name, m) in &c.movies {
            let cutoff = m.window_cutoff(c.max_gap);
            let stale = m
                .frames
                .range(..cutoff)
                .find(|(_, f)| f.waiters.is_empty() && !f.prefix);
            assert!(stale.is_none(), "{ctx}: {name} holds {stale:?}");
            assert!(!m.is_idle(), "{ctx}: idle entry {name}");
        }
    }

    /// The reference eviction: window expiry over every movie, then the
    /// budget loop, then idle entries dropped.
    fn sweep_all_movies(c: &mut IntervalCache) {
        for m in c.movies.values_mut() {
            let cutoff = m.window_cutoff(c.max_gap);
            let expired: Vec<Duration> = m
                .frames
                .range(..cutoff)
                .filter(|(_, f)| f.waiters.is_empty() && !f.prefix)
                .map(|(&ts, _)| ts)
                .collect();
            for ts in expired {
                let f = m.frames.remove(&ts).unwrap();
                c.bytes -= f.size;
                c.stats.evicted_bytes += f.size;
            }
        }
        // The budget loop did not change: reach it through `evict`, whose
        // expiry step only repeats one of the sweeps above.
        let any = c.movies.keys().next().cloned().unwrap_or_default();
        c.evict(&any);
        c.movies.retain(|_, m| !m.is_idle());
    }

    /// Randomized sequences over several movies, under budget pressure
    /// with both policies: after every public call the invariant holds,
    /// and sweeping every movie as well changes no frame, byte or
    /// counter.
    #[test]
    fn touched_movie_eviction_matches_the_all_movie_sweep() {
        let t = ChunkTable::from_durations_sizes(
            &(0..40)
                .map(|i| (Duration::from_millis(500), 400 + 97 * (i % 7)))
                .collect::<Vec<_>>(),
        );
        let span = |a: u64, n: u64| {
            t.chunks_in(
                Duration::from_millis(500 * a),
                Duration::from_millis(500 * (a + n)),
            )
        };
        let names = ["a", "b", "c", "d"];
        let mut served = 0;
        let mut evicted = 0;
        for seed in 0..120 {
            let mut rng = cras_sim::Rng::new(seed);
            let mut c = IntervalCache::new(
                2_000 + 1_000 * rng.below(8),
                Duration::from_millis(500 * (1 + rng.below(8))),
            );
            if seed % 2 == 1 {
                c.set_policy(EvictPolicy::FollowersPerByte);
            }
            for step in 0..250 {
                let ctx = format!("seed {seed} step {step}");
                let movie = names[rng.below(4) as usize];
                let id = rng.below(6) as u32;
                let a = rng.below(40);
                let n = 1 + rng.below(6);
                match rng.below(9) {
                    0 | 1 => {
                        // Mostly the leader reading on from the frontier.
                        let from = match c.frontier(movie) {
                            Some(f) if rng.chance(0.7) => f.as_millis() / 500,
                            _ => a,
                        };
                        c.insert_posted(movie, span(from, n));
                    }
                    2 => c.add_follower(movie, id, Duration::from_millis(500 * a)),
                    3 | 4 => {
                        // Mostly from the follower's own cursor.
                        let from = c
                            .movies
                            .get(movie)
                            .and_then(|m| m.followers.get(&id))
                            .map_or(a, |cur| cur.as_millis() / 500);
                        served += c.serve(movie, id, span(from, n)) as u32;
                    }
                    5 => {
                        c.serve_resident(movie, span(a, n));
                    }
                    6 => c.remove_follower(movie, id),
                    7 => {
                        let limit = [0, 0, 1, 3][rng.below(4) as usize];
                        c.set_prefix(movie, Duration::from_millis(500 * limit));
                    }
                    _ => {
                        if rng.chance(0.3) {
                            c.drop_movie(movie);
                        } else {
                            c.insert_posted(movie, span(a, n));
                        }
                    }
                }
                assert_no_expirable(&c, &ctx);
                let mut want = c.clone();
                sweep_all_movies(&mut want);
                assert_eq!(c.movies, want.movies, "{ctx}");
                assert_eq!(c.bytes, want.bytes, "{ctx}");
                assert_eq!(c.prefix_bytes, want.prefix_bytes, "{ctx}");
                assert_eq!(c.stats, want.stats, "{ctx}");
            }
            evicted += c.stats.evicted_bytes;
        }
        assert!(
            served > 400 && evicted > 0,
            "served {served}, evicted {evicted}"
        );
    }

    #[test]
    fn zero_budget_is_inert() {
        let mut c = cache(0);
        let t = table(5);
        c.insert_posted("m", t.chunks());
        c.add_follower("m", 1, Duration::ZERO);
        assert!(!c.enabled());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.frame_count(), 0);
        assert!(!c.covers("m", &t, Duration::ZERO));
    }

    #[test]
    fn insert_then_cover_then_serve() {
        let mut c = cache(1 << 20);
        let t = table(10);
        c.add_follower("m", 7, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(4)));
        assert_eq!(c.frame_count(), 4);
        assert_eq!(c.pinned_frames(), 4);
        assert_eq!(c.frontier("m"), Some(secs(4)));
        assert!(c.covers("m", &t, Duration::ZERO));
        assert!(c.covers("m", &t, secs(2)));
        assert!(!c.covers("m", &t, secs(4)), "empty span is not coverage");
        assert!(c.serve("m", 7, t.chunks_in(Duration::ZERO, secs(2))));
        assert_eq!(c.stats().hit_bytes, 2000);
        // Served frames are unpinned but stay as window frames.
        assert_eq!(c.pinned_frames(), 2);
        assert_eq!(c.frame_count(), 4);
    }

    #[test]
    fn serve_is_all_or_nothing() {
        let mut c = cache(1 << 20);
        let t = table(10);
        c.add_follower("m", 1, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(2)));
        // Asking past the frontier misses and changes nothing.
        assert!(!c.serve("m", 1, t.chunks_in(Duration::ZERO, secs(3))));
        assert_eq!(c.stats().miss_bytes, 3000);
        assert_eq!(c.stats().hit_bytes, 0);
        assert_eq!(c.pinned_frames(), 2);
        // The present prefix still serves.
        assert!(c.serve("m", 1, t.chunks_in(Duration::ZERO, secs(2))));
    }

    #[test]
    fn window_expiry_behind_frontier() {
        let mut c = IntervalCache::new(1 << 20, secs(3));
        let t = table(20);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(10)));
        // No followers: only [frontier-3s, frontier) = [7s, 10s) survives.
        assert_eq!(c.frame_count(), 3);
        assert!(c.covers("m", &t, secs(7)));
        assert!(!c.covers("m", &t, secs(5)));
    }

    #[test]
    fn pinned_frames_survive_window_and_budget() {
        let mut c = IntervalCache::new(2500, secs(2));
        let t = table(20);
        c.add_follower("m", 1, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(10)));
        // All 10 frames pinned by the lagging follower: none evictable,
        // cache transiently over budget.
        assert_eq!(c.frame_count(), 10);
        assert!(c.bytes() > c.budget());
        assert_eq!(c.stats().peak_bytes, 10_000);
        // Follower consumes 8 seconds: frames unpin and budget + window
        // pressure reclaims them.
        assert!(c.serve("m", 1, t.chunks_in(Duration::ZERO, secs(8))));
        assert!(c.bytes() <= 2500, "bytes={}", c.bytes());
    }

    #[test]
    fn remove_follower_releases_pins_immediately() {
        let mut c = IntervalCache::new(1 << 20, secs(2));
        let t = table(10);
        c.add_follower("m", 1, Duration::ZERO);
        c.add_follower("m", 2, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(6)));
        assert_eq!(c.pinned_frames(), 6);
        c.remove_follower("m", 1);
        // Still pinned by follower 2.
        assert_eq!(c.pinned_frames(), 6);
        c.remove_follower("m", 2);
        // No leaked pins, and the same call ran eviction: only the
        // 2-second window behind the 6 s frontier remains.
        assert_eq!(c.pinned_frames(), 0);
        assert_eq!(c.frame_count(), 2);
    }

    #[test]
    fn budget_eviction_is_oldest_first() {
        let mut c = IntervalCache::new(3000, secs(100));
        let t = table(10);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(4)));
        // 4000 bytes > 3000 budget: the oldest frame (t=0) went.
        assert_eq!(c.frame_count(), 3);
        assert!(c.covers("m", &t, secs(1)));
        assert!(!c.covers("m", &t, Duration::ZERO));
        assert_eq!(c.stats().evicted_bytes, 1000);
    }

    #[test]
    fn drop_movie_frees_everything() {
        let mut c = cache(1 << 20);
        let t = table(5);
        c.add_follower("m", 1, Duration::ZERO);
        c.insert_posted("m", t.chunks());
        c.drop_movie("m");
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.frame_count(), 0);
        assert_eq!(c.frontier("m"), None);
    }

    #[test]
    fn duplicate_insert_merges_waiters() {
        let mut c = cache(1 << 20);
        let t = table(5);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(2)));
        c.add_follower("m", 9, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(2)));
        assert_eq!(c.frame_count(), 2);
        assert_eq!(c.stats().inserted_bytes, 2000, "no double count");
        assert_eq!(c.pinned_frames(), 2);
    }

    #[test]
    fn reservations_are_a_separate_ledger() {
        let mut c = cache(10_000);
        c.reserve(4000);
        c.reserve(2000);
        assert_eq!(c.reserved(), 6000);
        c.unreserve(4000);
        assert_eq!(c.reserved(), 2000);
        c.unreserve(9999);
        assert_eq!(c.reserved(), 0, "saturates at zero");
    }

    #[test]
    fn late_follower_only_pins_from_its_cursor() {
        let mut c = cache(1 << 20);
        let t = table(10);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(6)));
        c.add_follower("m", 3, secs(4));
        assert_eq!(c.pinned_frames(), 2, "only t=4,5 pinned");
    }

    #[test]
    fn prefix_frames_survive_window_and_budget_until_demoted() {
        let mut c = IntervalCache::new(4000, secs(2));
        let t = table(20);
        c.set_prefix("m", secs(3));
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(10)));
        // Window expiry reclaimed the middle; the 3-second prefix and
        // the trailing window both stayed.
        assert_eq!(c.prefix_bytes(), 3000);
        assert!(c.prefix_resident("m", &t, Duration::ZERO, secs(3)));
        assert!(!c.prefix_resident("m", &t, Duration::ZERO, secs(4)));
        assert!(c.serve_resident("m", t.chunks_in(Duration::ZERO, secs(3))));
        assert_eq!(c.stats().prefix_hit_bytes, 3000);
        // Demotion unpins the prefix and eviction reclaims it.
        c.set_prefix("m", Duration::ZERO);
        assert_eq!(c.prefix_bytes(), 0);
        assert!(!c.prefix_resident("m", &t, Duration::ZERO, secs(3)));
    }

    #[test]
    fn prefix_pins_never_exceed_budget() {
        let mut c = IntervalCache::new(2500, secs(100));
        let t = table(10);
        c.set_prefix("m", secs(10));
        c.insert_posted("m", t.chunks());
        // Only two 1000-byte frames fit under the 2500-byte budget as
        // prefix pins; the rest stayed ordinary window frames.
        assert_eq!(c.prefix_bytes(), 2000);
        assert!(c.prefix_bytes() <= c.budget());
        assert!(c.prefix_resident("m", &t, Duration::ZERO, secs(2)));
        assert!(!c.prefix_resident("m", &t, Duration::ZERO, secs(3)));
    }

    #[test]
    fn followers_per_byte_evicts_the_unwatched_movie_first() {
        let mut c = IntervalCache::new(6000, secs(100));
        c.set_policy(EvictPolicy::FollowersPerByte);
        let t = table(10);
        // "cold" has no followers; "hot" has two. Insert cold first so
        // FIFO order would also pick it — then verify the policy keeps
        // preferring cold even when hot's frames are older.
        c.add_follower("hot", 1, Duration::ZERO);
        c.add_follower("hot", 2, Duration::ZERO);
        c.insert_posted("hot", t.chunks_in(Duration::ZERO, secs(3)));
        c.serve("hot", 1, t.chunks_in(Duration::ZERO, secs(3)));
        c.serve("hot", 2, t.chunks_in(Duration::ZERO, secs(3)));
        // hot's 3 frames are now unpinned but have 2 followers behind
        // them; cold's 4 frames have none.
        c.insert_posted("cold", t.chunks_in(Duration::ZERO, secs(4)));
        // 7000 bytes > 6000: the victim must come from cold despite
        // hot's frames being older.
        assert_eq!(c.frame_count(), 6);
        assert!(c.covers("hot", &t, Duration::ZERO));
        assert!(!c.covers("cold", &t, Duration::ZERO));
    }
}
