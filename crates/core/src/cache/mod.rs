//! Content-addressed memoization of per-partition BAD predictions —
//! a sharded, lock-striped concurrent cache tier with optional snapshot
//! persistence.
//!
//! CHOP is interactive: the designer edits one partition, asks again, and
//! should not pay for re-predicting the other partitions. The exploration
//! engine therefore keys each partition's (predicted, level-1-pruned)
//! design list by a stable fingerprint of everything the prediction
//! depends on — the partition's [structural hash](chop_dfg::hash), the
//! chip's usable area and the predictor/clock/style/constraint
//! configuration — and memoizes the result in a [`PredictionCache`].
//!
//! The cache is shared between the sessions of one what-if dialogue *and*
//! between every session of a `chop serve` process:
//! [`Session::repartition`](crate::Session::repartition) keeps the cache
//! of the parent session, so a follow-up [`explore`](crate::Session::explore)
//! re-predicts only the partitions whose fingerprint changed.
//!
//! # Sharding
//!
//! Parallel prediction (`--jobs 8`) and concurrent service sessions used
//! to serialize on one mutex around one map. The cache is now split into
//! a power-of-two number of **shards**, each an independently locked LRU:
//! a lookup locks only the shard its fingerprint maps to, so threads
//! working on different partitions proceed without contention. Shard
//! selection is a pure function of the key (a Fibonacci-hash of the
//! already well-mixed fingerprint), so *what* is cached never depends on
//! the shard count — only lock contention and the eviction neighborhoods
//! do. Exploration digests are byte-identical at any shard count and any
//! `--jobs`, with the cache cold, warm, or snapshot-restored: the cache
//! memoizes pure predictions, it never changes them.
//!
//! Hit/miss/eviction counters are per-shard atomics aggregated on read,
//! so [`PredictionCache::stats`] never takes a lock.
//!
//! # Capacity
//!
//! Entries are bounded ([`DEFAULT_CACHE_CAPACITY`] total) with
//! least-recently-used eviction *per shard*: each shard holds at most
//! `ceil(capacity / shards)` entries, so the total bound is exact when
//! the shard count divides the capacity and within one entry per shard
//! otherwise. A capacity of **zero is the documented "cache disabled"
//! mode**: lookups miss (counted, so `hits + misses` still reconciles
//! with lookups) and inserts return immediately — no lock is taken and
//! no insert-then-evict churn happens on either path.
//!
//! # Snapshots
//!
//! [`snapshot`] persists the cache to a versioned, CRC'd binary file and
//! re-warms it at startup, so a restarted (or failed-over) `chop serve`
//! node starts with yesterday's predictions instead of an empty map.

pub mod snapshot;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use chop_bad::prune::PredictionStats;
use chop_bad::PredictedDesign;

/// Default bound on the number of cached partition entries (total across
/// all shards).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Default shard count when the creator does not size the stripe to its
/// thread count (see [`recommended_shards`]).
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// The shard count recommended for a process running `jobs` worker
/// threads: the next power of two at or above `4 × jobs`, so even with
/// every thread in the cache at once the expected collision rate on any
/// one lock stays low. `recommended_shards(0)` is treated as one job.
#[must_use]
pub fn recommended_shards(jobs: usize) -> usize {
    (4 * jobs.max(1)).next_power_of_two()
}

/// Aggregate cache counters.
///
/// `hits`, `misses` and `evictions` are lifetime counters of the cache
/// (monotonically increasing); `entries` and `bytes` are point-in-time
/// gauges. A [`SearchOutcome`](crate::SearchOutcome) reports the counter
/// *delta* of its run via [`CacheStats::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the predictor.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate bytes currently resident (design structs only; heap
    /// detail inside designs is estimated, not measured).
    pub bytes: u64,
}

impl CacheStats {
    /// The counters accumulated since `earlier` (for `hits`/`misses`/
    /// `evictions`); `entries`/`bytes` are reported as the current gauges.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
            bytes: self.bytes,
        }
    }
}

/// One memoized prediction: the pruned design list and its Table 3/5
/// statistics.
#[derive(Debug, Clone)]
struct Entry {
    designs: Arc<[PredictedDesign]>,
    stats: PredictionStats,
    bytes: u64,
    last_used: u64,
}

/// The locked interior of one shard.
#[derive(Debug, Default)]
struct ShardMap {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// One lock stripe: an independently locked LRU plus its lock-free
/// counter block. Counters are only *written* while the shard lock is
/// held (so they stay consistent with the map), but read without it.
#[derive(Debug, Default)]
struct Shard {
    inner: Mutex<ShardMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
    bytes: AtomicU64,
}

impl Shard {
    fn lock(&self) -> std::sync::MutexGuard<'_, ShardMap> {
        // A worker that panicked while holding the lock cannot leave the
        // map structurally broken (all mutations are single-step inserts/
        // removes), so recover instead of propagating the poison.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded, thread-safe, sharded LRU cache of per-partition
/// predictions.
///
/// Lookup keys are the content-addressed fingerprints computed by the
/// exploration engine (see the [module docs](self)). The cache hands out
/// `Arc<[PredictedDesign]>` so hits share one allocation with every
/// session and worker thread that uses them.
#[derive(Debug)]
pub struct PredictionCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard counts are powers of two so selection
    /// is a mask.
    shard_mask: usize,
    /// Per-shard entry bound (`ceil(capacity / shards)`).
    per_shard: usize,
    /// The requested total capacity (0 = disabled).
    capacity: usize,
    /// Lifetime count of committed inserts — the snapshot cadence
    /// trigger (`chop serve` writes a snapshot every N insertions).
    insertions: AtomicU64,
    /// Misses recorded while the cache is disabled (capacity 0), kept
    /// outside the shards so the disabled fast path touches exactly one
    /// atomic.
    disabled_misses: AtomicU64,
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PredictionCache {
    /// Creates a cache bounded at [`DEFAULT_CACHE_CAPACITY`] entries over
    /// [`DEFAULT_CACHE_SHARDS`] shards.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates a cache bounded at `capacity` entries over
    /// [`DEFAULT_CACHE_SHARDS`] shards. A capacity of zero disables
    /// memoization (see the [module docs](self)).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// Creates a cache bounded at `capacity` entries striped over
    /// `shards` locks. The shard count is rounded up to a power of two
    /// and clamped to at least 1; pass `1` for the single-mutex layout
    /// (the pre-sharding baseline, and the configuration whose eviction
    /// order is exact global LRU). See [`recommended_shards`] for sizing
    /// to a thread count.
    #[must_use]
    pub fn with_config(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        let mut stripe = Vec::with_capacity(shard_count);
        stripe.resize_with(shard_count, Shard::default);
        Self {
            shards: stripe.into_boxed_slice(),
            shard_mask: shard_count - 1,
            per_shard: capacity.div_ceil(shard_count),
            capacity,
            insertions: AtomicU64::new(0),
            disabled_misses: AtomicU64::new(0),
        }
    }

    /// Whether memoization is active (capacity above zero).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The shard a key lives in. Fingerprints are already well mixed, but
    /// a Fibonacci multiply costs nothing and protects the stripe against
    /// keys that differ only in low bits.
    fn shard_of(&self, key: u64) -> &Shard {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize & self.shard_mask]
    }

    /// Looks up a fingerprint, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<(Arc<[PredictedDesign]>, PredictionStats)> {
        if !self.is_enabled() {
            // Disabled fast path: count the miss (so hits + misses still
            // equals lookups) without touching any lock.
            self.disabled_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let shard = self.shard_of(key);
        let mut inner = shard.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let out = (Arc::clone(&entry.designs), entry.stats);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(out)
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used
    /// entries of its shard beyond the per-shard bound.
    pub fn insert(&self, key: u64, designs: Arc<[PredictedDesign]>, stats: PredictionStats) {
        if !self.is_enabled() {
            return;
        }
        let bytes = approximate_bytes(&designs);
        let shard = self.shard_of(key);
        let mut inner = shard.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) =
            inner.map.insert(key, Entry { designs, stats, bytes, last_used: tick })
        {
            shard.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        } else {
            shard.entries.fetch_add(1, Ordering::Relaxed);
        }
        shard.bytes.fetch_add(bytes, Ordering::Relaxed);
        while inner.map.len() > self.per_shard {
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&victim) {
                shard.bytes.fetch_sub(evicted.bytes, Ordering::Relaxed);
                shard.entries.fetch_sub(1, Ordering::Relaxed);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the cache counters and gauges,
    /// aggregated across shards from their atomic counter blocks — no
    /// lock is taken. Concurrent mutations may be partially visible (the
    /// aggregate is a moment-in-time sum per counter, not a cross-shard
    /// atomic snapshot); each individual counter is exact.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            misses: self.disabled_misses.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.evictions += shard.evictions.load(Ordering::Relaxed);
            stats.entries += shard.entries.load(Ordering::Relaxed);
            stats.bytes += shard.bytes.load(Ordering::Relaxed);
        }
        stats
    }

    /// Resident entries per shard, in shard order — the occupancy view
    /// `--stats-json` and the service `stats` response surface. Lock-free.
    #[must_use]
    pub fn shard_occupancy(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.entries.load(Ordering::Relaxed)).collect()
    }

    /// Number of lock stripes.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lifetime count of committed inserts (snapshot cadence trigger).
    #[must_use]
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.load(Ordering::Relaxed) as usize).sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The total entry-capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Every resident entry as `(key, designs, stats)` — what a snapshot
    /// writes. Shards are locked one at a time, so the export is
    /// consistent per shard but not across shards; for a warm-start file
    /// that is exactly as good and never stalls concurrent lookups.
    #[must_use]
    pub fn export(&self) -> Vec<(u64, Arc<[PredictedDesign]>, PredictionStats)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let inner = shard.lock();
            for (&key, entry) in &inner.map {
                out.push((key, Arc::clone(&entry.designs), entry.stats));
            }
        }
        // Shard-internal HashMap order is nondeterministic; sort so two
        // exports of the same contents are byte-identical on disk.
        out.sort_unstable_by_key(|(key, _, _)| *key);
        out
    }
}

/// Approximate resident size of a design list. `PredictedDesign` owns
/// small maps and strings whose heap size is not walked; the struct size
/// plus a fixed per-design overhead is close enough for an eviction gauge.
fn approximate_bytes(designs: &[PredictedDesign]) -> u64 {
    const PER_DESIGN_HEAP_GUESS: usize = 160;
    ((std::mem::size_of::<PredictedDesign>() + PER_DESIGN_HEAP_GUESS) * designs.len()
        + std::mem::size_of::<Entry>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: usize) -> (Arc<[PredictedDesign]>, PredictionStats) {
        let designs: Arc<[PredictedDesign]> = Vec::new().into();
        let _ = n;
        (designs, PredictionStats { total: n, feasible: n, non_inferior: n })
    }

    #[test]
    fn miss_then_hit() {
        let cache = PredictionCache::new();
        assert!(cache.get(1).is_none());
        let (d, s) = entry(3);
        cache.insert(1, d, s);
        let (_, got) = cache.get(1).expect("hit");
        assert_eq!(got.total, 3);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_drops_oldest() {
        // One shard = exact global LRU (the pre-sharding baseline).
        let cache = PredictionCache::with_config(2, 1);
        for key in 0..3u64 {
            let (d, s) = entry(key as usize);
            cache.insert(key, d, s);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Key 0 was least recently used.
        assert!(cache.get(0).is_none());
        assert!(cache.get(2).is_some());
    }

    #[test]
    fn hit_refreshes_recency() {
        let cache = PredictionCache::with_config(2, 1);
        let (d, s) = entry(0);
        cache.insert(0, d, s);
        let (d, s) = entry(1);
        cache.insert(1, d, s);
        assert!(cache.get(0).is_some()); // refresh 0 → 1 becomes LRU
        let (d, s) = entry(2);
        cache.insert(2, d, s);
        assert!(cache.get(0).is_some());
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn zero_capacity_is_the_documented_disabled_mode() {
        let cache = PredictionCache::with_capacity(0);
        assert!(!cache.is_enabled());
        let (d, s) = entry(1);
        cache.insert(9, d, s);
        assert!(cache.is_empty());
        assert!(cache.get(9).is_none());
        // No insert-then-evict churn: the insert never landed, so nothing
        // was evicted — and the miss is still counted, so lookups
        // reconcile (hits + misses = 1 get).
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 0);
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(cache.insertions(), 0);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let cache = PredictionCache::new();
        let before = cache.stats();
        assert!(cache.get(7).is_none());
        let (d, s) = entry(1);
        cache.insert(7, d, s);
        assert!(cache.get(7).is_some());
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.entries), (1, 1, 1));
        assert!(delta.bytes > 0);
    }

    #[test]
    fn replacing_an_entry_does_not_leak_bytes() {
        let cache = PredictionCache::new();
        let (d, s) = entry(1);
        cache.insert(1, d, s);
        let first = cache.stats().bytes;
        let (d, s) = entry(1);
        cache.insert(1, d, s);
        assert_eq!(cache.stats().bytes, first);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn shard_count_rounds_to_powers_of_two() {
        assert_eq!(PredictionCache::with_config(64, 0).shard_count(), 1);
        assert_eq!(PredictionCache::with_config(64, 1).shard_count(), 1);
        assert_eq!(PredictionCache::with_config(64, 3).shard_count(), 4);
        assert_eq!(PredictionCache::with_config(64, 8).shard_count(), 8);
        assert_eq!(recommended_shards(1), 4);
        assert_eq!(recommended_shards(8), 32);
        assert_eq!(recommended_shards(0), 4);
    }

    #[test]
    fn sharded_cache_spreads_keys_and_reports_occupancy() {
        let cache = PredictionCache::with_config(1024, 8);
        for key in 0..256u64 {
            let (d, s) = entry(key as usize);
            cache.insert(key, d, s);
        }
        let occupancy = cache.shard_occupancy();
        assert_eq!(occupancy.len(), 8);
        assert_eq!(occupancy.iter().sum::<u64>(), 256);
        // A stable hash spreads 256 sequential keys over all 8 shards.
        assert!(
            occupancy.iter().all(|&n| n > 0),
            "every shard should hold something, got {occupancy:?}"
        );
        assert_eq!(cache.insertions(), 256);
    }

    #[test]
    fn export_is_sorted_and_complete() {
        let cache = PredictionCache::with_config(1024, 4);
        for key in [9_u64, 3, 7, 1] {
            let (d, s) = entry(key as usize);
            cache.insert(key, d, s);
        }
        let export = cache.export();
        let keys: Vec<u64> = export.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 7, 9]);
        assert_eq!(export[0].2.total, 1);
    }
}
