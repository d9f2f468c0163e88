//! Concurrent prediction-cache tier: lock-striping properties, snapshot
//! persistence, and the headline invariant that exploration digests are
//! byte-identical whether the cache is cold, warm, snapshot-restored,
//! disabled, or sliced into any number of shards.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::spec::PartitioningBuilder;
use chop_core::prelude::{
    load_snapshot, recommended_shards, write_snapshot, Constraints, Heuristic, PredictionCache,
    Session,
};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_library::standard::{table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;

/// Extra worker count for the suite: `CHOP_TEST_JOBS` (CI sets 4 so the
/// striped cache really sees concurrent engine traffic).
fn test_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chop-cache-tier-{tag}-{}.snap", std::process::id()))
}

fn session_for(seed: u64, k: usize) -> Session {
    let dfg = random_layered(
        seed,
        RandomDfgParams { layers: 4, width: 4, inputs: 3, mul_percent: 40, bits: 16 },
    );
    let k = k.min(dfg.len());
    let chips = ChipSet::uniform(table2_packages()[1].clone(), k);
    let p = PartitioningBuilder::new(dfg, chips).split_horizontal(k).build().unwrap();
    Session::new(
        p,
        table1_library(),
        ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap(),
        ArchitectureStyle::multi_cycle(),
        PredictorParams::default(),
        Constraints::new(Nanos::new(60_000.0), Nanos::new(90_000.0)),
    )
}

/// A cache populated by a real exploration, plus the digest that run
/// produced (the reference for every warm/restored comparison).
fn warmed_cache(jobs: usize) -> (Arc<PredictionCache>, String) {
    let session = session_for(7, 3).with_jobs(jobs);
    let outcome = session.explore(Heuristic::Iterative).expect("warming explore");
    assert!(!session.shared_cache().is_empty(), "the warming run must populate the cache");
    (session.shared_cache(), outcome.digest())
}

/// The headline invariant: at jobs 1 / 2 / 8 (and `CHOP_TEST_JOBS`),
/// with the cache cold, warm, snapshot-restored, single-sharded, wide,
/// or disabled, the exploration digest never changes.
#[test]
fn digests_are_identical_cold_warm_restored_at_any_jobs_and_shards() {
    let reference = session_for(7, 3)
        .with_jobs(1)
        .explore(Heuristic::Iterative)
        .expect("reference explore")
        .digest();

    let path = snapshot_path("digests");
    for jobs in [1usize, 2, 8, test_jobs()] {
        // Cold, at several stripe widths (1 shard = the mutex'd
        // baseline layout).
        for shards in [1usize, 4, recommended_shards(jobs)] {
            let cold = session_for(7, 3).with_jobs(jobs).with_cache_config(256, shards);
            let first = cold.explore(Heuristic::Iterative).expect("cold explore");
            assert_eq!(
                first.digest(),
                reference,
                "cold digest diverged at jobs={jobs} shards={shards}"
            );
            assert_eq!(
                (first.trace.predictor_calls, first.trace.cache_hits),
                (3, 0),
                "a cold explore predicts each of the 3 partitions once"
            );
            // Warm: the same session again, now fully cached.
            let warm = cold.explore(Heuristic::Iterative).expect("warm explore");
            assert_eq!(
                warm.digest(),
                reference,
                "warm digest diverged at jobs={jobs} shards={shards}"
            );
            assert_eq!(
                (warm.trace.predictor_calls, warm.trace.cache_hits),
                (0, 3),
                "a warm re-explore must be served entirely from cache"
            );
        }

        // Snapshot-restored: persist a warmed cache, load it into a
        // fresh one (different stripe width), attach to a new session.
        let (cache, _) = warmed_cache(jobs);
        write_snapshot(&path, &cache).expect("write snapshot");
        let restored = Arc::new(PredictionCache::with_config(256, 2));
        let loaded = load_snapshot(&path, &restored).expect("load snapshot");
        assert_eq!(loaded.entries, cache.len(), "every entry must survive the round trip");
        assert!(!loaded.truncated);
        let outcome = session_for(7, 3)
            .with_jobs(jobs)
            .with_shared_cache(restored)
            .explore(Heuristic::Iterative)
            .expect("restored explore");
        assert_eq!(
            outcome.digest(),
            reference,
            "snapshot-restored digest diverged at jobs={jobs}"
        );
        assert_eq!(
            (outcome.trace.predictor_calls, outcome.trace.cache_hits),
            (0, 3),
            "a snapshot-restored explore must be served entirely from cache"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Zero capacity is the documented "cache disabled" mode: exploration
/// still works and produces the reference digest, and the cache stays
/// empty through it all.
#[test]
fn disabled_cache_changes_no_digest() {
    let reference =
        session_for(11, 2).with_jobs(1).explore(Heuristic::Iterative).unwrap().digest();
    for jobs in [1, test_jobs()] {
        let session = session_for(11, 2).with_jobs(jobs).with_cache_capacity(0);
        let outcome = session.explore(Heuristic::Iterative).expect("disabled explore");
        assert_eq!(
            outcome.digest(),
            reference,
            "disabled-cache digest diverged at jobs={jobs}"
        );
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 0, "a disabled cache must never hold entries");
        assert_eq!(stats.hits, 0);
        // Re-exploring re-predicts everything — nothing was memoized.
        let again = session.explore(Heuristic::Iterative).expect("second disabled explore");
        assert_eq!(again.digest(), reference);
        assert_eq!(
            (again.trace.predictor_calls, again.trace.cache_hits),
            (2, 0),
            "no cache means no warm re-explore: both partitions re-predict"
        );
    }
}

/// N threads hammer one striped cache with a mixed get/insert workload:
/// no committed entry is ever lost, and the aggregated counters
/// reconcile exactly (hits + misses = lookups issued).
#[test]
fn concurrent_mixed_workload_never_loses_committed_entries() {
    // Real payloads, harvested from a real run — the cache stores
    // `Arc<[PredictedDesign]>`, which has no test constructor.
    let (warmed, _) = warmed_cache(1);
    let (designs, stats) =
        warmed.export().into_iter().next().map(|(_, d, s)| (d, s)).expect("harvested entry");

    const THREADS: u64 = 8;
    const KEYS_PER_THREAD: u64 = 200;
    // Capacity comfortably above the total key count so nothing is
    // evicted — "committed entries are never lost" is only meaningful
    // without LRU pressure.
    let cache = Arc::new(PredictionCache::with_config(8_192, 16));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cache = Arc::clone(&cache);
        let designs = Arc::clone(&designs);
        handles.push(thread::spawn(move || {
            let mut lookups = 0u64;
            for i in 0..KEYS_PER_THREAD {
                let key = t * KEYS_PER_THREAD + i;
                cache.insert(key, Arc::clone(&designs), stats);
                // Mixed traffic: read back my own writes (must hit) and
                // probe a neighbor's range (may or may not be there yet).
                assert!(cache.get(key).is_some(), "own insert lost (key {key})");
                let probe = ((t + 1) % THREADS) * KEYS_PER_THREAD + i;
                let _ = cache.get(probe);
                lookups += 2;
            }
            lookups
        }));
    }
    let lookups: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();

    // Every committed key is still present afterwards.
    for key in 0..THREADS * KEYS_PER_THREAD {
        assert!(cache.get(key).is_some(), "committed key {key} lost after the storm");
    }
    let total = cache.stats();
    assert_eq!(total.evictions, 0, "capacity was sized so nothing evicts");
    assert_eq!(total.entries, THREADS * KEYS_PER_THREAD);
    assert_eq!(cache.len() as u64, THREADS * KEYS_PER_THREAD);
    // The final verification sweep hit every key once; counters must
    // reconcile exactly with the lookups the threads issued plus it.
    assert_eq!(
        total.hits + total.misses,
        lookups + THREADS * KEYS_PER_THREAD,
        "hits + misses must equal lookups issued"
    );
    // Occupancy sums to the entry count and is actually striped.
    let occupancy = cache.shard_occupancy();
    assert_eq!(occupancy.iter().sum::<u64>(), THREADS * KEYS_PER_THREAD);
    assert!(
        occupancy.iter().filter(|&&n| n > 0).count() > 1,
        "1600 keys must spread over more than one shard: {occupancy:?}"
    );
}

/// Snapshot round trip under damage: write a real warmed cache, tear
/// off the file's tail, and the loader must recover every complete
/// record — and the recovered cache must still explore to the
/// reference digest (the torn entry is simply re-predicted).
#[test]
fn torn_snapshot_tail_recovers_all_complete_records() {
    let (cache, reference) = warmed_cache(1);
    let total = cache.len();
    let path = snapshot_path("torn");
    write_snapshot(&path, &cache).expect("write snapshot");

    // Tear mid-record: drop the last 5 bytes.
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&path, &bytes).expect("tear snapshot");

    let restored = Arc::new(PredictionCache::with_config(256, 4));
    let loaded = load_snapshot(&path, &restored).expect("torn load must not error");
    assert!(loaded.truncated, "the torn tail must be reported");
    assert_eq!(loaded.entries, total - 1, "every complete record must be recovered");

    let outcome = session_for(7, 3)
        .with_shared_cache(restored)
        .explore(Heuristic::Iterative)
        .expect("explore after torn restore");
    assert_eq!(outcome.digest(), reference, "a torn restore must not change results");
    let _ = std::fs::remove_file(&path);
}
