//! Property tests for the bounded [`ProfileCache`]: random multi-threaded
//! interleavings of `get_or_profile` under a tiny budget must never exceed
//! the bound, never run two profiling passes for a key concurrently, and
//! always return bit-identical profiles across eviction/re-profile cycles.

use proptest::prelude::*;
use rppm_profiler::{CacheBudget, ProfileCache, ProfileKey};
use rppm_trace::{BlockSpec, Program, ProgramBuilder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

fn tiny(seed: u64) -> Arc<Program> {
    let mut b = ProgramBuilder::new("prop", 2);
    b.spawn_workers();
    b.thread(1u32)
        .block(BlockSpec::new(200 + (seed % 7) as u32, seed));
    b.join_workers();
    Arc::new(b.build())
}

fn key(seed: u64) -> ProfileKey {
    ProfileKey::generated("prop", 0.5, seed)
}

/// A build that panics leaves no entry behind: the cache's entry count is
/// unchanged, and the next lookup for the same key profiles normally.
#[test]
fn panicking_build_does_not_leak_its_slot() {
    let cache = ProfileCache::new();
    cache.get_or_profile(key(1), || tiny(1));
    let before = cache.len();
    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.get_or_profile(key(2), || panic!("build failed"))
    }));
    assert!(failed.is_err());
    assert_eq!(cache.len(), before, "the failed key's entry is gone");
    assert_eq!(cache.resident(), 1);
    let got = cache.get_or_profile(key(2), || tiny(2));
    assert_eq!(got.profile.num_threads(), 2);
    assert_eq!(cache.len(), before + 1);
    assert_eq!(cache.resident(), 2);
    assert_eq!(cache.profiles_collected(), 3, "the failed run counts too");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of lookups from several threads, against a cache
    /// whose budget is far smaller than the key universe, holds three
    /// invariants: the resident count never exceeds the budget, every
    /// build is accounted as exactly one profiling run, and a key's
    /// profile bytes are identical no matter how many eviction cycles it
    /// went through.
    #[test]
    fn bounded_cache_survives_concurrent_churn(
        max_entries in 1usize..4,
        ops in proptest::collection::vec((0u64..6, 0usize..3), 9..36),
    ) {
        let cache = Arc::new(ProfileCache::with_budget(CacheBudget::entries(max_entries)));
        let builds = Arc::new(AtomicUsize::new(0));
        let canonical: Arc<Mutex<HashMap<u64, String>>> = Arc::default();

        // Partition the sampled ops across 3 threads by their thread tag;
        // the OS supplies the interleaving.
        let mut per_thread: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for &(seed, thread) in &ops {
            per_thread[thread].push(seed);
        }
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|seeds| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let canonical = Arc::clone(&canonical);
                std::thread::spawn(move || {
                    for seed in seeds {
                        let got = cache.get_or_profile(key(seed), || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            tiny(seed)
                        });
                        let json = got.profile.to_json();
                        let mut map = canonical.lock().unwrap();
                        match map.get(&seed) {
                            Some(first) => assert_eq!(
                                first, &json,
                                "profile for seed {seed} changed across eviction cycles"
                            ),
                            None => {
                                map.insert(seed, json);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }

        prop_assert!(
            cache.resident() <= max_entries,
            "resident {} exceeds budget {}",
            cache.resident(),
            max_entries
        );
        // Every closure invocation is one counted profiling run — the cache
        // never double-builds a slot and never loses track of one.
        prop_assert_eq!(builds.load(Ordering::Relaxed), cache.profiles_collected());
        prop_assert_eq!(cache.lookups(), ops.len());
        let distinct = canonical.lock().unwrap().len();
        prop_assert!(cache.profiles_collected() >= distinct || ops.is_empty());
    }
}

/// Concurrent requests for one key always coalesce onto a single profiling
/// run — including requests for a key that was evicted and is being
/// re-profiled. Each rendezvous round of 4 threads must trigger exactly
/// one build, no matter how many eviction cycles separate the rounds.
#[test]
fn in_flight_key_is_profiled_exactly_once_per_round() {
    let cache = Arc::new(ProfileCache::with_budget(CacheBudget::entries(1)));
    let builds = Arc::new(AtomicUsize::new(0));
    const THREADS: usize = 4;

    let mut expected_builds = 0;
    for round in 0..3u64 {
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let got = cache.get_or_profile(key(7), || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window: every thread in the round
                        // arrives while this build is still in flight.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        tiny(7)
                    });
                    got.profile.to_json()
                })
            })
            .collect();
        let jsons: Vec<String> = handles
            .into_iter()
            .map(|h| h.join().expect("round thread panicked"))
            .collect();
        assert!(
            jsons.windows(2).all(|w| w[0] == w[1]),
            "round {round}: coalesced callers saw different profiles"
        );
        expected_builds += 1;
        assert_eq!(
            builds.load(Ordering::Relaxed),
            expected_builds,
            "round {round}: an in-flight key was profiled more than once"
        );
        // Evict key 7 so the next round re-profiles it from scratch.
        cache.get_or_profile(key(1000 + round), tiny_builder(1000 + round));
        assert!(
            cache.peek(&key(7)).is_none(),
            "round {round}: key 7 evicted"
        );
    }
    assert_eq!(cache.resident(), 1);
}

fn tiny_builder(seed: u64) -> impl FnOnce() -> Arc<Program> {
    move || tiny(seed)
}
