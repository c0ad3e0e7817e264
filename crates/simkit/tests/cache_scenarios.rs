//! Simtest scenarios for the write-back record caches: caching must be a
//! pure performance transform. Every consistency/completeness oracle holds
//! at any cache size under the same fault schedules, replay stays
//! byte-identical per seed, and a cached run demonstrably absorbs
//! repeated-key traffic.

use simkit::simtest::{run, Profile, SimConfig};

/// The §5 oracles (exactly-once, completeness, suppression finality) hold
/// with caching off, with a pathological capacity of one entry (constant
/// eviction), and with a capacity that holds the whole working set.
#[test]
fn oracles_hold_across_cache_sizes() {
    for seed in [3, 19, 42] {
        for cache in [0usize, 1, 64] {
            run(&SimConfig::new(seed).with_steps(150).with_cache(cache)).assert_passed();
        }
    }
}

/// Cache flushing is deterministic (sorted drain order), so a cached run
/// replays byte-identically — the property the whole simtest harness
/// depends on for seed repro.
#[test]
fn cached_replay_is_byte_identical() {
    let cfg = SimConfig::new(23).with_steps(120).with_cache(64).with_obs_profile();
    let first = format!("{}", run(&cfg));
    let second = format!("{}", run(&cfg));
    assert_eq!(first, second, "cached runs must replay byte-identically per seed");
}

/// The repro line round-trips the cache knob, so a failing cached seed can
/// be replayed with the same configuration.
#[test]
fn repro_line_carries_the_cache_knob() {
    let report = run(&SimConfig::new(5).with_steps(60).with_cache(64));
    report.assert_passed();
    assert!(report.repro().contains("--cache 64"), "repro: {}", report.repro());
    let uncached = run(&SimConfig::new(5).with_steps(60));
    assert!(!uncached.repro().contains("--cache"), "repro: {}", uncached.repro());
}

/// On the same seed (same workload, same fault schedule) a cached run
/// coalesces same-key revisions inside commit intervals: the cache observes
/// hits, and the committed output stream carries no more records than the
/// uncached run's.
#[test]
fn cache_absorbs_repeated_key_traffic() {
    let base = SimConfig::new(7).with_steps(200).with_profile(Profile::Count);
    let uncached = run(&base.clone().with_obs_profile());
    uncached.assert_passed();
    let cached = run(&base.with_cache(1024).with_obs_profile());
    cached.assert_passed();

    assert!(
        cached.output_records <= uncached.output_records,
        "caching may only reduce committed output: cached={} uncached={}",
        cached.output_records,
        uncached.output_records
    );
    if kobs::ENABLED {
        let obs = cached.obs.as_ref().expect("profiled run attaches a snapshot");
        let hits = obs.counter("kstreams.cache_hits").unwrap_or(0);
        assert!(hits > 0, "expected same-key coalescing on seed 7:\n{cached}");
        assert!(
            obs.counter("kstreams.cache.flush_entries").unwrap_or(0) > 0,
            "commit-time flushes must drain the dirty set:\n{cached}"
        );
        let un_obs = uncached.obs.as_ref().expect("profiled run attaches a snapshot");
        assert_eq!(
            un_obs.counter("kstreams.cache_hits").unwrap_or(0),
            0,
            "cache-off runs must not touch the cache:\n{uncached}"
        );
    }
}
