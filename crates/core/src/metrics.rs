//! Runtime metrics, used by tests to assert semantics and by the benchmark
//! harness to report the paper's figures.
//!
//! The struct's fields are declared once through `streams_metrics!`, which
//! also derives [`StreamsMetrics::merge`] and the counter iterator
//! ([`StreamsMetrics::counters`]) — adding a counter is a one-line change
//! and merge/registry export cannot drift out of sync with the struct. Each
//! instance's struct is the only home of the `kstreams.<field>` counters;
//! the registry receives their growth ([`StreamsMetrics::publish_growth`]).

/// Declares [`StreamsMetrics`] plus its merge and counter-iteration methods
/// from a list of monotone counters and a list of levels. Registry names
/// are derived as `kstreams.<counter>`.
macro_rules! streams_metrics {
    (
        counters { $( $(#[$doc:meta])* $field:ident ),* $(,)? }
        levels { $( $(#[$ldoc:meta])* $level:ident ),* $(,)? }
    ) => {
        /// Counters accumulated by one application instance.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StreamsMetrics {
            $( $(#[$doc])* pub $field: u64, )*
            $( $(#[$ldoc])* pub $level: u64, )*
        }

        impl StreamsMetrics {
            /// Merge counters from another instance (fleet-wide totals in
            /// benches).
            pub fn merge(&mut self, other: &StreamsMetrics) {
                $( self.$field += other.$field; )*
                $( self.$level += other.$level; )*
            }

            /// `(registry name, value)` for every monotone counter, in
            /// declaration order (levels excluded).
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [ $( (concat!("kstreams.", stringify!($field)), self.$field), )* ]
                    .into_iter()
            }
        }
    };
}

streams_metrics! {
    counters {
        /// Input records processed (post-restore, i.e. real processing work).
        records_processed,
        /// Records produced to sink topics (user-visible outputs).
        records_emitted,
        /// Revision records emitted by order-sensitive operators on
        /// out-of-order input (§5).
        revisions_emitted,
        /// Out-of-order records dropped because their window closed (grace
        /// period elapsed, §5).
        late_dropped,
        /// Records the suppress operator absorbed (consolidated away, §5/§6.2).
        suppressed,
        /// Commit cycles completed.
        commits,
        /// Transactions committed (exactly-once mode only).
        transactions,
        /// Records replayed from changelogs during state restore.
        restore_records,
        /// Changelog records applied by standby replicas.
        standby_records_applied,
        /// Record-cache writes that coalesced into an existing dirty entry
        /// (§6.2's output-suppression caching — the appends saved).
        cache_hits,
        /// Record-cache writes that created a new dirty entry.
        cache_misses,
        /// Dirty entries evicted mid-interval by the cache capacity bound.
        cache_evictions,
        /// Records appended to store changelog topics (post-cache, so the
        /// dedup ratio is `records_processed / changelog_appends`).
        changelog_appends,
        /// Task cycles executed by a non-home worker (work-stealing scheduler;
        /// 0 in serial mode).
        scheduler_steals,
    }
    levels {
        /// Tasks this instance currently runs.
        active_tasks,
        /// Standby replicas this instance currently hosts.
        standby_tasks,
    }
}

impl StreamsMetrics {
    /// Add each counter's growth since `published` to the registry counter
    /// of the same name, then make `self` the new baseline. Instances call
    /// this at commit, so the registry holds fleet totals. Every name is
    /// touched, even with zero growth, so snapshots carry the full set.
    pub fn publish_growth(&self, published: &mut StreamsMetrics, registry: &kobs::Registry) {
        for ((name, now), (_, then)) in self.counters().zip(published.counters()) {
            registry.count(name, now.saturating_sub(then));
        }
        *published = *self;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters() {
        let mut a = StreamsMetrics { records_processed: 5, commits: 1, ..Default::default() };
        let b = StreamsMetrics { records_processed: 7, late_dropped: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.records_processed, 12);
        assert_eq!(a.late_dropped, 2);
        assert_eq!(a.commits, 1);
    }

    #[test]
    fn counters_cover_every_monotone_field_in_declaration_order() {
        let m = StreamsMetrics {
            records_processed: 3,
            standby_records_applied: 9,
            changelog_appends: 4,
            active_tasks: 5,
            ..Default::default()
        };
        let fields: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(fields.len(), 14, "every field but the two levels");
        assert_eq!(fields[0], ("kstreams.records_processed", 3));
        assert_eq!(fields[8], ("kstreams.standby_records_applied", 9));
        assert_eq!(fields[12], ("kstreams.changelog_appends", 4));
        assert_eq!(fields[13], ("kstreams.scheduler_steals", 0));
        assert!(fields.iter().all(|(n, _)| n.starts_with("kstreams.") && !n.ends_with("_tasks")));
    }

    #[test]
    fn merge_agrees_with_counters() {
        // The macro generates both from the same list, so summing the
        // counter iterators must match merging the structs.
        let a = StreamsMetrics { records_processed: 1, suppressed: 4, ..Default::default() };
        let b = StreamsMetrics { records_processed: 2, commits: 8, ..Default::default() };
        let mut merged = a;
        merged.merge(&b);
        for (((n, va), (_, vb)), (_, vm)) in a.counters().zip(b.counters()).zip(merged.counters()) {
            assert_eq!(va + vb, vm, "field {n}");
        }
    }

    #[test]
    fn publish_growth_adds_deltas_to_counters() {
        let registry = kobs::Registry::new();
        let mut published = StreamsMetrics::default();
        let first = StreamsMetrics { records_emitted: 42, active_tasks: 3, ..Default::default() };
        first.publish_growth(&mut published, &registry);
        assert_eq!(published, first, "the publish becomes the next baseline");
        let second = StreamsMetrics { records_emitted: 50, commits: 2, ..first };
        second.publish_growth(&mut published, &registry);
        let snap = registry.snapshot();
        if kobs::ENABLED {
            assert_eq!(snap.counter("kstreams.records_emitted"), Some(50));
            assert_eq!(snap.counter("kstreams.commits"), Some(2));
            assert_eq!(
                snap.counter("kstreams.late_dropped"),
                Some(0),
                "zero growth still exported"
            );
            assert_eq!(snap.counter("kstreams.active_tasks"), None, "levels are not counters");
            assert!(snap.gauges.is_empty());
        } else {
            assert!(snap.is_empty());
        }
    }
}
