//! kobs — a zero-dependency observability substrate for the kstream-repro
//! workspace.
//!
//! Two stores, and the formats they export through:
//!
//! - [`registry`]: named counters, gauges, and log-bucketed histograms
//!   behind a process-global [`Registry`], exported as ordered text or
//!   JSON [`Snapshot`]s. Metric names follow `<crate>.<subsystem>.<metric>`
//!   with an `_ms` suffix for virtual-time histograms; each name means one
//!   thing.
//! - [`ktrace`]: deterministic hierarchical spans ([`span!`] /
//!   [`child_span!`]) over the virtual clock, plus zero-duration
//!   *annotations* ([`event!`]) under the thread's current span. On top of
//!   the store sit a critical-path analyzer (`kobs.critical_path.*`), the
//!   flight recorder (its tree view: the last completed span trees) and,
//!   in [`trace_export`], a `chrome://tracing` / Perfetto JSON exporter.
//!   `simtest` dumps the newest annotations next to the repro command
//!   when an oracle fails. Span-store overflow is the
//!   `kobs.trace.spans_dropped` counter in every [`snapshot`].
//! - [`hist`] / [`json`]: the shared [`LatencyHistogram`] and a minimal
//!   JSON writer/parser used by the exporters and the CI schema gate.
//!
//! Everything runs on *virtual* time: callers pass the simulation clock's
//! `now_ms`, so latency percentiles and event timestamps are deterministic
//! for a fixed seed.
//!
//! Building with the `off` feature compiles every instrumentation entry
//! point (`count`, `observe`, spans, annotations, ...) to a no-op; the data
//! types stay functional so downstream code needs no `cfg`. Downstream
//! crates forward it as `kobs-off`. [`ENABLED`] reports which way this
//! build went.

#![deny(missing_docs)]

pub mod hist;
pub mod json;
pub mod ktrace;
pub mod registry;
pub mod trace_export;

pub use hist::{LatencyHistogram, ThroughputMeter};
pub use ktrace::{CriticalPathSummary, FieldValue, Span, SpanHandle, SpanTree};
pub use registry::{global, HistSnapshot, Registry, Snapshot, ENABLED};

/// Reset the global registry and the span store (run isolation in
/// harnesses; span ids restart so replays are byte-identical).
pub fn reset() {
    global().reset();
    ktrace::clear();
}

/// Convenience: add `n` to a global counter.
pub fn count(name: &str, n: u64) {
    global().count(name, n);
}

/// Convenience: set a global gauge.
pub fn gauge_set(name: &str, v: i64) {
    global().gauge_set(name, v);
}

/// Convenience: raise a global high-water-mark gauge.
pub fn gauge_max(name: &str, v: i64) {
    global().gauge_max(name, v);
}

/// Convenience: record into a global histogram (milliseconds).
pub fn observe(name: &str, ms: i64) {
    global().observe(name, ms);
}

/// Snapshot the global registry, with the span store's eviction count
/// folded in as the `kobs.trace.spans_dropped` counter (present once a
/// span was dropped).
pub fn snapshot() -> Snapshot {
    const DROPPED: &str = "kobs.trace.spans_dropped";
    let mut snap = global().snapshot();
    let dropped = ktrace::dropped_spans();
    if dropped > 0 {
        let at = snap.counters.partition_point(|(name, _)| name.as_str() < DROPPED);
        snap.counters.insert(at, (DROPPED.to_string(), dropped));
    }
    snap
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_convenience_wrappers() {
        // Other tests in this binary also touch the global registry; use
        // names no other test writes and avoid reset() here.
        super::count("libtest.hits", 2);
        super::gauge_set("libtest.depth", 3);
        super::gauge_max("libtest.peak", 9);
        super::observe("libtest.lat_ms", 12);
        let s = super::snapshot();
        if super::ENABLED {
            assert_eq!(s.counter("libtest.hits"), Some(2));
            assert_eq!(s.gauge("libtest.peak"), Some(9));
            assert_eq!(s.hist("libtest.lat_ms").map(|h| h.count), Some(1));
        } else {
            assert!(s.is_empty());
        }
    }
}
