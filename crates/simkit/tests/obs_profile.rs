//! Integration tests for the `--profile` observability surface of simtest:
//! the attached metrics snapshot, the trailing annotation window, the JSON
//! export the CI schema gate consumes, and the one-name-per-metric rule.

use kobs::json::Value;
use simkit::simtest::{run, SimConfig};

#[test]
fn profiled_report_carries_metrics_and_trace() {
    let report = run(&SimConfig::new(7).with_steps(100).with_obs_profile());
    report.assert_passed();
    let obs = report.obs.as_ref().expect("profiled run attaches a snapshot");
    if kobs::ENABLED {
        // The acceptance surface: txn per-phase latency percentiles, the
        // commit-cycle histogram, and the LSO-lag gauge.
        let markers = obs.hist("kbroker.txn.phase.markers_ms").expect("markers phase");
        assert!(markers.count > 0, "no marker phase observed:\n{report}");
        assert!(obs.hist("kstreams.commit_cycle_ms").is_some(), "commit cycle:\n{report}");
        assert!(obs.gauge("kbroker.lso_lag").is_some(), "LSO lag gauge:\n{report}");
        assert!(obs.gauge("kbroker.lso_lag_peak").is_some());
        assert!(obs.counter("kstreams.restore_records").is_some());

        assert!(!report.trace.is_empty(), "profiled run attaches a trace tail");
        assert!(report.trace.len() <= 32, "trace tail is bounded");
        assert!(report.trace.iter().all(|s| s.annotation), "the tail holds annotations only");
        assert!(
            report.trace.windows(2).all(|w| w[0].id < w[1].id),
            "trace tail is in emission order"
        );

        let text = report.to_string();
        assert!(text.contains("  metrics:"), "report renders the snapshot:\n{text}");
        assert!(text.contains("  trace (last "), "report renders the trace tail:\n{text}");
    } else {
        assert!(obs.is_empty(), "kobs-off builds attach an empty snapshot");
        assert!(report.trace.is_empty());
    }
}

#[test]
fn report_json_round_trips_through_the_kobs_parser() {
    let report = run(&SimConfig::new(7).with_steps(100).with_obs_profile());
    report.assert_passed();
    let doc = kobs::json::parse(&report.to_json().to_string()).expect("report JSON parses");
    assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
    assert_eq!(doc.get("passed"), Some(&Value::Bool(true)));
    let metrics = doc.get("metrics").expect("profiled JSON embeds the snapshot");
    assert!(metrics.get("counters").is_some());
    assert!(metrics.get("histograms").is_some());
}

#[test]
fn unprofiled_passing_run_has_no_obs_sections() {
    let report = run(&SimConfig::new(7).with_steps(50));
    report.assert_passed();
    assert!(report.obs.is_none(), "snapshot only rides along when requested");
    assert!(report.trace.is_empty(), "trace tail only rides along on request or failure");
    let text = report.to_string();
    assert!(!text.contains("  metrics:"));
    assert!(!text.contains("  trace (last "));
}

#[test]
fn profiled_replay_is_byte_identical() {
    let cfg = SimConfig::new(11).with_steps(120).with_obs_profile();
    let first = format!("{}", run(&cfg));
    let second = format!("{}", run(&cfg));
    assert_eq!(first, second, "metrics and trace must replay byte-identically per seed");
}

/// Each exported metric name means one thing: no two names collide once
/// `.` and `_` are treated alike (the old `kstreams.cache.hits` counter
/// against the `kstreams.cache_hits` gauge), and none of the retired
/// duplicate names is still written.
#[test]
fn exported_metric_names_are_unique_modulo_separators() {
    let report = run(&SimConfig::new(7).with_cache(64).with_obs_profile());
    report.assert_passed();
    let obs = report.obs.as_ref().expect("profiled run attaches a snapshot");
    if !kobs::ENABLED {
        assert!(obs.is_empty());
        return;
    }
    let names: Vec<&str> = obs
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(obs.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(obs.hists.iter().map(|h| h.name.as_str()))
        .collect();
    let mut seen = std::collections::BTreeMap::new();
    for name in &names {
        if let Some(prev) = seen.insert(name.replace('.', "_"), *name) {
            panic!("`{prev}` and `{name}` name the same metric");
        }
    }
    for retired in [
        "kstreams.cache.hits",
        "kstreams.cache.misses",
        "kstreams.cache.evictions",
        "kstreams.late_drops",
        "kstreams.commit_cycles",
        "kstreams.scheduler.steals",
        "kstreams.restore.records_replayed",
    ] {
        assert!(!names.contains(&retired), "retired duplicate `{retired}` is still exported");
    }
    assert!(obs.counter("kstreams.cache_hits").unwrap_or(0) > 0, "cached run hits:\n{report}");
}
