//! perfbench: the repository benchmark. Runs one workload for a fixed wall
//! budget and prints its metrics as one JSON line (the last line of stdout).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics (with untraced rounds in between, to price the tracing
//! itself).
//! `run.py` next to this crate builds it and is the command to use; see
//! `README.md` for the workloads and metrics.

mod check;
mod gen;
mod pipeline;
mod rungs;
mod sys;
mod workload;

use kobs::json::{num, obj, str, Value};
use pipeline::{LayerTrace, Round};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Fewest rounds behind any median, however long a round takes.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    quantile(&mut xs, 0.5)
}

fn median_by<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(xs.iter().map(f).collect())
}

/// Linear-interpolated quantile; 0 for an empty sample.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Rounds of the whole pipeline until `budget` has passed, with at least
/// [`MIN_ROUNDS`] of each kind; one list of rounds per kind. The kinds take
/// turns, so all of them see the same host conditions. Every round replays
/// the same seeded input on a fresh cluster.
fn rounds(
    kinds: &[(&Workload, bool)],
    inputs: &gen::Inputs,
    budget: Duration,
) -> Result<Vec<Vec<Round>>, String> {
    let topologies: Vec<_> = kinds.iter().map(|(w, _)| pipeline::topology(w)).collect();
    let start = Instant::now();
    let mut out: Vec<Vec<Round>> = kinds.iter().map(|_| Vec::new()).collect();
    // One unmeasured round first: the first round in a process also pays for
    // growing the heap, which later rounds reuse.
    pipeline::run_round(kinds[0].0, &topologies[0], inputs, false)?;
    while out[0].len() < MIN_ROUNDS || start.elapsed() < budget {
        for ((&(w, traced), topology), rounds) in kinds.iter().zip(&topologies).zip(&mut out) {
            rounds.push(pipeline::run_round(w, topology, inputs, traced)?);
        }
    }
    Ok(out)
}

/// What one invocation measured.
struct Report {
    metrics: Vec<(&'static str, Value)>,
    stamp: Vec<(&'static str, Value)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn new(w: &Workload, seed: u64, all: &[&Round]) -> Self {
        let attempted = all.iter().map(|r| r.inputs).sum();
        let failed = all.iter().map(|r| r.failed()).sum();
        let sum = |f: fn(&Round) -> u64| num(all.iter().map(|r| f(r)).sum::<u64>() as f64);
        let stamp = vec![
            ("workload", str(w.name)),
            ("params", w.params()),
            ("seed", num(seed as f64)),
            ("records_per_round", num(w.records_per_round() as f64)),
            ("rounds", num(all.len() as f64)),
            ("available_parallelism", num(available_parallelism() as f64)),
            ("profile", str(if cfg!(debug_assertions) { "debug" } else { "release" })),
            ("kobs", str(if kobs::ENABLED { "on" } else { "off" })),
            ("failed_fraction", num(ratio(failed as f64, attempted as f64))),
            ("duplicate", sum(|r| r.tally.duplicate)),
            ("missing", sum(|r| r.tally.missing)),
            ("wrong", sum(|r| r.tally.wrong)),
            ("errors", sum(|r| r.errors)),
        ];
        Self { metrics: Vec::new(), stamp, attempted, failed }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, obj(vec![("value", num(value)), ("unit", str(unit))])));
    }

    fn stamp(&mut self, name: &'static str, value: usize) {
        self.stamp.push((name, num(value as f64)));
    }

    fn print(&self) {
        println!("{}", obj(vec![("stamp", obj(self.stamp.clone()))]));
        println!(
            "{}",
            obj(vec![
                ("correct", Value::Bool(self.failed == 0)),
                ("attempted", num(self.attempted as f64)),
                ("failed", num(self.failed as f64)),
                ("metrics", obj(self.metrics.clone())),
            ])
        );
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// End-to-end metrics, tracing off.
fn end_to_end(w: &Workload, seed: u64, rounds: &[Round]) -> Report {
    let all: Vec<&Round> = rounds.iter().collect();
    let mut report = Report::new(w, seed, &all);
    let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let rps = rounds.iter().map(|r| num(r.throughput_rps().round())).collect();
    report.stamp("latency_samples", rounds.iter().map(|r| r.latency_samples).sum());
    report.stamp("setup_samples", setups.len());
    report.stamp.push(("round_throughput_rps", Value::Arr(rps)));
    report.metric("throughput_rps", median_by(rounds, Round::throughput_rps), "1/s");
    report.metric("e2e_latency_p50_ms", median_by(rounds, |r| r.latency_p50_ms), "ms");
    report.metric("e2e_latency_p99_ms", median_by(rounds, |r| r.latency_p99_ms), "ms");
    let cpu = median_by(rounds, |r| r.cpu_us as f64 / r.inputs as f64);
    report.metric("cpu_us_per_record", cpu, "us");
    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    report
}

/// Per-layer metrics: traced rounds timed around each layer's calls, kobs
/// and app counters from the last traced round, and the isolation rungs.
/// The scheduler metrics come from the scheduler twin's traced rounds when
/// the workload has one.
fn per_layer(
    w: &Workload,
    seed: u64,
    inputs: &gen::Inputs,
    untraced: &[Round],
    traced: &[Round],
    twin: Option<&[Round]>,
    rung_budget: Duration,
) -> Report {
    let all: Vec<&Round> = untraced.iter().chain(traced).chain(twin.unwrap_or_default()).collect();
    let mut report = Report::new(w, seed, &all);
    let n = inputs.records.len() as f64;
    let per_record = |f: fn(&LayerTrace) -> u64| median_by(traced, |r| f(r.layers()) as f64 / n);
    let share = |f: fn(&LayerTrace) -> u64| {
        median_by(traced, |r| {
            let t = r.layers();
            f(t) as f64 / (t.producer_ns + t.step_ns + t.poll_ns) as f64
        })
    };
    report.metric("kbroker.producer.ns_per_record", per_record(|t| t.producer_ns), "ns");
    report.metric(
        "kbroker.producer.allocs_per_record",
        per_record(|t| t.producer_allocs),
        "allocs",
    );
    report.metric("kstreams.app.step_ns_per_record", per_record(|t| t.step_ns), "ns");
    report.metric("kstreams.app.share", share(|t| t.step_ns), "ratio");
    let mut process_us: Vec<f64> =
        traced.iter().flat_map(|r| r.layers().process_step_us.iter().copied()).collect();
    let mut commit_us: Vec<f64> =
        traced.iter().flat_map(|r| r.layers().commit_step_us.iter().copied()).collect();
    report.stamp("process_step_samples", process_us.len());
    report.stamp("commit_step_samples", commit_us.len());
    report.metric("kstreams.app.process_step_us_p50", quantile(&mut process_us, 0.5), "us");
    report.metric("kstreams.app.commit_step_us_p50", quantile(&mut commit_us, 0.5), "us");
    report.metric("kstreams.app.commit_step_us_p99", quantile(&mut commit_us, 0.99), "us");
    report.metric("kstreams.app.allocs_per_record", per_record(|t| t.step_allocs), "allocs");
    report.metric("kbroker.consumer.poll_ns_per_record", per_record(|t| t.poll_ns), "ns");
    report.metric("kbroker.consumer.share", share(|t| t.poll_ns), "ratio");
    report.metric("kbroker.consumer.allocs_per_record", per_record(|t| t.poll_allocs), "allocs");
    let late = median_by(traced, |r| r.layers().generator_late_ms as f64 / n);
    report.metric("perfbench.generator_late_ms_mean", late, "ms");

    // Counts of the last traced round: they repeat exactly on a serial
    // workload for a given seed.
    let last = traced.last().expect("at least one traced round");
    let (t, s) = (last.layers(), &last.streams);
    let counter = |name: &str| t.obs.counter(name).unwrap_or(0) as f64;
    let hist_p50 = |name: &str| t.obs.hist(name).map_or(0.0, |h| h.p50_ms as f64);
    let per_1k = |x: u64| x as f64 * 1000.0 / n;
    let (records, batches) =
        (counter("kbroker.produce.records"), counter("kbroker.produce.batches"));
    let fetched = ratio(counter("kbroker.fetch.records"), counter("kbroker.fetch.requests"));
    let lso_lag_peak = t.obs.gauge("kbroker.lso_lag_peak").unwrap_or(0) as f64;
    let hit_ratio = ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64);
    report.metric("kbroker.fetch.records_per_request", fetched, "records");
    report.metric("kbroker.produce.records_per_input", records / n, "records");
    report.metric("kbroker.produce.records_per_batch", ratio(records, batches), "records");
    report.metric("kbroker.txn.markers_ms_p50", hist_p50("kbroker.txn.phase.markers_ms"), "ms");
    report.metric("kstreams.commit_cycle_ms_p50", hist_p50("kstreams.commit_cycle_ms"), "ms");
    report.metric("kbroker.lso_lag_peak", lso_lag_peak, "offsets");
    report.metric("kstreams.changelog_appends_per_1k_inputs", per_1k(s.changelog_appends), "count");
    report.metric("kstreams.cache.hit_ratio", hit_ratio, "ratio");
    report.metric("kstreams.revisions_per_1k_inputs", per_1k(s.revisions_emitted), "count");
    report.metric("kstreams.late_dropped_per_1k_inputs", per_1k(s.late_dropped), "count");
    let sched_round = twin.unwrap_or(traced).last().expect("at least one traced round");
    let (t, s) = (sched_round.layers(), &sched_round.streams);
    let (busy, critical) = (t.sched.0 as f64, t.sched.1 as f64);
    report.metric("kstreams.scheduler.busy_over_critical", ratio(busy, critical), "ratio");
    let steals = ratio(s.scheduler_steals as f64, t.steps as f64);
    report.metric("kstreams.scheduler.steals_per_cycle", steals, "steals");
    report.metric("kstreams.scheduler.parallel_share", ratio(critical, t.step_ns as f64), "ratio");
    let speedup = twin.map_or(0.0, |tw| {
        median_by(tw, Round::throughput_rps) / median_by(traced, Round::throughput_rps)
    });
    report.metric("kstreams.scheduler.wall_speedup", speedup, "ratio");

    // Isolation rungs, repeated for the rest of the budget.
    let start = Instant::now();
    let (mut log, mut cluster, mut driver, mut commits_us) = (vec![], vec![], vec![], vec![]);
    while log.len() < MIN_ROUNDS || start.elapsed() < rung_budget {
        log.push(rungs::klog(w, inputs));
        cluster.push(rungs::kbroker_cluster(w, inputs));
        driver.push(rungs::kstreams_driver(w, inputs));
        if w.exactly_once {
            commits_us.extend(rungs::kbroker_txn(w, inputs));
        }
    }
    report.stamp("rung_repeats", log.len());
    report.stamp("txn_commit_samples", commits_us.len());
    report.metric("klog.append_ns_per_record", median_by(&log, |r| r.append_ns_per_record), "ns");
    report.metric("klog.fetch_ns_per_record", median_by(&log, |r| r.fetch_ns_per_record), "ns");
    report.metric("klog.allocs_per_record", median_by(&log, |r| r.allocs_per_record), "allocs");
    let produce = median_by(&cluster, |r| r.produce_ns_per_record);
    report.metric("kbroker.cluster.produce_ns_per_record", produce, "ns");
    let fetch = median_by(&cluster, |r| r.fetch_ns_per_record);
    report.metric("kbroker.cluster.fetch_ns_per_record", fetch, "ns");
    report.metric("kbroker.txn.commit_us", median(commits_us), "us");
    let process = median_by(&driver, |r| r.process_ns_per_record);
    report.metric("kstreams.driver.process_ns_per_record", process, "ns");
    let allocs = median_by(&driver, |r| r.allocs_per_record);
    report.metric("kstreams.driver.allocs_per_record", allocs, "allocs");

    let plain = median_by(untraced, Round::throughput_rps);
    let with_trace = median_by(traced, Round::throughput_rps);
    report.metric("perfbench.tracing_overhead_share", plain / with_trace - 1.0, "ratio");
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let inputs = gen::generate(w, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let report = if args.trace {
        let twin = w.scheduler_twin.map(|name| workload::find(name).expect("a known workload"));
        let mut kinds = vec![(w, false), (w, true)];
        if let Some(twin) = twin {
            assert_eq!(twin.records_per_round(), w.records_per_round(), "twins share inputs");
            kinds.push((twin, true));
        }
        rounds(&kinds, &inputs, budget * 2 / 3).map(|mut passes| {
            let twin_rounds = twin.and_then(|_| passes.pop());
            let (untraced, traced) = (&passes[0], &passes[1]);
            per_layer(w, args.seed, &inputs, untraced, traced, twin_rounds.as_deref(), budget / 3)
        })
    } else {
        rounds(&[(w, false)], &inputs, budget).map(|passes| end_to_end(w, args.seed, &passes[0]))
    };
    match report {
        Ok(report) => {
            report.print();
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} records failed the reference check",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
